#include "analysis/invariant_checker.hpp"

#include "core/agfw.hpp"
#include "net/codec.hpp"
#include "obs/metrics.hpp"

namespace geoanon::analysis {

using net::Packet;
using net::PacketType;
using util::SimTime;

namespace {

/// Extra allowance on the announce-age check. The checker observes packets
/// at *transmission* time, but the freshness rule governs *commit* time: a
/// frame can sit in a saturated 50-deep interface queue for seconds before
/// airing, plus NL-ACK retransmissions and reroutes of queued packets. The
/// slack absorbs that bounded lag while still catching genuinely broken
/// purging.
constexpr SimTime kTargetAgeSlack = SimTime::seconds(5.0);
/// Period of the ANT state sweep.
constexpr SimTime kSweepPeriod = SimTime::seconds(1.0);

/// The agents are installed behind the RoutingAgent interface; the checker
/// inspects AGFW-specific state (ANT, pseudonym manager) where present.
const core::AgfwAgent* as_agfw(net::Node& node) {
    if (!node.has_agent()) return nullptr;
    return dynamic_cast<const core::AgfwAgent*>(&node.agent());
}

bool is_anonymous_type(PacketType t) {
    switch (t) {
        case PacketType::kAgfwHello:
        case PacketType::kAgfwData:
        case PacketType::kAgfwAck:
            return true;
        default:
            return false;
    }
}

bool is_ls_type(PacketType t) {
    switch (t) {
        case PacketType::kLocUpdate:
        case PacketType::kLocRequest:
        case PacketType::kLocReply:
        case PacketType::kLocReplicate:
        case PacketType::kLocDigest:
            return true;
        default:
            return false;
    }
}

}  // namespace

InvariantChecker::InvariantChecker(net::Network& network, Params params)
    : network_(network), params_(params) {}

void InvariantChecker::attach() {
    if (attached_) return;
    attached_ = true;
    network_.channel().add_snoop(
        [this](const phy::Frame& frame, const util::Vec2& /*tx_pos*/) {
            on_frame(frame);
        });
    network_.sim().after(kSweepPeriod, [this] { sweep(); });
}

void InvariantChecker::on_frame(const phy::Frame& frame) {
    ++counters_.frames_checked;

    if (params_.expect_anonymous && params_.expect_anonymous_mac) {
        // §3.2: every AGFW frame is a broadcast with no MAC addresses. RTS/
        // CTS never appear because anonymous mode cannot address a handshake.
        if (frame.src != net::kBroadcastAddr || frame.dst != net::kBroadcastAddr)
            ++counters_.mac_address_exposed;
    }

    if (frame.type != phy::Frame::Type::kData || !frame.payload) return;
    check_packet(*frame.payload);
}

void InvariantChecker::check_packet(const Packet& pkt) {
    ++counters_.packets_checked;

    // Wire discipline: whatever the agents put on the air must survive the
    // reference codec, and the canonical encoding can never exceed the wire
    // size the protocol accounted for (it may be smaller when full
    // certificates are attached by value).
    const auto wire = net::codec::encode(pkt);
    if (!net::codec::decode_ex(wire).packet) ++counters_.codec_reject;
    if (pkt.wire_bytes != 0 && wire.size() > pkt.wire_bytes) ++counters_.wire_size_mismatch;

    if (params_.expect_anonymous) {
        // §3.2/§4: the sender's identity travels only inside the trapdoor
        // (or the encrypted ALS row) — never in a cleartext header field.
        // The plain-DLM location-service ablation legitimately carries
        // identities, so LS packets are only held to this when the run is
        // configured for the anonymous row format.
        if (is_anonymous_type(pkt.type) &&
            (pkt.src_id != net::kInvalidNode || pkt.dst_id != net::kInvalidNode))
            ++counters_.cleartext_identity;
        if (is_ls_type(pkt.type) && params_.expect_anonymous_ls) {
            if (pkt.src_id != net::kInvalidNode || pkt.dst_id != net::kInvalidNode)
                ++counters_.cleartext_identity;
            if (pkt.ls_subject != net::kInvalidNode) {
                // An anonymous updater must publish encrypted rows only; a
                // subject id on an update/replication is a leak. On requests
                // and replies it is the §3.3 heterogeneous fallback, which
                // names a public target by design.
                if (pkt.type == PacketType::kLocUpdate ||
                    pkt.type == PacketType::kLocReplicate)
                    ++counters_.cleartext_identity;
                else
                    ++counters_.plain_ls_fallbacks;
            }
        }
        if (pkt.type == PacketType::kGpsrHello || pkt.type == PacketType::kGpsrData)
            // Identity-bearing GPSR traffic has no business in an anonymous run.
            ++counters_.cleartext_identity;
    }

    switch (pkt.type) {
        case PacketType::kAgfwHello:
            record_hello(pkt);
            break;
        case PacketType::kAgfwData:
            if (pkt.trapdoor.empty()) ++counters_.missing_trapdoor;
            data_uids_.insert(pkt.uid);
            check_pseudonym_target(pkt);
            break;
        case PacketType::kAgfwAck:
            // §3.2: an acknowledgment only follows a received data packet, so
            // every acked uid must have been on the air before.
            for (const std::uint64_t uid : pkt.ack_uids)
                if (!data_uids_.contains(uid)) ++counters_.ack_without_delivery;
            break;
        case PacketType::kLocUpdate:
        case PacketType::kLocRequest:
        case PacketType::kLocReply:
        case PacketType::kLocReplicate:
        case PacketType::kLocDigest:
            data_uids_.insert(pkt.uid);
            if (params_.expect_anonymous) check_pseudonym_target(pkt);
            break;
        default:
            break;
    }
}

void InvariantChecker::record_hello(const Packet& pkt) {
    // The announcer has just rotated, so the announced pseudonym is some
    // node's current one; remember the owner for the two-latest check.
    Announce a;
    a.at = network_.sim().now();
    for (auto& node : network_.nodes()) {
        if (const auto* agent = as_agfw(node);
            agent && agent->pseudonyms().current() == pkt.hello_pseudonym) {
            a.owner = node.id();
            break;
        }
    }
    announced_[pkt.hello_pseudonym] = a;
}

void InvariantChecker::check_pseudonym_target(const Packet& pkt) {
    if (!params_.expect_anonymous) return;
    const std::uint64_t n = pkt.next_hop_pseudonym;
    if (n == 0) {  // §3.2 "last forwarding attempt"
        ++counters_.last_attempt_frames;
        return;
    }
    const auto it = announced_.find(n);
    if (it == announced_.end()) {
        // Forwarders may only address pseudonyms learned from hellos
        // (§3.1.1); a fabricated pseudonym is a protocol violation.
        ++counters_.unknown_pseudonym;
        return;
    }
    const SimTime age = network_.sim().now() - it->second.at;
    if (age > params_.ant_ttl + kTargetAgeSlack) {
        // The sender's ANT must have expired this entry long ago.
        ++counters_.stale_pseudonym_target;
        return;
    }
    // Soft check: is the target still one of the owner's two latest (§3.1.1)?
    // A miss is a legitimate rotation race — the packet will go unanswered
    // and the NL-ACK machinery reroutes — so it is informational only.
    if (it->second.owner != net::kInvalidNode &&
        it->second.owner < network_.size()) {
        const auto* agent = as_agfw(network_.node(it->second.owner));
        if (agent && !agent->pseudonyms().is_mine(n))
            ++counters_.rotated_out_targets;
    }
}

void InvariantChecker::sweep() {
    ++counters_.sweeps;
    const SimTime now = network_.sim().now();
    // An expired entry may linger until the owner's next hello tick purges
    // it; anything older than a full purge cycle (plus slack) means the
    // purge path is broken.
    const SimTime purge_slack = params_.hello_interval * 2;

    for (auto& node : network_.nodes()) {
        // A crashed node runs no purge tick; its frozen table is not live
        // protocol state (it is wiped on recovery) and is not audited.
        if (!node.up()) continue;
        const auto* agent = as_agfw(node);
        if (!agent) continue;
        for (const auto& e : agent->ant().entries()) {
            ++counters_.ant_entries_checked;
            if (e.expires - now > params_.ant_ttl) ++counters_.overlong_ant_ttl;
            if (now - e.expires > purge_slack) ++counters_.stale_ant_entry;
        }
    }
    network_.sim().after(kSweepPeriod, [this] { sweep(); });
}

void InvariantChecker::publish_metrics(obs::MetricsRegistry& reg) const {
    const Counters& c = counters_;
    reg.add("inv.frames_checked", c.frames_checked);
    reg.add("inv.packets_checked", c.packets_checked);
    reg.add("inv.ant_entries_checked", c.ant_entries_checked);
    reg.add("inv.sweeps", c.sweeps);
    reg.add("inv.cleartext_identity", c.cleartext_identity);
    reg.add("inv.mac_address_exposed", c.mac_address_exposed);
    reg.add("inv.missing_trapdoor", c.missing_trapdoor);
    reg.add("inv.unknown_pseudonym", c.unknown_pseudonym);
    reg.add("inv.stale_pseudonym_target", c.stale_pseudonym_target);
    reg.add("inv.overlong_ant_ttl", c.overlong_ant_ttl);
    reg.add("inv.stale_ant_entry", c.stale_ant_entry);
    reg.add("inv.ack_without_delivery", c.ack_without_delivery);
    reg.add("inv.codec_reject", c.codec_reject);
    reg.add("inv.wire_size_mismatch", c.wire_size_mismatch);
    reg.add("inv.rotated_out_targets", c.rotated_out_targets);
    reg.add("inv.last_attempt_frames", c.last_attempt_frames);
    reg.add("inv.plain_ls_fallbacks", c.plain_ls_fallbacks);
}

}  // namespace geoanon::analysis
