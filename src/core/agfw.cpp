#include "core/agfw.hpp"

#include "net/codec.hpp"

#include "core/planar.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/retry.hpp"

namespace geoanon::core {

using util::ByteWriter;
using util::SimTime;

namespace {
/// Slack on the ANT silence window past the missed hello intervals, so a
/// hello that arrives a little late does not purge a live neighbor.
constexpr SimTime kSilenceSlack = SimTime::seconds(0.5);
/// How long a data uid is remembered for duplicate suppression.
constexpr SimTime kSeenTtl = SimTime::seconds(10.0);
/// How long a next hop that exhausted its ACK retries is avoided.
constexpr SimTime kBlacklistTtl = SimTime::seconds(5.0);
/// Safety TTL for a face traversal (perimeter hops per packet).
constexpr int kPerimeterHopLimit = 32;

/// Fill in the derived ANT silence window: k missed hello intervals plus
/// the slack, unless the caller pinned silence_timeout explicitly.
AnonymousNeighborTable::Params ant_params_for(const AgfwAgent::Params& p) {
    AnonymousNeighborTable::Params ap = p.ant;
    if (ap.silence_timeout == SimTime::zero() && p.ant_silence_hellos > 0)
        ap.silence_timeout = p.hello_interval * p.ant_silence_hellos + kSilenceSlack;
    return ap;
}

/// Canonical byte encoding of the hello body — what the ring signature
/// covers: ⟨HELLO, n, loc, ts⟩.
util::Bytes hello_signing_bytes(const Packet& pkt) {
    ByteWriter w;
    w.u64(pkt.hello_pseudonym);
    w.f64(pkt.hello_loc.x);
    w.f64(pkt.hello_loc.y);
    w.u64(static_cast<std::uint64_t>(pkt.hello_ts.ns()));
    return w.take();
}
}  // namespace

AgfwAgent::AgfwAgent(net::Node& node, Params params, crypto::CryptoEngine& engine,
                     LocateFn locate, DeliverFn deliver)
    : node_(node),
      params_(params),
      engine_(engine),
      locate_(std::move(locate)),
      deliver_(std::move(deliver)),
      pseudonyms_(engine, node.id(), node.rng()),
      ant_(ant_params_for(params)) {
    // Per-node silence phase for the virtual-pseudonym-change policy. Drawn
    // only when that policy is active so every other configuration consumes
    // the exact same RNG stream as before the policy existed.
    const PseudonymPolicy& pol = params_.pseudonym_policy;
    if (pol.kind == PseudonymPolicy::Kind::kVirtualMixZone &&
        pol.vpc_period > SimTime::zero()) {
        vpc_phase_ = SimTime::nanos(node_.rng().uniform_int(0, pol.vpc_period.ns() - 1));
    }
}

void AgfwAgent::enable_location_service(routing::LocationService::Mode mode,
                                        routing::GridMap grid,
                                        routing::LocationService::Params ls_params,
                                        std::vector<NodeId> contacts) {
    routing::LocationService::Hooks hooks;
    hooks.route = [this](std::shared_ptr<Packet> pkt) { route_packet(std::move(pkt)); };
    hooks.local_broadcast = [this](std::shared_ptr<Packet> pkt) {
        auto copy = net::clone_packet(*pkt);
        copy->next_hop_pseudonym = crypto::kLastAttemptPseudonym;
        stats_.control_bytes += copy->wire_bytes;
        node_.mac().send_broadcast(std::move(copy));
    };
    hooks.my_position = [this] { return node_.position(); };
    hooks.my_id = node_.id();
    hooks.sim = &node_.sim();
    hooks.rng = &node_.rng();
    hooks.engine = &engine_;
    hooks.charge = [this](SimTime cost, std::function<void()> done) {
        charge(cost, std::move(done));
    };
    hooks.is_up = [this] { return node_.up(); };
    ls_ = std::make_unique<routing::LocationService>(mode, grid, ls_params,
                                                     std::move(hooks));
    ls_->set_contacts(std::move(contacts));
}

void AgfwAgent::charge(SimTime cost, std::function<void()> done) {
    if (params_.charge_crypto_costs && cost > SimTime::zero()) {
        node_.sim().after(cost, std::move(done));
    } else {
        done();
    }
}

bool AgfwAgent::in_last_hop_region(const Vec2& dst_loc) const {
    return util::distance(node_.position(), dst_loc) <=
           node_.radio().phy_params().range_m;
}

void AgfwAgent::purge_soft_state() {
    const SimTime now = node_.sim().now();
    seen_.expire(now, kSeenTtl);
    std::erase_if(blacklist_, [&](const auto& kv) { return kv.second <= now; });
}

std::vector<Pseudonym> AgfwAgent::active_blacklist() const {
    std::vector<Pseudonym> out;
    out.reserve(blacklist_.size());
    const SimTime now = node_.sim().now();
    // geoanon-lint: allow(unordered-iter) -- order erased by the sort below
    for (const auto& [n, expiry] : blacklist_)
        if (expiry > now) out.push_back(n);
    std::sort(out.begin(), out.end());
    return out;
}

void AgfwAgent::start() {
    const SimTime phase =
        SimTime::nanos(node_.rng().uniform_int(0, params_.hello_interval.ns()));
    hello_timer_.start(node_.sim(), params_.hello_interval, phase,
                       [this] { send_hello(); });
    if (ls_) ls_->start();
}

// ---------------------------------------------------------------------------
// ANT: hello beacons
// ---------------------------------------------------------------------------

void AgfwAgent::on_node_restart() {
    // Reboot: every piece of volatile protocol state is gone. Cumulative
    // stats survive — they model the experimenter's counters, not node RAM.
    ant_.clear();
    seen_.clear();
    blacklist_.clear();
    // geoanon-lint: allow(unordered-iter) -- cancel() only marks event ids; cancellation order cannot reach any output
    for (auto& [uid, p] : pending_) node_.sim().cancel(p.timer);
    pending_.clear();
    ack_batch_.clear();
    if (ack_flush_event_ != sim::kInvalidEvent) {
        node_.sim().cancel(ack_flush_event_);
        ack_flush_event_ = sim::kInvalidEvent;
    }
    known_certs_.clear();
    if (ls_) ls_->reset();
}

bool AgfwAgent::policy_silent(SimTime now) const {
    const PseudonymPolicy& pol = params_.pseudonym_policy;
    switch (pol.kind) {
        case PseudonymPolicy::Kind::kMixZone:
            return pol.in_zone(node_.position());
        case PseudonymPolicy::Kind::kVirtualMixZone: {
            if (pol.vpc_period <= SimTime::zero()) return false;
            const std::int64_t phase =
                (now.ns() + vpc_phase_.ns()) % pol.vpc_period.ns();
            return phase < pol.vpc_silence.ns();
        }
        default:
            return false;
    }
}

// geoanon: hot
void AgfwAgent::send_hello() {
    if (!node_.up()) return;  // crashed: the hello timer keeps ticking idly
    purge_soft_state();
    ant_.purge(node_.sim().now());

    const SimTime now = node_.sim().now();
    if (policy_silent(now)) {
        // Mix-zone / VPC silence: skip this beacon entirely. Per-hello
        // rotation below then guarantees the first post-silence beacon
        // carries a pseudonym never seen before the gap (the "swap").
        ++stats_.hello_suppressed;
        return;
    }

    // geoanon-lint: allow(hot-alloc) -- packets are immutable shared-ownership objects by design; a packet arena is ROADMAP item 1, not a per-call fix
    auto pkt = net::make_packet();
    pkt->type = net::PacketType::kAgfwHello;
    if (params_.pseudonym_policy.kind == PseudonymPolicy::Kind::kTimed &&
        rotated_once_ && now - last_rotation_ < params_.pseudonym_policy.rotate_interval) {
        // Timed policy: deliberately weak — keep announcing the current
        // pseudonym until it ages out (the linkable end of the frontier).
        pkt->hello_pseudonym = pseudonyms_.current();
    } else {
        pkt->hello_pseudonym = pseudonyms_.rotate();
        ++stats_.pseudonym_rotations;
        last_rotation_ = now;
        rotated_once_ = true;
        GEOANON_TRACE(node_.sim(), .type = obs::EventType::kPseudonymRotated,
                      .node = node_.id(), .detail = pkt->hello_pseudonym);
    }
    // geoanon-lint: allow(privacy-taint) -- §3.1: the hello's cleartext location IS the routable information; anonymity comes from the pseudonym, not from hiding position
    pkt->hello_loc = node_.position();
    // geoanon-lint: allow(privacy-taint) -- §3.1.1 motion hint, same by-design exposure as hello_loc
    if (params_.send_velocity_hint) pkt->hello_velocity = node_.velocity();
    pkt->hello_ts = node_.sim().now();

    SimTime cost = SimTime::zero();
    if (params_.authenticated_hello) {
        // Ring = self + k distinct others, randomly drawn from all valid
        // users (§3.1.2), shuffled so the signer's slot is not positional.
        const std::span<const crypto::NodeIdNum> users = engine_.valid_users();
        const std::size_t want = std::min(params_.ring_k, users.size() - 1);
        std::vector<crypto::NodeIdNum> ring;
        ring.reserve(want + 1);
        ring.push_back(node_.id());
        while (ring.size() < want + 1) {
            const auto pick = users[static_cast<std::size_t>(
                node_.rng().uniform_int(0, static_cast<std::int64_t>(users.size()) - 1))];
            if (std::find(ring.begin(), ring.end(), pick) == ring.end())
                ring.push_back(pick);
        }
        for (std::size_t i = ring.size(); i > 1; --i) {
            const auto j = static_cast<std::size_t>(
                node_.rng().uniform_int(0, static_cast<std::int64_t>(i) - 1));
            std::swap(ring[i - 1], ring[j]);
        }
        const auto msg = hello_signing_bytes(*pkt);
        pkt->auth = engine_.ring_sign_msg(node_.id(), ring, msg, node_.rng());
        // geoanon-lint: allow(privacy-taint) -- §3.1.2: the ring member list is the anonymity set and must be cleartext for verifiers; the signer hides among k+1 members
        pkt->ring_members = std::move(ring);
        cost = engine_.costs().ring_sign(pkt->ring_members.size());
    }

    pkt->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*pkt));

    charge(cost, [this, pkt] {
        ++stats_.hello_sent;
        stats_.control_bytes += pkt->wire_bytes;
        GEOANON_TRACE(node_.sim(), .type = obs::EventType::kHelloSent,
                      .node = node_.id(), .bytes = pkt->wire_bytes,
                      .detail = pkt->hello_pseudonym);
        node_.mac().send_broadcast(pkt);
    });
}

void AgfwAgent::handle_hello(const PacketPtr& pkt) {
    if (!params_.authenticated_hello || pkt->auth.empty()) {
        if (params_.authenticated_hello) {
            ++stats_.hello_rejected;  // unauthenticated hello in auth mode
            return;
        }
        admit_hello(pkt);
        return;
    }

    // §4 cert-by-reference: fetch (and thereafter cache) unknown certificates.
    std::size_t unknown = 0;
    for (const auto id : pkt->ring_members)
        if (known_certs_.insert(id).second) ++unknown;
    stats_.cert_fetches += unknown;
    stats_.control_bytes += unknown * engine_.certificate_bytes();

    const SimTime cost = engine_.costs().ring_verify(pkt->ring_members.size());
    charge(cost, [this, pkt] {
        const auto msg = hello_signing_bytes(*pkt);
        if (engine_.ring_verify_msg(pkt->ring_members, msg, pkt->auth)) {
            ++stats_.hello_verified;
            admit_hello(pkt);
        } else {
            ++stats_.hello_rejected;
        }
    });
}

void AgfwAgent::admit_hello(const PacketPtr& pkt) {
    AnonymousNeighborTable::Entry e;
    e.n = pkt->hello_pseudonym;
    e.loc = pkt->hello_loc;
    e.velocity = pkt->hello_velocity;
    e.ts = pkt->hello_ts;
    e.expires = node_.sim().now() + params_.ant.ttl;
    ant_.insert(e);
}

// ---------------------------------------------------------------------------
// AGFW data path
// ---------------------------------------------------------------------------

void AgfwAgent::send_data(NodeId dst, net::FlowId flow, std::uint32_t seq,
                          net::Bytes body) {
    if (!node_.up()) return;  // a crashed node originates nothing
    ++stats_.app_sent;
    auto proceed = [this, dst, flow, seq,
                    body = std::move(body)](std::optional<Vec2> loc) mutable {
        if (!loc) {
            ++stats_.drop_no_location;
            GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetDrop,
                          .cause = obs::DropCause::kNoLocation, .node = node_.id(),
                          .flow = flow, .seq = seq, .detail = dst);
            return;
        }
        // Trapdoor = E_{KU_d}(src, loc_s, tag_d) — §3.2.
        ByteWriter payload;
        payload.u64(node_.id());
        const Vec2 my_loc = node_.position();
        payload.f64(my_loc.x);
        payload.f64(my_loc.y);
        payload.u64(0x54524150444F4F52ULL);  // tag_d: "you are the destination"

        auto pkt = net::make_packet();
        pkt->type = net::PacketType::kAgfwData;
        pkt->flow = flow;
        pkt->seq = seq;
        pkt->created_at = node_.sim().now();
        pkt->uid = fresh_uid();
        pkt->dst_loc = *loc;
        pkt->trapdoor = engine_.make_trapdoor(dst, payload.data(), node_.rng());
        pkt->body = std::move(body);
        pkt->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*pkt));
        GEOANON_TRACE(node_.sim(), .type = obs::EventType::kAppSend, .node = node_.id(),
                      .uid = pkt->uid, .flow = pkt->flow, .seq = pkt->seq,
                      .bytes = pkt->wire_bytes);

        charge(engine_.costs().pk_encrypt, [this, pkt] {
            mark_seen(pkt->uid);
            if (!forward_with_recovery(pkt)) {
                if (in_last_hop_region(pkt->dst_loc)) {
                    last_attempt(pkt);
                } else {
                    ++stats_.drop_no_route;
                    GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetDrop,
                                  .cause = obs::DropCause::kNoRoute, .node = node_.id(),
                                  .uid = pkt->uid, .flow = pkt->flow, .seq = pkt->seq);
                }
            }
        });
    };

    if (ls_) {
        ls_->resolve(dst, std::move(proceed));
    } else {
        proceed(locate_(dst));
    }
}

void AgfwAgent::route_packet(std::shared_ptr<Packet> pkt) {
    if (!node_.up()) return;  // e.g. an LS retry timer firing while down
    PacketPtr p(std::move(pkt));
    // The originator may itself be the responsible server / requester.
    if (ls_ && ls_->handle(p)) return;
    mark_seen(p->uid);
    if (!forward_with_recovery(p)) {
        if (ls_ && ls_->handle_stuck(p)) return;
        ++stats_.drop_no_route;
        GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetDrop,
                      .cause = obs::DropCause::kNoRoute, .node = node_.id(),
                      .uid = p->uid);
    }
}

bool AgfwAgent::try_forward(const PacketPtr& pkt, std::vector<Pseudonym> exclude) {
    ant_.purge(node_.sim().now());
    for (Pseudonym n : active_blacklist()) exclude.push_back(n);
    // Never bounce a packet straight back to ourselves.
    exclude.push_back(pseudonyms_.current());
    exclude.push_back(pseudonyms_.previous());

    const auto next =
        ant_.best_next_hop(node_.position(), pkt->dst_loc, node_.sim().now(), exclude);
    if (!next) return false;

    auto copy = net::clone_packet(*pkt);
    copy->next_hop_pseudonym = next->n;
    copy->hops = static_cast<std::uint16_t>(pkt->hops + 1);
    // Greedy forwarding always leaves (or exits) perimeter mode.
    if (copy->perimeter_mode) {
        copy->perimeter_mode = false;
        copy->perimeter_hops = 0;
        copy->perimeter_entry = Vec2{};
        copy->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*copy));
    }
    ++stats_.forwarded;
    GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetForward, .node = node_.id(),
                  .uid = copy->uid, .flow = copy->flow, .seq = copy->seq,
                  .bytes = copy->wire_bytes, .detail = next->n);

    if (params_.use_net_ack) {
        register_pending(copy, next->n, node_.position(), /*was_perimeter=*/false);
    } else {
        broadcast_copy(copy, /*retransmission=*/false);
    }
    return true;
}

bool AgfwAgent::try_perimeter(const PacketPtr& pkt, const Vec2& came_from,
                              std::vector<Pseudonym> exclude) {
    if (!params_.enable_perimeter) return false;
    if (pkt->perimeter_hops >= kPerimeterHopLimit) {
        ++stats_.perimeter_ttl_drops;
        return false;
    }
    ant_.purge(node_.sim().now());
    for (Pseudonym n : active_blacklist()) exclude.push_back(n);
    exclude.push_back(pseudonyms_.current());
    exclude.push_back(pseudonyms_.previous());

    const Vec2 me = node_.position();
    // A pseudonym is only answered while it is one of the owner's two latest
    // (§3.1.1), i.e. for about two hello intervals. Unlike greedy — whose
    // staleness penalty steers away from old entries — the right-hand rule
    // has no freshness notion, so filter hard before planarizing.
    const SimTime now = node_.sim().now();
    const SimTime name_lifetime = params_.hello_interval * 2;
    std::vector<AnonymousNeighborTable::Entry> live;
    live.reserve(ant_.entries().size());
    for (const auto& e : ant_.entries())
        if (now - e.ts <= name_lifetime) live.push_back(e);

    const auto planar = rng_planarize(me, live);
    const auto next = right_hand_next(me, came_from, planar, exclude);
    if (!next) return false;

    auto copy = net::clone_packet(*pkt);
    if (!pkt->perimeter_mode) {
        ++stats_.perimeter_entries;
        copy->perimeter_mode = true;
        copy->perimeter_entry = me;
    }
    copy->prev_hop_loc = me;
    copy->perimeter_hops = static_cast<std::uint16_t>(pkt->perimeter_hops + 1);
    copy->hops = static_cast<std::uint16_t>(pkt->hops + 1);
    copy->next_hop_pseudonym = next->n;
    copy->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*copy));
    ++stats_.forwarded;
    ++stats_.perimeter_forwards;
    GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetForward, .node = node_.id(),
                  .uid = copy->uid, .flow = copy->flow, .seq = copy->seq,
                  .bytes = copy->wire_bytes, .detail = next->n);

    if (params_.use_net_ack) {
        register_pending(copy, next->n, came_from, /*was_perimeter=*/true);
    } else {
        broadcast_copy(copy, /*retransmission=*/false);
    }
    return true;
}

bool AgfwAgent::forward_with_recovery(const PacketPtr& pkt) {
    if (pkt->perimeter_mode) {
        // GPSR's recovery rule: return to greedy once we are strictly closer
        // to the destination than where the packet entered perimeter mode.
        const double here = util::distance(node_.position(), pkt->dst_loc);
        const double entry = util::distance(pkt->perimeter_entry, pkt->dst_loc);
        if (here < entry && try_forward(pkt)) {
            ++stats_.perimeter_recoveries;
            return true;
        }
        return try_perimeter(pkt, pkt->prev_hop_loc);
    }
    if (try_forward(pkt)) return true;
    // Enter perimeter mode using the line toward the destination as the
    // right-hand reference (GPSR's entry rule).
    return try_perimeter(pkt, pkt->dst_loc);
}

void AgfwAgent::register_pending(const std::shared_ptr<Packet>& copy, Pseudonym next,
                                 const Vec2& came_from, bool was_perimeter) {
    PendingAck pending;
    pending.copy = copy;
    pending.next_hop = next;
    pending.tried.push_back(next);
    pending.came_from = came_from;
    pending.was_perimeter = was_perimeter;
    // Keep reroute budget across re-chosen next hops for this uid.
    if (auto it = pending_.find(copy->uid); it != pending_.end()) {
        pending.reroutes = it->second.reroutes;
        pending.tried.insert(pending.tried.end(), it->second.tried.begin(),
                             it->second.tried.end());
        node_.sim().cancel(it->second.timer);
        pending_.erase(it);
    }
    pending_.emplace(copy->uid, std::move(pending));
    broadcast_copy(copy, /*retransmission=*/false);
    arm_ack_timer(copy->uid);
}

void AgfwAgent::broadcast_copy(const std::shared_ptr<Packet>& copy, bool retransmission) {
    if (retransmission) {
        ++stats_.retransmissions;
        GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetRetransmit,
                      .node = node_.id(), .uid = copy->uid, .flow = copy->flow,
                      .seq = copy->seq, .bytes = copy->wire_bytes);
    }
    stats_.data_bytes += copy->wire_bytes;
    node_.mac().send_broadcast(copy);
}

void AgfwAgent::arm_ack_timer(std::uint64_t uid) {
    auto it = pending_.find(uid);
    if (it == pending_.end()) return;
    // Optional exponential backoff: premature retransmissions under
    // contention feed the very collisions that delayed the ACK. Shares the
    // util::RetryPolicy schedule with LocationService reissues; doubling
    // from ack_timeout, capped at 16x, jitter-free (the MAC layer already
    // decorrelates broadcasts), which is bit-identical to the historical
    // shift-based schedule.
    const util::RetryPolicy::Params backoff{.initial = params_.ack_timeout,
                                            .multiplier = 2.0,
                                            .cap = params_.ack_timeout * 16,
                                            .jitter = 0.0};
    const SimTime timeout =
        params_.ack_backoff
            ? util::RetryPolicy::delay(backoff, it->second.attempts + 1, node_.rng())
            : params_.ack_timeout;
    it->second.timer =
        node_.sim().after(timeout, [this, uid] { on_ack_timeout(uid); });
}

void AgfwAgent::on_ack_timeout(std::uint64_t uid) {
    auto it = pending_.find(uid);
    if (it == pending_.end()) return;
    PendingAck& p = it->second;
    p.timer = sim::kInvalidEvent;

    if (p.attempts < params_.ack_retries) {
        ++p.attempts;
        broadcast_copy(p.copy, /*retransmission=*/true);
        arm_ack_timer(uid);
        return;
    }

    // This next hop is unreachable: blacklist it, drop its ANT entries, and
    // try an alternate neighbor (bounded).
    blacklist_[p.next_hop] = node_.sim().now() + kBlacklistTtl;
    ant_.erase(p.next_hop);
    if (p.reroutes < params_.reroute_limit) {
        ++p.reroutes;
        auto pkt = p.copy;
        const std::vector<Pseudonym> exclude = p.tried;
        const Vec2 came_from = p.came_from;
        const bool was_perimeter = p.was_perimeter;
        // try_forward()/try_perimeter() inherit reroutes/tried from the
        // surviving map entry via register_pending().
        if (try_forward(pkt, exclude)) return;
        if (try_perimeter(pkt, was_perimeter ? came_from : pkt->dst_loc, exclude)) return;
    }
    pending_.erase(uid);
    ++stats_.drop_unreachable;
    GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetDrop,
                  .cause = obs::DropCause::kUnreachable, .node = node_.id(),
                  .uid = uid);
}

void AgfwAgent::resolve_ack(std::uint64_t uid, bool implicit) {
    auto it = pending_.find(uid);
    if (it == pending_.end()) return;
    node_.sim().cancel(it->second.timer);
    pending_.erase(it);
    if (implicit)
        ++stats_.implicit_acks;
    else
        ++stats_.explicit_acks_received;
    GEOANON_TRACE(node_.sim(), .type = obs::EventType::kAckReceived, .node = node_.id(),
                  .uid = uid, .detail = implicit ? 1u : 0u);
}

void AgfwAgent::send_ack(std::uint64_t uid) {
    if (params_.ack_aggregation > SimTime::zero()) {
        // §3.2: batch several acknowledgments into one packet.
        ack_batch_.push_back(uid);
        if (ack_flush_event_ == sim::kInvalidEvent) {
            ack_flush_event_ = node_.sim().after(params_.ack_aggregation,
                                                 [this] { flush_ack_batch(); });
        }
        return;
    }
    ack_batch_.push_back(uid);
    flush_ack_batch();
}

void AgfwAgent::flush_ack_batch() {
    ack_flush_event_ = sim::kInvalidEvent;
    if (ack_batch_.empty()) return;
    auto ack = net::make_packet();
    ack->type = net::PacketType::kAgfwAck;
    ack->ack_uids = std::move(ack_batch_);
    ack_batch_.clear();
    ack->uid = fresh_uid();
    ack->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*ack));
    ++stats_.acks_sent;
    stats_.control_bytes += ack->wire_bytes;
    for (const std::uint64_t uid : ack->ack_uids) {
        GEOANON_TRACE(node_.sim(), .type = obs::EventType::kAckSent, .node = node_.id(),
                      .uid = uid, .bytes = ack->wire_bytes, .detail = ack->uid);
    }
    node_.mac().send_broadcast(std::move(ack));
}

void AgfwAgent::last_attempt(const PacketPtr& pkt) {
    auto copy = net::clone_packet(*pkt);
    copy->next_hop_pseudonym = crypto::kLastAttemptPseudonym;
    copy->hops = static_cast<std::uint16_t>(pkt->hops + 1);
    ++stats_.last_attempts;
    stats_.data_bytes += copy->wire_bytes;
    GEOANON_TRACE(node_.sim(), .type = obs::EventType::kLastAttempt, .node = node_.id(),
                  .uid = copy->uid, .flow = copy->flow, .seq = copy->seq,
                  .bytes = copy->wire_bytes);
    node_.mac().send_broadcast(std::move(copy));
}

void AgfwAgent::attempt_trapdoor(const PacketPtr& pkt, std::function<void(bool)> done) {
    ++stats_.trapdoor_attempts;
    GEOANON_TRACE(node_.sim(), .type = obs::EventType::kTrapdoorAttempt,
                  .node = node_.id(), .uid = pkt->uid, .flow = pkt->flow,
                  .seq = pkt->seq);
    charge(engine_.costs().pk_decrypt, [this, pkt, done = std::move(done)] {
        const auto payload = engine_.try_open_trapdoor(node_.id(), pkt->trapdoor);
        if (payload) {
            ++stats_.trapdoor_opens;
            GEOANON_TRACE(node_.sim(), .type = obs::EventType::kTrapdoorOpen,
                          .node = node_.id(), .uid = pkt->uid, .flow = pkt->flow,
                          .seq = pkt->seq);
        }
        done(payload.has_value());
    });
}

void AgfwAgent::deliver_local(const PacketPtr& pkt) {
    ++stats_.delivered;
    GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetDeliver, .node = node_.id(),
                  .uid = pkt->uid, .flow = pkt->flow, .seq = pkt->seq,
                  .bytes = pkt->wire_bytes);
    if (deliver_) deliver_(node_.id(), *pkt);
}

void AgfwAgent::on_packet(const PacketPtr& pkt, MacAddr /*src*/) {
    if (!node_.up()) return;  // radio gates this too; belt and braces
    switch (pkt->type) {
        case net::PacketType::kAgfwHello:
            handle_hello(pkt);
            return;
        case net::PacketType::kAgfwAck:
            for (std::uint64_t uid : pkt->ack_uids)
                resolve_ack(uid, /*implicit=*/false);
            return;
        case net::PacketType::kAgfwData:
            break;
        default:
            if (!net::is_location_service(pkt->type)) return;  // GPSR traffic: not ours
            break;
    }

    // Implicit/piggybacked ACK (§3.2): overhearing the next hop relaying the
    // same uid onward proves it took custody.
    if (params_.use_net_ack && !pseudonyms_.is_mine(pkt->next_hop_pseudonym) &&
        pending_.contains(pkt->uid)) {
        resolve_ack(pkt->uid, /*implicit=*/true);
    }

    if (pseudonyms_.is_mine(pkt->next_hop_pseudonym)) {
        handle_committed(pkt);
    } else if (pkt->next_hop_pseudonym == crypto::kLastAttemptPseudonym) {
        handle_last_attempt(pkt);
    }
    // Otherwise: committed to someone else — discard (Algorithm 3.2).
}

void AgfwAgent::handle_committed(const PacketPtr& pkt) {
    if (seen(pkt->uid)) {
        // We already processed this packet; our ACK (or forwarded copy) was
        // lost — re-acknowledge explicitly.
        if (params_.use_net_ack) send_ack(pkt->uid);
        return;
    }

    // Location-service packets ride the same anonymous forwarding.
    if (pkt->type != net::PacketType::kAgfwData) {
        mark_seen(pkt->uid);
        if (params_.use_net_ack) send_ack(pkt->uid);
        if (ls_ && ls_->handle(pkt)) return;
        if (!forward_with_recovery(pkt)) {
            if (ls_ && ls_->handle_stuck(pkt)) return;
            ++stats_.stop_no_route;
            GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetStuck,
                          .node = node_.id(), .uid = pkt->uid);
        }
        return;
    }

    // Algorithm 3.2, committed-forwarder branch.
    if (in_last_hop_region(pkt->dst_loc)) {
        mark_seen(pkt->uid);
        // Decrypting takes 8.5 ms — acknowledge custody first.
        if (params_.use_net_ack) send_ack(pkt->uid);
        attempt_trapdoor(pkt, [this, pkt](bool opened) {
            if (opened) {
                deliver_local(pkt);
            } else if (!try_forward(pkt)) {
                last_attempt(pkt);
            }
        });
        return;
    }

    if (forward_with_recovery(pkt)) {
        mark_seen(pkt->uid);
        // Piggybacked ACK: the forwarded broadcast we just queued doubles as
        // the acknowledgment the previous hop overhears.
        if (params_.use_net_ack && !params_.piggyback_acks) send_ack(pkt->uid);
    } else {
        // Stuck mid-path: do not ACK — the previous hop's timeout will pick
        // an alternate relay (its reroute budget is the recovery §6 defers).
        ++stats_.stop_no_route;
        GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetStuck,
                      .node = node_.id(), .uid = pkt->uid, .flow = pkt->flow,
                      .seq = pkt->seq);
    }
}

void AgfwAgent::handle_last_attempt(const PacketPtr& pkt) {
    if (seen(pkt->uid)) return;

    if (pkt->type != net::PacketType::kAgfwData) {
        // LS assist/replication copies: consume via the LS, never re-route.
        if (ls_) {
            mark_seen(pkt->uid);
            ls_->handle(pkt);
        }
        return;
    }

    mark_seen(pkt->uid);
    attempt_trapdoor(pkt, [this, pkt](bool opened) {
        if (opened) {
            if (params_.use_net_ack) send_ack(pkt->uid);
            deliver_local(pkt);
        }
        // else: discard (Algorithm 3.2).
    });
}

void AgfwAgent::on_mac_tx_done(const PacketPtr& /*pkt*/, MacAddr /*dst*/,
                               bool /*success*/) {
    // All AGFW transmissions are broadcasts; reliability lives at the
    // network layer (NL-ACK), so MAC completion carries no signal here.
}

}  // namespace geoanon::core
