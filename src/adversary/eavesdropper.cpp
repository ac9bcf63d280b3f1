#include "adversary/eavesdropper.hpp"

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"
#include "util/bytes.hpp"

namespace geoanon::adversary {

namespace {

/// Tracking-coverage bucket size.
constexpr double kWindowSeconds = 10.0;

}  // namespace

Eavesdropper::Eavesdropper(phy::Channel& channel, std::size_t node_count)
    : node_count_(node_count) {
    channel.add_snoop([this, &channel](const phy::Frame& f, const util::Vec2& /*pos*/) {
        observe(f, channel.simulator().now().to_seconds());
    });
}

void Eavesdropper::identity_sighting(net::NodeId victim, double t_seconds) {
    ++identity_sightings_;
    windows_[victim].insert(static_cast<std::int64_t>(t_seconds / kWindowSeconds));
}

void Eavesdropper::observe(const phy::Frame& frame, double t) {
    const bool has_real_src = frame.src != net::kBroadcastAddr;

    // A frame with a persistent source MAC localizes its owner outright.
    if (has_real_src) identity_sighting(net::node_of_mac(frame.src), t);

    if (frame.type != phy::Frame::Type::kData || !frame.payload) return;
    const net::Packet& pkt = *frame.payload;

    switch (pkt.type) {
        case net::PacketType::kGpsrHello:
            identity_sighting(pkt.src_id, t);
            break;
        case net::PacketType::kGpsrData:
            // Cleartext (src, dst) identities ride every GPSR data packet;
            // the sender is at the transmit position, linkable immediately.
            identity_sighting(pkt.src_id, t);
            break;
        case net::PacketType::kAgfwHello: {
            // Pseudonym + location: unlinkable unless this pseudonym was
            // previously bound to a MAC via the §3.2 correlation attack.
            auto it = pseudonym_to_mac_.find(pkt.hello_pseudonym);
            if (it != pseudonym_to_mac_.end()) {
                identity_sighting(net::node_of_mac(it->second), t);
            } else {
                ++pseudonym_sightings_;
            }
            break;
        }
        case net::PacketType::kAgfwData: {
            // §3.2 attack: this uid was previously addressed to pseudonym n;
            // whoever relays it now owned n. Works only when the relay leaks
            // a real MAC source address.
            auto prev = uid_to_pseudonym_.find(pkt.uid);
            if (prev != uid_to_pseudonym_.end() && has_real_src &&
                !pseudonym_to_mac_.contains(prev->second)) {
                pseudonym_to_mac_[prev->second] = frame.src;
                ++mac_pseudonym_links_;
            }
            if (pkt.next_hop_pseudonym != 0)
                uid_to_pseudonym_[pkt.uid] = pkt.next_hop_pseudonym;
            ++pseudonym_sightings_;
            break;
        }
        case net::PacketType::kLocUpdate:
        case net::PacketType::kLocRequest:
        case net::PacketType::kLocReply:
            // Plain DLM exposes identity+location pairs; ALS does not.
            // Updates/replies carry (subject id, subject location) together;
            // plain requests tie the requester id to the transmit position.
            // A bare subject id in a request (the heterogeneous fallback)
            // reveals interest in a node but attaches no location.
            if (pkt.type != net::PacketType::kLocRequest &&
                pkt.ls_subject != net::kInvalidNode)
                identity_sighting(pkt.ls_subject, t);
            if (pkt.src_id != net::kInvalidNode) identity_sighting(pkt.src_id, t);
            // §3.3 dictionary attack on the fixed indexed-ALS row index.
            if (!pkt.ls_index.empty() && !index_dictionary_.empty()) {
                auto hit = index_dictionary_.find(util::to_hex(pkt.ls_index));
                if (hit != index_dictionary_.end()) {
                    ++index_linkages_;
                    relationships_.insert(hit->second);
                }
            }
            break;
        default:
            break;
    }
}

void Eavesdropper::publish_metrics(obs::MetricsRegistry& reg, double total_seconds) const {
    const double total_windows = std::max(1.0, total_seconds / kWindowSeconds);
    // Summation order must not follow hash layout: float addition is not
    // associative, and mean_tracking_coverage lands in result JSON.
    std::vector<std::size_t> window_counts;
    window_counts.reserve(windows_.size());
    // geoanon-lint: allow(unordered-iter) -- order erased by the sort below
    for (const auto& [node, wins] : windows_)
        window_counts.push_back(wins.size());
    std::sort(window_counts.begin(), window_counts.end());
    double coverage_sum = 0.0;
    for (const std::size_t wins : window_counts)
        coverage_sum += static_cast<double>(wins) / total_windows;

    reg.add("eav.identity_sightings", identity_sightings_);
    reg.add("eav.pseudonym_sightings", pseudonym_sightings_);
    reg.add("eav.mac_pseudonym_links", mac_pseudonym_links_);
    reg.add("eav.nodes_ever_localized", windows_.size());
    reg.add("eav.index_linkages", index_linkages_);
    reg.add("eav.relationship_pairs_learned", relationships_.size());
    reg.set_gauge("eav.mean_tracking_coverage",
                  node_count_ > 0 ? coverage_sum / static_cast<double>(node_count_) : 0.0);
}

}  // namespace geoanon::adversary
