#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "net/packet.hpp"
#include "net/types.hpp"
#include "phy/channel.hpp"

namespace geoanon::obs {
class MetricsRegistry;
}

namespace geoanon::adversary {

/// Passive global eavesdropper implementing the paper's threat model (§2):
/// it observes every transmission (with the transmitter's position — a
/// sniffer near the sender learns as much), reads all cleartext header
/// fields, and tries to link *identities* to *locations*.
///
/// Identity handles it can exploit:
///  - cleartext node ids in GPSR hellos/data and plain-DLM messages;
///  - persistent MAC addresses (a stable handle == an identity);
///  - §3.2's correlation attack: consecutive hops of one packet share the
///    trapdoor (modeled by uid), so a frame carrying a real MAC address that
///    relays a packet previously addressed to pseudonym n binds n to that
///    MAC — and thereafter every hello under n localizes that MAC's owner.
///
/// Against full AGFW (anonymous MAC + pseudonyms) none of these fire, which
/// is exactly §4's claim; the published counters quantify it.
///
/// It registers its own regular snoop tap, whose signature carries no
/// sender id; it scores a MAC address it saw through net::node_of_mac.
class Eavesdropper {
  public:
    Eavesdropper(phy::Channel& channel, std::size_t node_count);

    /// §3.3's stated exposure risk for the indexed ALS: "the index part
    /// E_{K_B}(A,B) is a fixed block of data, a sophisticated attacker may
    /// find a matching identity ... by collecting enough certificates or
    /// computing it exhaustively". Install the attacker's precomputed
    /// dictionary: hex(index) -> (updater A, requester B). Observed LREQ
    /// indices that match reveal *who queries whom* (not locations).
    void set_index_dictionary(
        std::unordered_map<std::string, std::pair<net::NodeId, net::NodeId>> dict) {
        index_dictionary_ = std::move(dict);
    }

    /// Publish what the run [0, total_seconds] exposed:
    ///  - eav.identity_sightings: an identity handle tied to a location;
    ///  - eav.pseudonym_sightings: only an unlinkable pseudonym exposed;
    ///  - eav.mac_pseudonym_links: §3.2 pseudonym->MAC bindings;
    ///  - eav.nodes_ever_localized;
    ///  - eav.index_linkages: §3.3 index-dictionary matches on observed ALS
    ///    queries, each revealing an (updater, requester) relationship;
    ///  - eav.relationship_pairs_learned;
    ///  - gauge eav.mean_tracking_coverage: mean over nodes of (windows with
    ///    an identity-linked sighting) / (total windows), i.e. "how
    ///    continuously can I track people".
    void publish_metrics(obs::MetricsRegistry& reg, double total_seconds) const;

  private:
    void observe(const phy::Frame& frame, double t_seconds);
    void identity_sighting(net::NodeId victim, double t_seconds);

    std::size_t node_count_;

    std::uint64_t identity_sightings_{0};
    std::uint64_t pseudonym_sightings_{0};
    std::uint64_t mac_pseudonym_links_{0};

    /// victim -> windows in which the adversary localized it.
    std::unordered_map<net::NodeId, std::set<std::int64_t>> windows_;
    /// §3.2 correlation state: packet uid -> pseudonym it was addressed to.
    std::unordered_map<std::uint64_t, std::uint64_t> uid_to_pseudonym_;
    /// pseudonyms bound to a real MAC address (identity handle).
    std::unordered_map<std::uint64_t, net::MacAddr> pseudonym_to_mac_;
    /// §3.3 index dictionary and the relationships it has revealed.
    std::unordered_map<std::string, std::pair<net::NodeId, net::NodeId>> index_dictionary_;
    std::uint64_t index_linkages_{0};
    std::set<std::pair<net::NodeId, net::NodeId>> relationships_;
};

}  // namespace geoanon::adversary
