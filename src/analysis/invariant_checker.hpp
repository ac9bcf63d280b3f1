#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "net/network.hpp"
#include "phy/channel.hpp"
#include "util/time.hpp"

namespace geoanon::obs {
class MetricsRegistry;
}

namespace geoanon::analysis {

/// Runtime checker for the paper-level protocol invariants (§3–§4), hooked
/// into the simulator as a passive channel tap plus a periodic state sweep.
/// It never mutates protocol state, so enabling it cannot change a run's
/// outcome — only observe it.
///
/// Checked on every transmission:
///  - anonymity (§3.2/§4): no cleartext node identity rides an anonymous
///    frame outside the trapdoor, and no real MAC address is exposed;
///  - addressing (§3.1.1): a committed next-hop pseudonym was actually
///    announced in a hello within the ANT freshness window (and, softly,
///    still is one of the owner's two latest — rotation races are counted
///    separately, not as violations, because a sender may legitimately pick
///    a pre-rotation table entry);
///  - reliability (§3.2): a network-layer ACK only acknowledges uids that
///    were previously transmitted as data;
///  - wire discipline: every packet re-encodes through the reference codec
///    and the canonical encoding never exceeds the accounted wire size.
///
/// Checked on every sweep: ANT entries expire within the freshness window
/// and expired entries do not outlive a purge cycle.
///
/// Violations are structured counters (not assertions) so tests can demand
/// `counters().violations() == 0` while ablation experiments — which break
/// anonymity on purpose — can assert the checker *sees* the breakage.
class InvariantChecker {
  public:
    struct Params {
        /// The run is an anonymous-routing (AGFW) run: identities and
        /// pseudonym discipline are enforced. False for GPSR baselines,
        /// where only the wire-discipline checks apply.
        bool expect_anonymous{true};
        /// §3.2: broadcast frames hide the transmitter MAC. Matches
        /// ScenarioConfig::anonymous_mac (ablations turn it off).
        bool expect_anonymous_mac{true};
        /// Location-service packets must use the anonymous row format
        /// (false when the plain-DLM ablation is configured).
        bool expect_anonymous_ls{true};
        /// ANT freshness window (AnonymousNeighborTable::Params::ttl).
        util::SimTime ant_ttl{util::SimTime::seconds(4.5)};
        /// Hello/purge cadence; bounds how long an expired entry may linger.
        util::SimTime hello_interval{util::SimTime::seconds(1.5)};
    };

    struct Counters {
        // --- volume (context for the violation rates) --------------------
        std::uint64_t frames_checked{0};
        std::uint64_t packets_checked{0};
        std::uint64_t ant_entries_checked{0};
        std::uint64_t sweeps{0};

        // --- violations ---------------------------------------------------
        /// Cleartext node identity on an anonymous frame (src, dst, or
        /// location-service subject outside the encrypted row).
        std::uint64_t cleartext_identity{0};
        /// Real (non-broadcast) MAC address on a frame in anonymous mode.
        std::uint64_t mac_address_exposed{0};
        /// AGFW data frame with an empty trapdoor.
        std::uint64_t missing_trapdoor{0};
        /// Committed next-hop pseudonym never announced in any hello.
        std::uint64_t unknown_pseudonym{0};
        /// Committed next-hop pseudonym older than the ANT freshness window.
        std::uint64_t stale_pseudonym_target{0};
        /// ANT entry promising to outlive the freshness window.
        std::uint64_t overlong_ant_ttl{0};
        /// Expired ANT entry that survived past a purge cycle.
        std::uint64_t stale_ant_entry{0};
        /// ACK naming a uid that never travelled as data.
        std::uint64_t ack_without_delivery{0};
        /// Observed packet the reference codec rejects.
        std::uint64_t codec_reject{0};
        /// Canonical encoding larger than the accounted wire size.
        std::uint64_t wire_size_mismatch{0};

        // --- informational (not violations) ------------------------------
        /// Target pseudonym announced in-window but no longer one of the
        /// owner's two latest (legitimate rotation race, §3.1.1).
        std::uint64_t rotated_out_targets{0};
        /// §3.2 "last forwarding attempt" frames (pseudonym 0).
        std::uint64_t last_attempt_frames{0};
        /// §3.3 heterogeneous-fallback requests/replies naming a (public)
        /// subject id in the clear — the designed privacy/robustness trade,
        /// not a leak. Updates are different: see cleartext_identity.
        std::uint64_t plain_ls_fallbacks{0};

        /// Sum of all violation counters.
        std::uint64_t violations() const {
            return cleartext_identity + mac_address_exposed + missing_trapdoor +
                   unknown_pseudonym + stale_pseudonym_target + overlong_ant_ttl +
                   stale_ant_entry + ack_without_delivery + codec_reject +
                   wire_size_mismatch;
        }
    };

    InvariantChecker(net::Network& network, Params params);

    /// Install the channel tap and schedule the periodic sweep. Call once,
    /// before the simulation runs.
    void attach();

    const Counters& counters() const { return counters_; }
    /// Publish every counter as inv.<field>.
    void publish_metrics(obs::MetricsRegistry& reg) const;

  private:
    struct Announce {
        net::NodeId owner{net::kInvalidNode};
        util::SimTime at{};
    };

    void on_frame(const phy::Frame& frame);
    void check_packet(const net::Packet& pkt);
    void check_pseudonym_target(const net::Packet& pkt);
    void record_hello(const net::Packet& pkt);
    void sweep();

    net::Network& network_;
    Params params_;
    Counters counters_;
    bool attached_{false};

    /// pseudonym -> who announced it, and when (latest announce wins).
    std::unordered_map<std::uint64_t, Announce> announced_;
    /// uids observed on the air as data/location-service packets.
    std::unordered_set<std::uint64_t> data_uids_;
};

}  // namespace geoanon::analysis
