#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "net/network.hpp"
#include "obs/counters.hpp"
#include "phy/channel.hpp"
#include "util/time.hpp"

namespace geoanon::analysis {

/// Runtime checker for the paper-level protocol invariants (§3–§4), hooked
/// into the simulator as a passive audit tap (it reads each frame's true
/// sender to attribute hellos) plus a periodic state sweep.
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
///    and the canonical encoding is exactly the accounted wire size.
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

    /// The checker's counters in field order, as three sub-lists: volume
    /// (context for the violation rates), violations, and informational
    /// counts that are not violations. Counters::violations() and
    /// ScenarioResult::invariant_violations() both sum the violations list.
#define GEOANON_INV_VOLUME(X)                         \
    X(frames_checked, "inv.frames_checked")           \
    X(packets_checked, "inv.packets_checked")         \
    X(ant_entries_checked, "inv.ant_entries_checked") \
    X(sweeps, "inv.sweeps")
#define GEOANON_INV_VIOLATIONS(X)                                           \
    /* Cleartext node identity on an anonymous frame (src, dst, or */       \
    /* location-service subject outside the encrypted row). */              \
    X(cleartext_identity, "inv.cleartext_identity")                         \
    /* Real (non-broadcast) MAC address on a frame in anonymous mode. */    \
    X(mac_address_exposed, "inv.mac_address_exposed")                       \
    /* AGFW data frame with an empty trapdoor. */                           \
    X(missing_trapdoor, "inv.missing_trapdoor")                             \
    /* Committed next-hop pseudonym never announced in any hello. */        \
    X(unknown_pseudonym, "inv.unknown_pseudonym")                           \
    /* Committed next-hop pseudonym older than the ANT freshness window. */ \
    X(stale_pseudonym_target, "inv.stale_pseudonym_target")                 \
    /* ANT entry promising to outlive the freshness window. */              \
    X(overlong_ant_ttl, "inv.overlong_ant_ttl")                             \
    /* Expired ANT entry that survived past a purge cycle. */               \
    X(stale_ant_entry, "inv.stale_ant_entry")                               \
    /* ACK naming a uid that never travelled as data. */                    \
    X(ack_without_delivery, "inv.ack_without_delivery")                     \
    /* Observed packet the reference codec rejects. */                      \
    X(codec_reject, "inv.codec_reject")                                     \
    /* Canonical encoding size differs from the accounted wire size. */     \
    X(wire_size_mismatch, "inv.wire_size_mismatch")
#define GEOANON_INV_INFO(X)                                                \
    /* Target pseudonym announced in-window but no longer one of the */    \
    /* owner's two latest (legitimate rotation race, §3.1.1). */           \
    X(rotated_out_targets, "inv.rotated_out_targets")                      \
    /* §3.2 "last forwarding attempt" frames (pseudonym 0). */             \
    X(last_attempt_frames, "inv.last_attempt_frames")                      \
    /* §3.3 heterogeneous-fallback requests/replies naming a (public) */   \
    /* subject id in the clear — the designed privacy/robustness trade, */ \
    /* not a leak. Updates are different: see cleartext_identity. */       \
    X(plain_ls_fallbacks, "inv.plain_ls_fallbacks")
#define GEOANON_INV_COUNTERS(X) \
    GEOANON_INV_VOLUME(X) GEOANON_INV_VIOLATIONS(X) GEOANON_INV_INFO(X)
#define GEOANON_INV_PLUS(field, name) +(field)
    struct Counters {
        GEOANON_COUNTERS(GEOANON_INV_COUNTERS)

        /// Sum of all violation counters.
        std::uint64_t violations() const { return 0 GEOANON_INV_VIOLATIONS(GEOANON_INV_PLUS); }
    };
#undef GEOANON_INV_PLUS

    InvariantChecker(net::Network& network, Params params);

    /// Install the channel tap and schedule the periodic sweep. Call once,
    /// before the simulation runs.
    void attach();

    const Counters& counters() const { return counters_; }

  private:
    struct Announce {
        net::NodeId owner{net::kInvalidNode};
        util::SimTime at{};
    };

    void on_frame(const phy::Frame& frame, net::NodeId true_sender);
    void check_packet(const net::Packet& pkt, net::NodeId true_sender);
    void check_pseudonym_target(const net::Packet& pkt);
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
