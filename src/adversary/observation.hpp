#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "net/types.hpp"
#include "phy/channel.hpp"
#include "util/vec2.hpp"

namespace geoanon::adversary {

/// What kind of handle a recorded transmission exposed to the observer.
enum class ObservationKind : std::uint8_t {
    kHello,  ///< beacon with a linkable handle (pseudonym or cleartext id)
    kData,   ///< payload-bearing frame (position only, no sender handle)
    kOther,  ///< control frames (RTS/CTS/MAC-ACK), ALS traffic, etc.
};

/// One snooped transmission, compacted for offline analysis. The attack-
/// visible part is (time, transmit position, handle); the true sender id is
/// carried alongside strictly for scoring the attack's output against
/// ground truth and must never influence a linking decision (GL010 guards
/// the linker entry point).
struct Observation {
    double t_s{0.0};
    util::Vec2 pos{};
    ObservationKind kind{ObservationKind::kOther};
    /// Linking handle for kHello observations: the AGFW hello pseudonym, or
    /// a cleartext GPSR beacon identity folded into a disjoint handle space
    /// (a stable identity is just a pseudonym that never rotates). 0 for
    /// non-hello observations.
    std::uint64_t handle{0};
    // geoanon: source(node-id)
    net::NodeId true_sender{net::kInvalidNode};  ///< ground truth; scoring only
};

/// Cleartext identities share the handle space with pseudonyms via a high
/// tag bit (CryptoEngine pseudonyms are full-width hash outputs, but the
/// tag keeps the two families disjoint by construction).
inline std::uint64_t identity_handle(net::NodeId id) {
    return (1ULL << 62) | static_cast<std::uint64_t>(id);
}

/// The single snoop-registration path for every adversary component: one
/// audit tap on the channel fans out to frame subscribers (the legacy
/// Eavesdropper) and, when recording is on, appends a compact Observation
/// per transmission for the offline linking/trajectory attack.
///
/// Also owns the shared ground-truth MAC→NodeId mapping (scoring only).
class ObservationFeed {
  public:
    struct Params {
        /// Keep the per-transmission Observation log (required by
        /// run_attack). Off = dispatch-only feed.
        bool record{true};
    };

    using GroundTruthFn = std::function<net::NodeId(net::MacAddr)>;
    /// Subscriber: (frame, transmit position, time in seconds).
    using FrameFn = std::function<void(const phy::Frame&, const util::Vec2&, double)>;

    ObservationFeed(phy::Channel& channel, GroundTruthFn mac_owner, Params params);
    ObservationFeed(phy::Channel& channel, GroundTruthFn mac_owner)
        : ObservationFeed(channel, std::move(mac_owner), Params{}) {}

    /// Register an online frame consumer. Subscribers run in registration
    /// order, after the observation (if any) is recorded.
    void subscribe(FrameFn fn) { subscribers_.push_back(std::move(fn)); }

    /// Ground truth for scoring: the node that owns a (persistent) MAC
    /// address. Never available to attack passes.
    // geoanon: source(node-id)
    net::NodeId mac_owner(net::MacAddr mac) const { return ground_truth_(mac); }

    const std::vector<Observation>& observations() const { return observations_; }
    std::uint64_t frames_seen() const { return frames_seen_; }

  private:
    void on_frame(const phy::Frame& frame, const util::Vec2& pos,
                  net::NodeId true_sender, double t_s);

    Params params_;
    GroundTruthFn ground_truth_;
    std::vector<FrameFn> subscribers_;
    std::vector<Observation> observations_;
    std::uint64_t frames_seen_{0};
};

}  // namespace geoanon::adversary
