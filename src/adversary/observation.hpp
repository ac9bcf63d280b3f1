#pragma once

#include <cstdint>
#include <vector>

#include "net/types.hpp"
#include "phy/channel.hpp"
#include "util/vec2.hpp"

namespace geoanon::adversary {

/// One snooped hello beacon, compacted for offline analysis. The attack-
/// visible part is (time, transmit position, handle); the true sender id is
/// carried alongside strictly for scoring the attack's output against
/// ground truth and must never influence a linking decision (GL010 guards
/// the linker entry point).
struct Observation {
    double t_s{0.0};
    util::Vec2 pos{};
    /// Linking handle: the AGFW hello pseudonym, or a cleartext GPSR beacon
    /// identity folded into a disjoint handle space (a stable identity is
    /// just a pseudonym that never rotates).
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

/// The offline linking/trajectory attack's recorder: one audit tap on the
/// channel that appends an Observation for every hello frame on the air and
/// records nothing else.
class ObservationFeed {
  public:
    explicit ObservationFeed(phy::Channel& channel);

    const std::vector<Observation>& observations() const { return observations_; }

  private:
    std::vector<Observation> observations_;
};

}  // namespace geoanon::adversary
