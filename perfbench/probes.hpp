#pragma once

// Layer probes: small harnesses that drive one layer's public API at a
// workload's size and report host nanoseconds per unit of that layer's work.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "mobility/mobility.hpp"
#include "phy/channel.hpp"

namespace perfbench {

/// Event-kernel churn: `timers` self-rescheduling timers (the workload's
/// peak pending count) until at least `min_events` have fired.
double kernel_ns_per_event(std::size_t timers, std::uint64_t min_events);

/// Bare Channel (no MAC, no routing): `nodes` random-waypoint radios in
/// `area`, each beaconing at 1 Hz, until at least `min_tx` transmissions.
struct ChannelProbe {
    double ns_per_tx{0.0};
    std::uint64_t transmissions{0};
    std::uint64_t deliveries{0};
};
ChannelProbe channel_probe(std::size_t nodes, const geoanon::mobility::Area& area,
                           const geoanon::mobility::RandomWaypoint::Params& rwp,
                           const geoanon::phy::PhyParams& phy, std::uint64_t min_tx);

/// RandomWaypoint position queries for `nodes` models, stepping time forward
/// in 100 ms ticks, until at least `min_queries` have been answered.
double mobility_ns_per_position(std::size_t nodes, const geoanon::mobility::Area& area,
                                const geoanon::mobility::RandomWaypoint::Params& rwp,
                                std::uint64_t min_queries);

/// ns per call of each public CryptoEngine operation the workloads make,
/// timed on a ModeledCryptoEngine (SHA-256 keystream work), keyed by the
/// operation's name.
std::map<std::string, double> crypto_ns_per_call(std::size_t calls_per_op);

/// Wire bytes of one anonymous ALS update row (index + encrypted payload)
/// and of an update packet carrying no rows, as the codec sizes them; used
/// to turn ls.update_bytes into the number of encrypt_for calls.
struct AlsUpdateSizes {
    std::uint64_t empty_bytes{0};
    std::uint64_t row_bytes{0};
};
AlsUpdateSizes als_update_sizes();

}  // namespace perfbench
