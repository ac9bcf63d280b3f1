#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace geoanon::obs {

/// Run identity stamped into the trace header ("otherData") so a trace file
/// is self-describing when it lands in Perfetto or trace_query.
struct TraceMeta {
    std::string scheme;  ///< "agfw" / "gpsr" / ...
    std::uint64_t seed{0};
    std::uint32_t num_nodes{0};
    double sim_seconds{0.0};
    std::uint64_t evicted{0};  ///< events lost to ring eviction
};

/// Serialize events (already in id order) as Chrome trace-event JSON —
/// loadable in Perfetto / chrome://tracing. Instant events (ph "i"), ts in
/// microseconds, pid 0, tid = node id (-1 for unattributed events). All
/// numbers use JsonWriter's fixed formatting: same events in, same bytes out.
// geoanon: sink(trace)
std::string to_chrome_trace_json(const std::vector<Event>& events, const TraceMeta& meta);

}  // namespace geoanon::obs
