#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "experiment/sweep.hpp"
#include "util/json.hpp"
#include "workload/scenario.hpp"

namespace geoanon::experiment {

// The emitter moved to util/json.hpp so the obs exporters can share it;
// re-exported here for existing callers.
using util::JsonWriter;
using util::write_text_file;

/// One key of the result's top-level, "ls" and "resilience" sections and the
/// registry value it prints: counter `name` plus counter `name2` (kCounter),
/// counter `name` / counter `name2` or 0 (kRatio), or the sum / count,
/// sample count, median or 95th percentile of histogram `name`.
struct ResultKey {
    enum class Read : std::uint8_t { kCounter, kRatio, kAverage, kCount, kP50, kP95 };
    const char* section;  ///< "" for the top level
    const char* key;
    Read read;
    const char* name;
    const char* name2{nullptr};
};

/// The table result_to_json walks, in output order.
std::span<const ResultKey> result_keys();

/// Serialize every deterministic field of a ScenarioResult. With
/// `include_perf`, the host-side perf block (wall-clock, events/sec, peak
/// queue depth) is appended; leave it off when comparing runs for equality
/// or emitting byte-stable sweep trajectories.
void result_to_json(JsonWriter& w, const workload::ScenarioResult& r, bool include_perf);
std::string result_to_json(const workload::ScenarioResult& r, bool include_perf = false);

/// The common BENCH_*.json schema shared by all SweepRunner benches:
/// { "bench": ..., "axes": [{name, values, labels}...], "seeds_per_point",
///   "seed_base", "points": [{point, coords:{axis: value...},
///   labels:{axis: label...}, runs: [{seed, result}...]}...] }
std::string sweep_to_json(const std::string& bench_name, const SweepSpec& spec,
                          const std::vector<PointRecord>& points,
                          bool include_perf = false);

}  // namespace geoanon::experiment
