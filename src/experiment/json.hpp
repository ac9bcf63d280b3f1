#pragma once

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

/// Serialize a ScenarioResult: {"metrics": {counters, gauges, histograms},
/// "series": {...}, "events_processed", "peak_queue_depth"}. With
/// `include_perf`, the host-side perf block (wall-clock, events/sec) is
/// appended; leave it off when comparing runs for equality or emitting
/// byte-stable sweep trajectories.
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
