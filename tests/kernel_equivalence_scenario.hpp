#pragma once

// The scenario test_kernel_equivalence runs on both event kernels. It is
// compiled into two executables that differ only in the kernel they link:
// kernel_equivalence_wheel (the product's timer wheel) prints the result
// JSON, and test_kernel_equivalence (reference/heap_kernel.cpp linked in
// place of the wheel) compares its own run against that output.

#include <string>

#include "experiment/json.hpp"
#include "workload/scenario.hpp"

namespace geoanon::kernel_equivalence {

inline workload::ScenarioConfig small_config(workload::Scheme scheme) {
    workload::ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.seed = 42;
    cfg.num_nodes = 25;
    cfg.num_flows = 6;
    cfg.num_senders = 5;
    cfg.sim_seconds = 40.0;
    cfg.traffic_stop_s = 35.0;
    return cfg;
}

/// Result JSON of small_config(scheme), perf excluded (it is wall-clock).
inline std::string result_json(workload::Scheme scheme) {
    workload::ScenarioRunner runner(small_config(scheme));
    return experiment::result_to_json(runner.run(), /*include_perf=*/false);
}

}  // namespace geoanon::kernel_equivalence
