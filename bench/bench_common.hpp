#pragma once

// Shared helpers for the figure/table reproduction benches.
//
// Every sweep bench accepts the unified flags:
//   --jobs=N      - run N scenario workers in parallel (results are merged
//                   in spec order, so output is byte-identical for any N)
//   --json=PATH   - also emit the sweep as the common BENCH_*.json schema
//   --perf        - include wall-clock/events-per-sec in the JSON (breaks
//                   byte-identity across machines; off by default)
//   --trace-dir=D - record every run with the flight recorder and write one
//                   Chrome trace (Perfetto-loadable) per run into D
//   --trace       - shorthand for --trace-dir=traces
//
// Runtime knobs (environment):
//   GEOANON_FULL=1           - run the paper's full 900 s simulations
//   GEOANON_SIM_SECONDS=<s>  - override simulated seconds explicitly
//   GEOANON_SEEDS=<n>        - number of independent seeds to average

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "experiment/json.hpp"
#include "experiment/sweep.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/scenario.hpp"

namespace geoanon::bench {

// geoanon-lint: begin-allow(ambient-env) -- bench run-length knobs (horizon, seed count), documented in README; never read by the simulator
inline double sim_seconds(double dflt) {
    if (const char* s = std::getenv("GEOANON_SIM_SECONDS")) return std::atof(s);
    if (std::getenv("GEOANON_FULL")) return 900.0;
    return dflt;
}

inline int seed_count(int dflt) {
    if (const char* s = std::getenv("GEOANON_SEEDS")) return std::atoi(s);
    return dflt;
}
// geoanon-lint: end-allow(ambient-env)

/// Configure the paper's §5.1 scenario at a given density and horizon.
inline workload::ScenarioConfig paper_scenario(workload::Scheme scheme,
                                               std::size_t num_nodes, double seconds,
                                               std::uint64_t seed) {
    workload::ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.num_nodes = num_nodes;
    cfg.sim_seconds = seconds;
    cfg.traffic_stop_s = seconds - 20.0;
    cfg.seed = seed;
    // Benches measure the protocol, not the checker; keep timing comparable
    // to the pre-checker numbers.
    cfg.check_invariants = false;
    return cfg;
}

inline std::size_t jobs_arg(const util::CliArgs& args) {
    return static_cast<std::size_t>(args.get("jobs", std::int64_t{1}));
}

/// Execute a sweep with the unified --jobs / --trace flags.
inline std::vector<experiment::PointRecord> run_sweep(const experiment::SweepSpec& spec,
                                                      const util::CliArgs& args) {
    experiment::SweepRunner::Options opt;
    opt.jobs = jobs_arg(args);
    if (args.has("trace-dir")) {
        opt.trace_dir = args.get("trace-dir", std::string{});
        if (opt.trace_dir.empty() || opt.trace_dir == "true") opt.trace_dir = "traces";
    } else if (args.get("trace", false)) {
        opt.trace_dir = "traces";
    }
    if (!opt.trace_dir.empty())
        std::printf("tracing every run into %s/\n", opt.trace_dir.c_str());
    return experiment::SweepRunner(spec, opt).run();
}

/// Honor --json=PATH (and --perf) by writing the common sweep schema.
inline void maybe_write_json(const util::CliArgs& args, const std::string& bench_name,
                             const experiment::SweepSpec& spec,
                             const std::vector<experiment::PointRecord>& points) {
    if (!args.has("json")) return;
    const std::string path = args.get("json", std::string{});
    const bool perf = args.get("perf", false);
    if (experiment::write_text_file(
            path, experiment::sweep_to_json(bench_name, spec, points, perf)))
        std::printf("\nwrote %s\n", path.c_str());
}

inline void print_banner(const char* title, double seconds, int seeds) {
    std::printf("%s\n", title);
    std::printf("setup: 1500x300 m, radio 250 m, RWP <=20 m/s pause 60 s, "
                "30 CBR flows / 20 senders, %.0f s sim, %d seed(s)\n",
                seconds, seeds);
    std::printf("(set GEOANON_FULL=1 for the paper's full 900 s runs)\n\n");
}

}  // namespace geoanon::bench
