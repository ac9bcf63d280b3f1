// density_sweep — reproduce the paper's density experiment at your own scale.
//
// Sweeps network density for any subset of the three schemes and prints
// delivery fraction, latency and the MAC-level causes behind them (RTS/CTS
// retries for GPSR, NL-ACK retransmissions for AGFW). The sweep is a
// declarative SweepSpec executed by SweepRunner, so --jobs=N fans the runs
// out over N threads with byte-identical output to a serial run.
//
// Usage: density_sweep [--nodes=50,75,100,112,125,150] [--seconds=120]
//                      [--seed=7] [--seeds=1] [--scheme=all|gpsr|agfw-ack|agfw-noack]
//                      [--jobs=1] [--json=PATH]

#include <cstdio>
#include <sstream>

#include "experiment/json.hpp"
#include "experiment/sweep.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace geoanon;

namespace {

std::vector<std::size_t> parse_list(const std::string& csv) {
    std::vector<std::size_t> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stoul(item));
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const util::CliArgs args(argc, argv);
    const auto densities = parse_list(args.get("nodes", std::string{"50,75,100,112,125,150"}));
    const double seconds = args.get("seconds", 120.0);
    const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{7}));
    const auto seeds = static_cast<std::size_t>(args.get("seeds", std::int64_t{1}));
    const std::string scheme_arg = args.get("scheme", std::string{"all"});

    std::vector<workload::Scheme> schemes;
    if (scheme_arg == "all" || scheme_arg == "gpsr")
        schemes.push_back(workload::Scheme::kGpsrGreedy);
    if (scheme_arg == "all" || scheme_arg == "agfw-noack")
        schemes.push_back(workload::Scheme::kAgfwNoAck);
    if (scheme_arg == "all" || scheme_arg == "agfw-ack")
        schemes.push_back(workload::Scheme::kAgfwAck);
    if (schemes.empty()) {
        std::fprintf(stderr, "unknown --scheme=%s\n", scheme_arg.c_str());
        return 1;
    }

    experiment::SweepSpec spec;
    spec.base.sim_seconds = seconds;
    spec.base.traffic_stop_s = seconds - 10.0;
    spec.axes = {experiment::Axis::nodes(densities),
                 experiment::Axis::schemes(schemes)};
    spec.seeds_per_point = seeds;
    spec.seed_base = seed;

    experiment::SweepRunner::Options options;
    options.jobs = static_cast<std::size_t>(args.get("jobs", std::int64_t{1}));
    const auto points = experiment::SweepRunner(spec, options).run();

    util::TablePrinter table({"nodes", "scheme", "delivery", "lat (ms)", "p95 (ms)", "hops",
                              "mac retries", "nl retx", "collisions"});
    for (const experiment::PointRecord& pt : points) {
        const auto mean = [&](double (workload::ScenarioResult::*accessor)() const) {
            return pt.mean(
                [accessor](const workload::ScenarioResult& r) { return (r.*accessor)(); });
        };
        const auto counter = [&](const char* name) {
            return static_cast<long long>(pt.mean([name](const workload::ScenarioResult& r) {
                return static_cast<double>(r.metrics.counter(name));
            }));
        };
        table.row()
            .cell(pt.labels[0])
            .cell(pt.labels[1])
            .cell(mean(&workload::ScenarioResult::delivery_fraction), 3)
            .cell(mean(&workload::ScenarioResult::avg_latency_ms), 2)
            .cell(mean(&workload::ScenarioResult::p95_latency_ms), 2)
            .cell(mean(&workload::ScenarioResult::avg_hops), 2)
            .cell(counter("mac.retries"))
            .cell(counter("agfw.retransmissions"))
            .cell(counter("phy.frames_corrupted"));
    }
    table.print();

    if (args.has("json")) {
        const std::string path = args.get("json", std::string{});
        if (experiment::write_text_file(
                path, experiment::sweep_to_json("density_sweep", spec, points)))
            std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}
