// Figure 1(b) — Average end-to-end data packet latency vs network density.
//
// Paper: latencies are comparable while the network has modest density
// (<= 112 nodes in their runs); at high density GPSR-Greedy's latency grows
// sharply (RTS/CTS handshake failures, backoff and retries) while AGFW —
// which never handshakes — stays nearly flat.

#include "bench_common.hpp"

using namespace geoanon;

int main(int argc, char** argv) {
    const util::CliArgs args(argc, argv);
    const double seconds = bench::sim_seconds(300.0);
    const int seeds = bench::seed_count(2);
    bench::print_banner("Figure 1(b): end-to-end data packet latency vs number of nodes",
                        seconds, seeds);

    experiment::SweepSpec spec;
    spec.base = bench::paper_scenario(workload::Scheme::kGpsrGreedy, 50, seconds, 1);
    spec.axes = {experiment::Axis::nodes({50, 75, 100, 112, 125, 150}),
                 experiment::Axis::schemes({workload::Scheme::kGpsrGreedy,
                                            workload::Scheme::kAgfwAck})};
    spec.seeds_per_point = static_cast<std::size_t>(seeds);
    spec.seed_base = 1000;

    const auto points = bench::run_sweep(spec, args);

    const auto avg_ms = [](const workload::ScenarioResult& r) { return r.avg_latency_ms(); };
    const auto p95_ms = [](const workload::ScenarioResult& r) { return r.p95_latency_ms(); };
    util::TablePrinter table({"nodes", "gpsr avg (ms)", "agfw-ack avg (ms)",
                              "gpsr p95 (ms)", "agfw-ack p95 (ms)"});
    for (std::size_t n = 0; n < spec.axes[0].values.size(); ++n) {
        const experiment::PointRecord& gpsr = points[n * 2];
        const experiment::PointRecord& ack = points[n * 2 + 1];
        table.row()
            .cell(static_cast<long long>(spec.axes[0].values[n]))
            .cell(gpsr.mean(avg_ms), 2)
            .cell(ack.mean(avg_ms), 2)
            .cell(gpsr.mean(p95_ms), 2)
            .cell(ack.mean(p95_ms), 2);
    }
    table.print();

    bench::maybe_write_json(args, "fig1b_latency", spec, points);
    std::printf(
        "\nExpected shape (paper): comparable up to ~112 nodes, then a sharp\n"
        "GPSR increase while AGFW stays flat. AGFW pays the 8.5 ms trapdoor\n"
        "decryption only inside the last-hop region, so per-packet crypto\n"
        "does not accumulate along the route.\n");
    return 0;
}
