// Figure 1(a) — End-to-end packet delivery fraction vs network density.
//
// Paper: GPSR-Greedy and AGFW-with-ACK deliver almost identically; the
// simple AGFW without acknowledgments is "not satisfactory" and degrades
// further as more nodes enter the network (collisions, hidden terminals).

#include "bench_common.hpp"

using namespace geoanon;

int main(int argc, char** argv) {
    const util::CliArgs args(argc, argv);
    const double seconds = bench::sim_seconds(300.0);
    const int seeds = bench::seed_count(2);
    bench::print_banner("Figure 1(a): packet delivery fraction vs number of nodes",
                        seconds, seeds);

    const std::vector<workload::Scheme> schemes{workload::Scheme::kGpsrGreedy,
                                                workload::Scheme::kAgfwNoAck,
                                                workload::Scheme::kAgfwAck};
    experiment::SweepSpec spec;
    spec.base = bench::paper_scenario(workload::Scheme::kGpsrGreedy, 50, seconds, 1);
    spec.axes = {experiment::Axis::nodes({50, 75, 100, 112, 125, 150}),
                 experiment::Axis::schemes(schemes)};
    spec.seeds_per_point = static_cast<std::size_t>(seeds);
    spec.seed_base = 1000;

    const auto points = bench::run_sweep(spec, args);

    const auto delivery = [](const workload::ScenarioResult& r) {
        return r.delivery_fraction();
    };
    util::TablePrinter table({"nodes", "gpsr-greedy", "agfw-noack", "agfw-ack"});
    for (std::size_t n = 0; n < spec.axes[0].values.size(); ++n) {
        const std::size_t base = n * schemes.size();
        table.row()
            .cell(static_cast<long long>(spec.axes[0].values[n]))
            .cell(points[base + 0].mean(delivery), 3)
            .cell(points[base + 1].mean(delivery), 3)
            .cell(points[base + 2].mean(delivery), 3);
    }
    table.print();

    bench::maybe_write_json(args, "fig1a_delivery", spec, points);
    std::printf(
        "\nExpected shape (paper): agfw-ack ~= gpsr-greedy at every density;\n"
        "agfw-noack well below both and worsening with density.\n");
    return 0;
}
