// Extension — perimeter-mode recovery (the paper's §6 future work).
//
// "To avoid a simple dead end when local maximum happens, recovery
// strategies like perimeter forwarding [GPSR] could be applied. We consider
// that it should not be difficult to extend the scheme ... It will be our
// future work."
//
// This bench implements that extension (right-hand rule over the
// RNG-planarized anonymous neighbor table) and measures what it buys: in
// sparse networks greedy dead-ends are common and perimeter mode recovers
// them; in dense networks it is nearly inert.

#include "bench_common.hpp"

using namespace geoanon;

namespace {

workload::ScenarioResult run_variant(bool perimeter, std::size_t nodes, double seconds,
                                     std::uint64_t seed) {
    workload::ScenarioConfig cfg =
        bench::paper_scenario(workload::Scheme::kAgfwAck, nodes, seconds, seed);
    cfg.agfw.enable_perimeter = perimeter;
    workload::ScenarioRunner runner(cfg);
    return runner.run();
}

}  // namespace

int main() {
    const double seconds = bench::sim_seconds(180.0);
    const int seeds = bench::seed_count(2);
    std::printf("Extension: AGFW + perimeter recovery vs plain AGFW (greedy only)\n");
    std::printf("sim %.0f s, %d seed(s); sparse densities stress greedy dead ends\n\n",
                seconds, seeds);

    util::TablePrinter table({"nodes", "greedy delivery", "+perimeter delivery",
                              "greedy lat (ms)", "+perimeter lat (ms)", "perim entries",
                              "recoveries"});
    for (std::size_t nodes : {25u, 35u, 50u, 100u}) {
        util::RunningStat d_g, d_p, l_g, l_p;
        std::uint64_t entries = 0, recoveries = 0;
        for (int s = 0; s < seeds; ++s) {
            const auto g = run_variant(false, nodes, seconds, 100 + static_cast<std::uint64_t>(s));
            const auto p = run_variant(true, nodes, seconds, 100 + static_cast<std::uint64_t>(s));
            d_g.add(g.delivery_fraction());
            d_p.add(p.delivery_fraction());
            l_g.add(g.avg_latency_ms());
            l_p.add(p.avg_latency_ms());
            entries += p.metrics.counter("agfw.perimeter_entries");
            recoveries += p.metrics.counter("agfw.perimeter_recoveries");
        }
        table.row()
            .cell(static_cast<long long>(nodes))
            .cell(d_g.mean(), 3)
            .cell(d_p.mean(), 3)
            .cell(l_g.mean(), 2)
            .cell(l_p.mean(), 2)
            .cell(static_cast<long long>(entries))
            .cell(static_cast<long long>(recoveries));
    }
    table.print();

    std::printf(
        "\nReading: perimeter mode reliably routes around *contiguous voids*\n"
        "(tests/test_planar.cpp shows a deterministic case), but under random\n"
        "mobility most sparse-network greedy failures are genuine partitions\n"
        "that no face traversal can cross — and the NL-ACK rerouting already\n"
        "skirts transient voids. Net effect at these densities: roughly\n"
        "neutral, which is consistent with the paper's remark that greedy\n"
        "alone has satisfactory delivery at modest densities (§6). Anonymity\n"
        "is unaffected: the perimeter header adds positions, never identities.\n");
    return 0;
}
