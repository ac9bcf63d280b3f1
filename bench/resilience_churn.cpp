// Resilience under node churn — packet delivery vs fraction of the network
// held down by a crash/recover process.
//
// Not a paper figure: the paper's §5 runs assume a fault-free network. This
// bench quantifies how gracefully AGFW-with-ACK degrades when nodes silently
// halt and return with wiped state, which exercises the ANT silence purge,
// the NL-ACK blacklist/reroute machinery, and recovery re-warming.

#include "bench_common.hpp"
#include "fault/fault.hpp"

using namespace geoanon;

namespace {

/// Churn plan sized to hold roughly `down_fraction` of the network down in
/// steady state: arrivals at rate cap/mean_downtime saturate the cap.
fault::FaultPlan churn_plan(std::size_t num_nodes, double down_fraction,
                            double seconds) {
    fault::FaultPlan plan;
    plan.seed = 77;
    if (down_fraction <= 0.0) return plan;
    fault::FaultPlan::Churn churn;
    churn.min_down = util::SimTime::seconds(5.0);
    churn.max_down = util::SimTime::seconds(20.0);
    churn.max_concurrent_down =
        static_cast<int>(static_cast<double>(num_nodes) * down_fraction + 0.5);
    // Mean downtime 12.5 s; drive arrivals ~2x the refill rate so the cap,
    // not the arrival process, sets the steady-state down fraction.
    churn.crash_rate_per_s = 2.0 * churn.max_concurrent_down / 12.5;
    churn.start = util::SimTime::seconds(15.0);
    churn.stop = util::SimTime::seconds(seconds - 20.0);
    plan.churn = churn;
    return plan;
}

}  // namespace

int main(int argc, char** argv) {
    const util::CliArgs args(argc, argv);
    const double seconds = bench::sim_seconds(200.0);
    const int seeds = bench::seed_count(2);
    bench::print_banner("Resilience: AGFW-ACK delivery vs node churn", seconds,
                        seeds);

    experiment::SweepSpec spec;
    spec.base = bench::paper_scenario(workload::Scheme::kAgfwAck, 50, seconds, 1);
    spec.axes = {experiment::Axis::numeric(
        "churn_fraction", {0.0, 0.10, 0.20, 0.30},
        [seconds](workload::ScenarioConfig& cfg, double f) {
            cfg.faults = churn_plan(cfg.num_nodes, f, seconds);
        })};
    spec.seeds_per_point = static_cast<std::size_t>(seeds);
    spec.seed_base = 2000;

    const auto points = bench::run_sweep(spec, args);

    util::TablePrinter table({"churn%", "pdr", "lat-ms", "crashes", "recov-p95-s"});
    for (const experiment::PointRecord& pt : points) {
        table.row()
            .cell(static_cast<long long>(pt.values[0] * 100.0 + 0.5))
            .cell(pt.mean([](const workload::ScenarioResult& r) {
                      return r.delivery_fraction();
                  }),
                  3)
            .cell(pt.mean([](const workload::ScenarioResult& r) {
                      return r.avg_latency_ms();
                  }),
                  1)
            .cell(pt.mean([](const workload::ScenarioResult& r) {
                      return static_cast<double>(r.metrics.counter("fault.node_crashes"));
                  }),
                  1)
            .cell(pt.mean([](const workload::ScenarioResult& r) {
                      return r.metrics.histogram("fault.recovery_s").p95;
                  }),
                  2);
    }
    table.print();

    bench::maybe_write_json(args, "resilience_churn", spec, points);
    std::printf(
        "\nExpected shape: delivery declines smoothly with churn (no cliff);\n"
        "recovery p95 stays within a few hello intervals of the downtime end.\n");
    return 0;
}
