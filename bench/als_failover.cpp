// ALS failover — resolve success and recovery latency vs server-grid outage
// severity, with and without replication.
//
// Not a paper figure: §3.3 assumes the home grid always has a live server.
// This bench quantifies the replica set added on top — a single-grid ALS
// (cell = area width, so every node shares one home grid) is hit with an
// AlsOutage that crashes the inner core of the server region. Unreplicated
// stores lose the row with the crashed server; replicated stores keep copies
// on the surviving outer ring, and anti-entropy re-heals recovered servers.
//
// The bench doubles as the CI failover smoke check: it exits nonzero if any
// run violates a protocol invariant, or if an outage was scheduled and no
// replicated run ever recorded a failover (a failover sample = a resolve
// that needed more than one attempt or a fallback stage and still
// succeeded).

#include "bench_common.hpp"
#include "fault/fault.hpp"

using namespace geoanon;

namespace {

constexpr const char* kFailoverHist = "ls.failover.latency_ms";

const obs::MetricsSnapshot::Hist* find_hist(const workload::ScenarioResult& r,
                                            const std::string& name) {
    for (const auto& h : r.metrics.histograms)
        if (h.name == name) return &h;
    return nullptr;
}

double resolve_success(const workload::ScenarioResult& r) {
    const auto ok = static_cast<double>(r.metrics.counter("ls.resolved_ok"));
    const double total = ok + static_cast<double>(r.metrics.counter("ls.resolved_fail"));
    return total > 0.0 ? ok / total : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    const util::CliArgs args(argc, argv);
    const double seconds = bench::sim_seconds(180.0);
    const int seeds = bench::seed_count(2);
    bench::print_banner("ALS failover: resolve success vs outage severity x replication",
                        seconds, seeds);

    experiment::SweepSpec spec;
    spec.base = bench::paper_scenario(workload::Scheme::kAgfwAck, 40, seconds, 1);
    // This bench is exactly the fault-under-pressure case the checker exists
    // for; re-enable it (paper_scenario turns it off for timing parity).
    spec.base.check_invariants = true;
    spec.base.location_service = routing::LocationService::Mode::kAnonymous;
    // Light offered load: the unreplicated baseline storms with query
    // retries, and a saturated MAC queue would smear every metric here.
    spec.base.num_flows = 12;
    spec.base.num_senders = 8;
    spec.base.cbr_pps = 1.0;
    // Single home grid: one cell spanning the whole 1500 m width, so every
    // node's rows live in the same server region and one outage is total.
    spec.base.ls_cell_m = 1500.0;
    spec.base.ls_params.server_radius_m = 250.0;
    // Updates at 20 s: slow enough that surviving an outage takes the
    // replica set (the subject does not re-advertise right away), fast
    // enough that the unreplicated baseline works in the fault-free column.
    spec.base.ls_params.update_interval = util::SimTime::seconds(20.0);
    spec.base.ls_params.entry_ttl = util::SimTime::seconds(60.0);

    const double outage_at = seconds * 0.25;
    spec.axes = {
        experiment::Axis::numeric(
            "outage_s", {0.0, 45.0, 90.0},
            [outage_at](workload::ScenarioConfig& cfg, double d) {
                if (d <= 0.0) return;
                fault::FaultPlan::AlsOutage outage;
                outage.target = 0;  // single grid: same home center for all
                outage.at = util::SimTime::seconds(outage_at);
                outage.duration = util::SimTime::seconds(d);
                outage.radius_m = 150.0;  // inner core only; outer ring survives
                cfg.faults.als_outages.push_back(outage);
            }),
        experiment::Axis::variants(
            "replication", {"unreplicated", "replicated", "replicated+ae"},
            [](workload::ScenarioConfig& cfg, double v) {
                const int i = static_cast<int>(v);
                cfg.ls_params.replicate = i >= 1;
                cfg.ls_params.anti_entropy = i >= 2;
                cfg.ls_params.stale_grace =
                    i >= 2 ? util::SimTime::seconds(10.0) : util::SimTime{};
            }),
    };
    spec.seeds_per_point = static_cast<std::size_t>(seeds);
    spec.seed_base = 7000;

    const auto points = bench::run_sweep(spec, args);

    util::TablePrinter table({"outage-s", "replication", "resolve", "failovers",
                              "p50-ms", "p99-ms", "stale", "viol"});
    bool invariants_clean = true;
    std::uint64_t replicated_failovers = 0;
    bool outage_scheduled = false;
    for (const experiment::PointRecord& pt : points) {
        std::uint64_t failovers = 0, violations = 0, stale = 0;
        util::Sampler p50s, p99s;
        for (const experiment::RunRecord& run : pt.runs) {
            if (const auto* h = find_hist(run.result, kFailoverHist)) {
                failovers += h->count;
                if (h->count > 0) {
                    p50s.add(h->p50);
                    p99s.add(h->p99);
                }
            }
            violations += run.result.invariant_violations();
            stale += run.result.metrics.counter("ls.failover.stale_reads");
        }
        if (violations > 0) invariants_clean = false;
        if (pt.values[0] > 0.0) {
            outage_scheduled = true;
            if (pt.labels[1] != "unreplicated") replicated_failovers += failovers;
        }
        table.row()
            .cell(static_cast<long long>(pt.values[0]))
            .cell(pt.labels[1])
            .cell(pt.mean(resolve_success), 3)
            .cell(static_cast<long long>(failovers))
            .cell(p50s.count() ? p50s.mean() : 0.0, 1)
            .cell(p99s.count() ? p99s.mean() : 0.0, 1)
            .cell(static_cast<long long>(stale))
            .cell(static_cast<long long>(violations));
    }
    table.print();

    bench::maybe_write_json(args, "als_failover", spec, points);

    std::printf(
        "\nExpected shape: unreplicated resolve success collapses with outage\n"
        "duration while replicated stays high; failovers are nonzero exactly\n"
        "when replicas pick up queries the crashed core can no longer serve.\n");

    if (!invariants_clean) {
        std::fprintf(stderr, "FAIL: invariant violations under failover\n");
        return 1;
    }
    if (outage_scheduled && replicated_failovers == 0) {
        std::fprintf(stderr, "FAIL: outages scheduled but no failover was recorded\n");
        return 1;
    }
    return 0;
}
