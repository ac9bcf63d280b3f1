// §4 security analysis, quantified — what a passive global eavesdropper
// learns under each scheme.
//
// The paper argues AGFW leaves the adversary with locations it cannot tie to
// identities ("it cannot determine who is sending to whom"), and warns
// (§3.2) that exposing real MAC source addresses would let an eavesdropper
// correlate consecutive hops of one packet (same trapdoor) and bind
// pseudonyms to persistent addresses. This bench measures all three cases.

#include "bench_common.hpp"

using namespace geoanon;

int main(int argc, char** argv) {
    const util::CliArgs args(argc, argv);
    const double seconds = bench::sim_seconds(300.0);
    std::printf("Privacy under a passive global eavesdropper (50 nodes, %.0f s)\n", seconds);
    std::printf("identity sighting = (identity handle, location) pair observed\n");
    std::printf("coverage = mean fraction of 10 s windows a node is localized in\n\n");

    experiment::SweepSpec spec;
    spec.base = bench::paper_scenario(workload::Scheme::kGpsrGreedy, 50, seconds, 1);
    spec.base.attach_eavesdropper = true;
    // Also run the offline linking attack (DESIGN.md §16) over the same
    // observation feed: GPSR's identity-bearing beacons calibrate it
    // (tracking ~= 1.0 — equal handles link for free), AGFW's per-hello
    // pseudonyms are what it actually has to fight.
    spec.base.attach_observer = true;
    spec.axes = {experiment::Axis::variants(
        "privacy_case", {"gpsr-greedy", "agfw-ack", "agfw-ack + MAC leak"},
        [](workload::ScenarioConfig& cfg, double v) {
            const int c = static_cast<int>(v);
            cfg.scheme = c == 0 ? workload::Scheme::kGpsrGreedy
                                : workload::Scheme::kAgfwAck;
            cfg.anonymous_mac = c != 2;
        })};
    spec.seeds_per_point = 1;
    spec.seed_base = 11;

    const auto points = bench::run_sweep(spec, args);

    util::TablePrinter table({"scheme", "frames seen", "identity sightings",
                              "pseudonym sightings", "nodes localized", "coverage",
                              "pseudonym->MAC links", "tracking", "precision",
                              "anon-set"});
    for (const experiment::PointRecord& pt : points) {
        const obs::MetricsSnapshot& m = pt.runs.front().result.metrics;
        table.row()
            .cell(pt.labels[0])
            .cell(static_cast<long long>(m.counter("adv.frames_observed")))
            .cell(static_cast<long long>(m.counter("eav.identity_sightings")))
            .cell(static_cast<long long>(m.counter("eav.pseudonym_sightings")))
            .cell(static_cast<long long>(m.counter("eav.nodes_ever_localized")))
            .cell(m.gauge("eav.mean_tracking_coverage"), 3)
            .cell(static_cast<long long>(m.counter("eav.mac_pseudonym_links")))
            .cell(m.gauge("adv.tracking_success_rate"), 3)
            .cell(m.gauge("adv.link_precision"), 3)
            .cell(m.gauge("adv.mean_anonymity_set"), 2);
    }
    table.print();

    bench::maybe_write_json(args, "privacy_tracking", spec, points);
    std::printf(
        "\nExpected shape (paper §4): GPSR localizes every node almost\n"
        "continuously; full AGFW yields zero identity-location linkage; the\n"
        "MAC-leak ablation confirms why §3.2 forbids real source addresses.\n"
        "The linking attack tracks GPSR near-perfectly (identity handles link\n"
        "for free); AGFW forces it onto motion-gated guesses — see\n"
        "privacy_frontier for the countermeasure sweep.\n");
    return 0;
}
