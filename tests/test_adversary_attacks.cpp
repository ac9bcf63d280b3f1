// The offline linking/trajectory attack (DESIGN.md §16) on hand-built
// observation sequences with known ground truth, plus end-to-end scenario
// checks that the pseudonym-policy countermeasures actually move the attack
// metrics.

#include <gtest/gtest.h>

#include "adversary/trajectory.hpp"
#include "experiment/json.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using adversary::AttackParams;
using adversary::AttackReport;
using adversary::Observation;

Observation hello(double t_s, double x, double y, std::uint64_t handle,
                  net::NodeId owner) {
    Observation o;
    o.t_s = t_s;
    o.pos = {x, y};
    o.handle = handle;
    o.true_sender = owner;
    return o;
}

AttackParams params(bool global = true) {
    AttackParams ap;
    ap.linker.max_speed_mps = 20.0;
    ap.linker.slack_m = 10.0;
    ap.linker.max_gap_s = 30.0;
    ap.linker.global_matching = global;
    return ap;
}

TEST(LinkingAttack, PerfectChainOnWalkingNode) {
    // One node walking east at 10 m/s, a fresh pseudonym each beacon. Every
    // successive pair passes the speed gate unambiguously: the attacker
    // reconstructs the full trajectory.
    std::vector<Observation> obs;
    for (int i = 0; i < 5; ++i)
        obs.push_back(hello(2.0 * i, 20.0 * i, 0.0, 100 + i, 7));

    // max_gap below two beacon intervals: only the immediate predecessor
    // gates each link, so every pseudonym change is unambiguous (anonymity
    // set counts ALL gate-passing predecessors, not just the chosen one).
    AttackParams ap = params();
    ap.linker.max_gap_s = 3.0;
    const AttackReport r = adversary::run_attack(obs, ap, 8.0);
    EXPECT_EQ(r.hello_observations, 5u);
    EXPECT_EQ(r.tracklets, 5u);
    EXPECT_EQ(r.chains, 1u);
    EXPECT_EQ(r.links_made, 4u);
    EXPECT_EQ(r.links_correct, 4u);
    EXPECT_DOUBLE_EQ(r.link_precision, 1.0);
    EXPECT_DOUBLE_EQ(r.link_recall, 1.0);
    EXPECT_DOUBLE_EQ(r.tracking_success_rate, 1.0);
    EXPECT_DOUBLE_EQ(r.mean_anonymity_set, 1.0);
    // Reconstructed positions sit exactly on the true track.
    EXPECT_NEAR(r.mean_path_error_m, 0.0, 1e-9);
}

TEST(LinkingAttack, ImpossibleLinkBeyondMaxSpeed) {
    // Two sightings 1000 m apart one second apart: bridging them implies
    // 1000 m/s >> 20 m/s. The gate must refuse, leaving two singleton chains
    // (even though both truly belong to one node — say, a tunnel teleport).
    std::vector<Observation> obs = {
        hello(0.0, 0.0, 0.0, 1, 3),
        hello(1.0, 1000.0, 0.0, 2, 3),
    };
    const AttackReport r = adversary::run_attack(obs, params(), 1.0);
    EXPECT_EQ(r.tracklets, 2u);
    EXPECT_EQ(r.chains, 2u);
    EXPECT_EQ(r.links_made, 0u);
    EXPECT_EQ(r.candidate_pairs, 0u);
    EXPECT_DOUBLE_EQ(r.link_recall, 0.0);
}

TEST(LinkingAttack, EqualHandlesLinkForFree) {
    // A reused pseudonym is one tracklet regardless of gaps — the whole
    // reason kTimed is the weak end of the policy axis.
    std::vector<Observation> obs = {
        hello(0.0, 0.0, 0.0, 9, 1),
        hello(60.0, 900.0, 0.0, 9, 1),  // gap and distance far beyond the gate
    };
    const AttackReport r = adversary::run_attack(obs, params(), 60.0);
    EXPECT_EQ(r.tracklets, 1u);
    EXPECT_EQ(r.chains, 1u);
    EXPECT_DOUBLE_EQ(r.tracking_success_rate, 1.0);
}

TEST(LinkingAttack, MixZoneSwapConfusesTheAttacker) {
    // Two nodes cross symmetrically through a silent region and rotate
    // pseudonyms inside it. Both emerging tracklets gate both entering
    // tracklets — and the cheapest (implied-slowest) assignment is the
    // SWAPPED one, so even the strong attacker exits the zone tracking the
    // wrong node. This is the mix-zone guarantee in miniature.
    std::vector<Observation> obs = {
        // Node 1 eastbound: enters the zone after t=5.
        hello(0.0, 0.0, 0.0, 101, 1),
        hello(5.0, 50.0, 0.0, 102, 1),
        // Node 2 westbound, mirror image.
        hello(0.0, 200.0, 0.0, 201, 2),
        hello(5.0, 150.0, 0.0, 202, 2),
        // Both re-emerge at t=15 on the far side, fresh pseudonyms. Node 1
        // is now where node 2 entered and vice versa.
        hello(15.0, 150.0, 0.0, 103, 1),
        hello(15.0, 50.0, 0.0, 203, 2),
    };
    const AttackReport r = adversary::run_attack(obs, params(), 15.0);
    EXPECT_EQ(r.tracklets, 6u);
    // The post-zone joins were ambiguous: at least two gate-passing
    // predecessors for each committed cross-zone link.
    EXPECT_GE(r.max_anonymity_set, 2.0);
    EXPECT_GE(r.mean_anonymity_set, 1.5);
    // The swap worked: some committed links join different nodes' tracklets.
    EXPECT_GT(r.links_made, 0u);
    EXPECT_LT(r.links_correct, r.links_made);
    EXPECT_LT(r.link_precision, 1.0);
    EXPECT_LT(r.tracking_success_rate, 1.0);
}

TEST(LinkingAttack, WeakAttackerNeverBeatsStrongOnPrecisionHere) {
    // Same crossing; the online greedy attacker commits in time order and
    // cannot do better than the global matcher on this instance.
    std::vector<Observation> obs = {
        hello(0.0, 0.0, 0.0, 101, 1),   hello(5.0, 50.0, 0.0, 102, 1),
        hello(0.0, 200.0, 0.0, 201, 2), hello(5.0, 150.0, 0.0, 202, 2),
        hello(15.0, 150.0, 0.0, 103, 1), hello(15.0, 50.0, 0.0, 203, 2),
    };
    const AttackReport weak = adversary::run_attack(obs, params(false), 15.0);
    const AttackReport strong = adversary::run_attack(obs, params(true), 15.0);
    EXPECT_LE(weak.link_precision, strong.link_precision + 1e-12);
    EXPECT_EQ(weak.links_made, strong.links_made);
}

TEST(LinkingAttack, ReportIsDeterministic) {
    std::vector<Observation> obs;
    for (int n = 0; n < 4; ++n)
        for (int i = 0; i < 6; ++i)
            obs.push_back(hello(1.5 * i + 0.1 * n, 15.0 * i + 40.0 * n,
                                7.0 * n, 1000 * (n + 1) + i,
                                static_cast<net::NodeId>(n)));
    const AttackReport a = adversary::run_attack(obs, params(), 10.0);
    const AttackReport b = adversary::run_attack(obs, params(), 10.0);
    EXPECT_EQ(a.links_made, b.links_made);
    EXPECT_EQ(a.links_correct, b.links_correct);
    EXPECT_EQ(a.chains, b.chains);
    EXPECT_EQ(a.candidate_pairs, b.candidate_pairs);
    EXPECT_EQ(a.link_precision, b.link_precision);
    EXPECT_EQ(a.tracking_success_rate, b.tracking_success_rate);
    EXPECT_EQ(a.mean_path_error_m, b.mean_path_error_m);
    EXPECT_EQ(a.anonymity_over_time, b.anonymity_over_time);
}

// ---------------------------------------------------------------------------
// End-to-end: the attack wired through ScenarioRunner.
// ---------------------------------------------------------------------------

workload::ScenarioConfig scenario(workload::Scheme scheme) {
    workload::ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.num_nodes = 40;
    cfg.sim_seconds = 120.0;
    cfg.traffic_stop_s = 110.0;
    cfg.seed = 17;
    cfg.attach_observer = true;
    return cfg;
}

TEST(LinkingAttackE2E, GpsrIdentityBeaconsCalibrateTheAttack) {
    // Cleartext GPSR ids are pseudonyms that never rotate: the attack should
    // track essentially every node for essentially the whole run.
    workload::ScenarioRunner runner(scenario(workload::Scheme::kGpsrGreedy));
    const auto r = runner.run();
    EXPECT_GT(r.metrics.counter("adv.hello_observations"), 1000u);
    EXPECT_GT(r.metrics.gauge("adv.tracking_success_rate"), 0.9);
}

TEST(LinkingAttackE2E, ObserverRecordsOnlyHellos) {
    // The attack reads hello sightings only, so the feed keeps nothing else:
    // every record is one the attack counts, far fewer than the frames on
    // the air.
    workload::ScenarioRunner runner(scenario(workload::Scheme::kAgfwAck));
    const auto r = runner.run();
    const std::uint64_t hellos = r.metrics.counter("adv.hello_observations");
    EXPECT_EQ(runner.observation_feed()->observations().size(), hellos);
    EXPECT_GT(hellos, 0u);
    EXPECT_LT(hellos, r.metrics.counter("adv.frames_observed"));
}

TEST(LinkingAttackE2E, MixZonePolicyBeatsPerHello) {
    auto base = scenario(workload::Scheme::kAgfwAck);

    auto mixed = base;
    mixed.agfw.pseudonym_policy.kind = core::PseudonymPolicy::Kind::kMixZone;
    mixed.agfw.pseudonym_policy.zones =
        core::PseudonymPolicy::grid_layout(mixed.area, 3, 150.0);

    workload::ScenarioRunner base_runner(base);
    const auto r_base = base_runner.run();
    workload::ScenarioRunner mixed_runner(mixed);
    const auto r_mixed = mixed_runner.run();

    EXPECT_EQ(r_base.metrics.counter("agfw.hello_suppressed"), 0u);
    EXPECT_GT(r_mixed.metrics.counter("agfw.hello_suppressed"), 0u);
    // Fewer observable hellos and broken continuity: tracking must drop.
    EXPECT_LT(r_mixed.metrics.gauge("adv.tracking_success_rate"),
              r_base.metrics.gauge("adv.tracking_success_rate"));
    // Suppression costs beacons, not data: traffic still flows.
    EXPECT_GT(r_mixed.delivery_fraction(), 0.5);
}

TEST(LinkingAttackE2E, ResultJsonIsDeterministic) {
    auto cfg = scenario(workload::Scheme::kAgfwAck);
    cfg.sim_seconds = 60.0;
    cfg.traffic_stop_s = 55.0;
    workload::ScenarioRunner a(cfg);
    workload::ScenarioRunner b(cfg);
    EXPECT_EQ(experiment::result_to_json(a.run(), false),
              experiment::result_to_json(b.run(), false));
}

}  // namespace
