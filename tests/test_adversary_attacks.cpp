// The offline linking/trajectory attack (DESIGN.md §16) on hand-built
// observation sequences with known ground truth, plus end-to-end scenario
// checks that the pseudonym-policy countermeasures actually move the attack
// metrics.

#include <gtest/gtest.h>

#include "adversary/linker.hpp"
#include "adversary/trajectory.hpp"
#include "experiment/json.hpp"
#include "reference/sorted_greedy_linker.hpp"
#include "util/rng.hpp"
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
// Differential: the product linker against the sorted-greedy reference.
// ---------------------------------------------------------------------------

::testing::AssertionResult same_result(const adversary::LinkResult& got,
                                       const adversary::LinkResult& want) {
    auto fail = [](const char* what, std::size_t i) {
        return ::testing::AssertionFailure() << what << " differs at " << i;
    };
    if (got.sightings.size() != want.sightings.size()) return fail("sightings size", 0);
    for (std::size_t i = 0; i < got.sightings.size(); ++i) {
        const auto& a = got.sightings[i];
        const auto& b = want.sightings[i];
        if (a.t_s != b.t_s || a.pos != b.pos || a.handle != b.handle)
            return fail("sighting", i);
    }
    if (got.original_index != want.original_index) return fail("original_index", 0);
    if (got.tracklets.size() != want.tracklets.size()) return fail("tracklets size", 0);
    for (std::size_t i = 0; i < got.tracklets.size(); ++i) {
        const auto& a = got.tracklets[i];
        const auto& b = want.tracklets[i];
        if (a.handle != b.handle || a.first != b.first || a.count != b.count ||
            a.t_begin != b.t_begin || a.t_end != b.t_end || a.p_begin != b.p_begin ||
            a.p_end != b.p_end)
            return fail("tracklet", i);
    }
    if (got.links.size() != want.links.size())
        return ::testing::AssertionFailure()
               << "links: " << got.links.size() << " vs " << want.links.size();
    for (std::size_t i = 0; i < got.links.size(); ++i) {
        const auto& a = got.links[i];
        const auto& b = want.links[i];
        if (a.from != b.from || a.to != b.to || a.t_s != b.t_s ||
            a.candidates != b.candidates)
            return fail("link", i);
    }
    if (got.candidate_pairs != want.candidate_pairs) return fail("candidate_pairs", 0);
    if (got.chains.size() != want.chains.size()) return fail("chains size", 0);
    for (std::size_t i = 0; i < got.chains.size(); ++i)
        if (got.chains[i].tracklets != want.chains[i].tracklets) return fail("chain", i);
    if (got.chain_of != want.chain_of) return fail("chain_of", 0);
    return ::testing::AssertionSuccess();
}

// Nodes walking straight lines, beaconing about once a second with a fresh
// handle per beacon or per few beacons: many ambiguous crossings.
std::vector<adversary::HelloSighting> random_walkers(util::Rng& rng) {
    std::vector<adversary::HelloSighting> out;
    const auto nodes = rng.uniform_int(2, 14);
    std::uint64_t next_handle = 1;
    for (std::int64_t n = 0; n < nodes; ++n) {
        util::Vec2 p{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
        const util::Vec2 v{rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0)};
        const auto run = rng.uniform_int(1, 3);  // beacons per handle
        double t = rng.uniform(0.0, 1.0);
        for (std::int64_t k = 0; t < 40.0; ++k) {
            if (k % run == 0) ++next_handle;
            if (!rng.bernoulli(0.2))  // silent beacons open gaps
                out.push_back({t, p, next_handle});
            const double dt = rng.uniform(0.5, 1.5);
            p = {p.x + v.x * dt, p.y + v.y * dt};
            t += dt;
        }
    }
    return out;
}

// Integer positions on a small grid at integer times with handles drawn from
// a small pool: equal costs and equal gaps everywhere, so the (cost, gap,
// from, to) tie-break decides most links.
std::vector<adversary::HelloSighting> integer_grid(util::Rng& rng) {
    std::vector<adversary::HelloSighting> out;
    const auto count = rng.uniform_int(2, 120);
    const auto handles = rng.uniform_int(2, 60);
    for (std::int64_t i = 0; i < count; ++i) {
        out.push_back({static_cast<double>(rng.uniform_int(0, 12)),
                       {10.0 * static_cast<double>(rng.uniform_int(0, 4)),
                        10.0 * static_cast<double>(rng.uniform_int(0, 4))},
                       static_cast<std::uint64_t>(rng.uniform_int(1, handles))});
    }
    return out;
}

TEST(LinkingAttack, HeapMergeMatchesSortedGreedy) {
    util::Rng rng(0x5EED1234);
    std::uint64_t links_seen = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const bool grid = trial % 2 == 1;
        const auto sightings = grid ? integer_grid(rng) : random_walkers(rng);
        adversary::LinkerParams p;
        p.max_speed_mps = grid ? 10.0 : 20.0;
        p.slack_m = grid ? 5.0 : 10.0;
        p.max_gap_s = grid ? 4.0 : 6.0;
        for (const bool global : {true, false}) {
            p.global_matching = global;
            const auto got = adversary::link_pseudonyms(sightings, p);
            const auto want = reference::link_pseudonyms_sorted(sightings, p);
            ASSERT_TRUE(same_result(got, want))
                << "trial " << trial << (grid ? " grid" : " walkers")
                << (global ? " global" : " greedy");
            links_seen += got.links.size();
        }
    }
    // The inputs must exercise the matching, not just the bookkeeping.
    EXPECT_GT(links_seen, 10000u);
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
