// PseudonymPolicy semantics (DESIGN.md §16): zone geometry, rotation
// cadence per kind, and hello suppression wired through AgfwAgent.

#include <gtest/gtest.h>

#include "core/pseudonym_policy.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using core::MixZone;
using core::PseudonymPolicy;

TEST(PseudonymPolicy, GridLayoutSpacesZonesOnTheMidline) {
    const mobility::Area area{1500.0, 300.0};
    const auto zones = PseudonymPolicy::grid_layout(area, 3, 100.0);
    ASSERT_EQ(zones.size(), 3u);
    EXPECT_DOUBLE_EQ(zones[0].center.x, 250.0);
    EXPECT_DOUBLE_EQ(zones[1].center.x, 750.0);
    EXPECT_DOUBLE_EQ(zones[2].center.x, 1250.0);
    for (const MixZone& z : zones) {
        EXPECT_DOUBLE_EQ(z.center.y, 150.0);
        EXPECT_DOUBLE_EQ(z.radius_m, 100.0);
    }
}

TEST(PseudonymPolicy, InZoneIsAnyZoneMembership) {
    PseudonymPolicy pol;
    pol.zones = {{{100.0, 100.0}, 50.0}, {{500.0, 100.0}, 50.0}};
    EXPECT_TRUE(pol.in_zone({120.0, 100.0}));
    EXPECT_TRUE(pol.in_zone({500.0, 140.0}));
    EXPECT_FALSE(pol.in_zone({300.0, 100.0}));
    // Boundary is inclusive.
    EXPECT_TRUE(pol.in_zone({150.0, 100.0}));
}

TEST(PseudonymPolicy, KindNamesAreStable) {
    EXPECT_STREQ(PseudonymPolicy::kind_name(PseudonymPolicy::Kind::kPerHello),
                 "per-hello");
    EXPECT_STREQ(PseudonymPolicy::kind_name(PseudonymPolicy::Kind::kTimed),
                 "timed");
    EXPECT_STREQ(PseudonymPolicy::kind_name(PseudonymPolicy::Kind::kMixZone),
                 "mix-zone");
    EXPECT_STREQ(
        PseudonymPolicy::kind_name(PseudonymPolicy::Kind::kVirtualMixZone),
        "virtual-pc");
}

// ---------------------------------------------------------------------------
// Policy behavior through AgfwAgent in a small scenario.
// ---------------------------------------------------------------------------

workload::ScenarioResult run_policy(const PseudonymPolicy& pol,
                                    double seconds = 60.0) {
    workload::ScenarioConfig cfg;
    cfg.scheme = workload::Scheme::kAgfwAck;
    cfg.num_nodes = 20;
    cfg.sim_seconds = seconds;
    cfg.traffic_stop_s = seconds - 5.0;
    cfg.num_flows = 6;
    cfg.num_senders = 6;
    cfg.seed = 23;
    cfg.agfw.pseudonym_policy = pol;
    workload::ScenarioRunner runner(cfg);
    return runner.run();
}

TEST(PseudonymPolicyScenario, PerHelloRotatesEveryHello) {
    const auto r = run_policy(PseudonymPolicy{});
    EXPECT_GT(r.metrics.counter("agfw.hello_sent"), 0u);
    EXPECT_EQ(r.metrics.counter("agfw.hello_suppressed"), 0u);
    EXPECT_EQ(r.metrics.counter("agfw.pseudonym_rotations"), r.metrics.counter("agfw.hello_sent"));
}

TEST(PseudonymPolicyScenario, TimedReusesThePseudonym) {
    PseudonymPolicy pol;
    pol.kind = PseudonymPolicy::Kind::kTimed;
    pol.rotate_interval = util::SimTime::seconds(30.0);
    const auto r = run_policy(pol);
    EXPECT_GT(r.metrics.counter("agfw.hello_sent"), 0u);
    EXPECT_EQ(r.metrics.counter("agfw.hello_suppressed"), 0u);
    // ~1 rotation per node per 30 s vs a hello every beacon interval.
    EXPECT_LT(r.metrics.counter("agfw.pseudonym_rotations"),
              r.metrics.counter("agfw.hello_sent") / 4);
    EXPECT_GT(r.metrics.counter("agfw.pseudonym_rotations"), 0u);
}

TEST(PseudonymPolicyScenario, WholeAreaMixZoneSilencesAllHellos) {
    PseudonymPolicy pol;
    pol.kind = PseudonymPolicy::Kind::kMixZone;
    pol.zones = {{{750.0, 150.0}, 1.0e9}};  // covers everything
    const auto r = run_policy(pol, 30.0);
    EXPECT_EQ(r.metrics.counter("agfw.hello_sent"), 0u);
    EXPECT_GT(r.metrics.counter("agfw.hello_suppressed"), 0u);
}

TEST(PseudonymPolicyScenario, MixZoneSuppressesOnlyInsideZones) {
    PseudonymPolicy pol;
    pol.kind = PseudonymPolicy::Kind::kMixZone;
    pol.zones = PseudonymPolicy::grid_layout({1500.0, 300.0}, 3, 150.0);
    const auto r = run_policy(pol);
    EXPECT_GT(r.metrics.counter("agfw.hello_sent"), 0u);
    EXPECT_GT(r.metrics.counter("agfw.hello_suppressed"), 0u);
    // Zones cover a minority of the strip: most beacons still go out.
    EXPECT_GT(r.metrics.counter("agfw.hello_sent"), r.metrics.counter("agfw.hello_suppressed"));
}

TEST(PseudonymPolicyScenario, VirtualPcSuppressesTheDutyCycleFraction) {
    PseudonymPolicy pol;
    pol.kind = PseudonymPolicy::Kind::kVirtualMixZone;
    pol.vpc_period = util::SimTime::seconds(10.0);
    pol.vpc_silence = util::SimTime::seconds(2.0);
    const auto r = run_policy(pol);
    const double total = static_cast<double>(r.metrics.counter("agfw.hello_sent") +
                                             r.metrics.counter("agfw.hello_suppressed"));
    ASSERT_GT(total, 0.0);
    const double suppressed_frac =
        static_cast<double>(r.metrics.counter("agfw.hello_suppressed")) / total;
    // Silent 2 s of every 10 s, phases uniform per node: ~20% of beacon
    // slots fall in a silent window.
    EXPECT_NEAR(suppressed_frac, 0.2, 0.08);
}

}  // namespace
