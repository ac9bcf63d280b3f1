#include <gtest/gtest.h>

#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using fault::FaultPlan;
using util::SimTime;
using util::Vec2;
using workload::ScenarioConfig;
using workload::ScenarioResult;
using workload::ScenarioRunner;
using workload::Scheme;

/// 40-node AGFW-ACK scenario sized so churn tests finish in seconds.
ScenarioConfig churn_base() {
    ScenarioConfig cfg;
    cfg.scheme = Scheme::kAgfwAck;
    cfg.seed = 9;
    cfg.num_nodes = 40;
    cfg.sim_seconds = 120.0;
    cfg.num_flows = 15;
    cfg.num_senders = 10;
    cfg.cbr_pps = 2.0;
    cfg.traffic_start_s = 10.0;
    cfg.traffic_stop_s = 100.0;
    return cfg;
}

/// Sustained churn keeping ~20% of the network down at any time.
FaultPlan churn_plan_20pct(std::size_t num_nodes) {
    FaultPlan plan;
    plan.seed = 21;
    FaultPlan::Churn churn;
    churn.crash_rate_per_s = 0.6;
    churn.start = SimTime::seconds(15.0);
    churn.stop = SimTime::seconds(100.0);
    churn.min_down = SimTime::seconds(5.0);
    churn.max_down = SimTime::seconds(20.0);
    churn.max_concurrent_down = static_cast<int>(num_nodes / 5);  // 20%
    plan.churn = churn;
    return plan;
}

TEST(ChurnStress, BoundedDeliveryUnder20PercentChurn) {
    ScenarioConfig cfg = churn_base();
    cfg.faults = churn_plan_20pct(cfg.num_nodes);
    ScenarioResult r = ScenarioRunner(cfg).run();

    // Churn genuinely ran: many crash/recovery cycles, cap respected.
    EXPECT_GE(r.metrics.counter("fault.node_crashes"), 8u);
    EXPECT_GE(r.metrics.counter("fault.node_recoveries"), 4u);
    EXPECT_GE(r.metrics.histogram("fault.recovery_s").count, 1u);
    EXPECT_GT(r.metrics.histogram("fault.recovery_s").p95, 0.0);
    EXPECT_GT(r.metrics.counter("phy.frames_missed_down"), 0u);

    // Delivery degrades but stays bounded away from zero: ANT silence purge
    // plus NL-ACK rerouting route around the holes.
    EXPECT_GT(r.metrics.counter("app.sent"), 0u);
    EXPECT_GT(r.delivery_fraction(), 0.1);
    EXPECT_LT(r.delivery_fraction(), 1.0);

    // Faults never produce protocol-invariant violations.
    EXPECT_EQ(r.invariant_violations(), 0u);
    EXPECT_GT(r.metrics.counter("inv.frames_checked"), 0u);
}

TEST(ChurnStress, DeterministicUnderChurn) {
    ScenarioConfig cfg = churn_base();
    cfg.faults = churn_plan_20pct(cfg.num_nodes);
    ScenarioResult a = ScenarioRunner(cfg).run();
    ScenarioResult b = ScenarioRunner(cfg).run();
    EXPECT_EQ(a.metrics.counter("app.sent"), b.metrics.counter("app.sent"));
    EXPECT_EQ(a.metrics.counter("app.delivered"), b.metrics.counter("app.delivered"));
    EXPECT_EQ(a.metrics.counter("fault.node_crashes"), b.metrics.counter("fault.node_crashes"));
    EXPECT_EQ(a.metrics.counter("phy.frames_missed_down"),
              b.metrics.counter("phy.frames_missed_down"));
    EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(ChurnStress, AllFaultClassesKeepInvariantsClean) {
    // Every fault class, one at a time, on a smaller run: none of them may
    // produce a single invariant violation — faults degrade delivery, never
    // correctness or anonymity.
    auto small = [] {
        ScenarioConfig cfg = churn_base();
        cfg.num_nodes = 25;
        cfg.sim_seconds = 60.0;
        cfg.traffic_stop_s = 50.0;
        cfg.num_flows = 8;
        cfg.num_senders = 6;
        return cfg;
    };

    std::vector<std::pair<const char*, ScenarioConfig>> cases;

    {
        ScenarioConfig cfg = small();
        cfg.faults.crashes.push_back({3, SimTime::seconds(20.0), SimTime::seconds(15.0)});
        cfg.faults.crashes.push_back({7, SimTime::seconds(25.0), SimTime{}});
        cases.emplace_back("scheduled-crashes", cfg);
    }
    {
        ScenarioConfig cfg = small();
        FaultPlan::Churn churn;
        churn.crash_rate_per_s = 0.4;
        churn.start = SimTime::seconds(10.0);
        churn.max_concurrent_down = 5;
        cfg.faults.churn = churn;
        cases.emplace_back("churn", cfg);
    }
    {
        ScenarioConfig cfg = small();
        FaultPlan::GilbertElliott ge;
        ge.mean_good_s = 1.0;
        ge.mean_bad_s = 0.5;
        ge.loss_bad = 0.9;
        cfg.faults.gilbert_elliott = ge;
        cases.emplace_back("loss-bursts", cfg);
    }
    {
        ScenarioConfig cfg = small();
        cfg.faults.jams.push_back(
            {Vec2{750, 150}, 200.0, SimTime::seconds(15.0), SimTime::seconds(45.0)});
        cases.emplace_back("jam-region", cfg);
    }
    {
        ScenarioConfig cfg = small();
        FaultPlan::GpsNoise noise;
        noise.sigma_m = 15.0;
        cfg.faults.gps_noise = noise;
        cases.emplace_back("gps-noise", cfg);
    }
    {
        ScenarioConfig cfg = small();
        cfg.location_service = routing::LocationService::Mode::kAnonymous;
        FaultPlan::AlsOutage outage;
        outage.target = 3;
        outage.at = SimTime::seconds(25.0);
        outage.duration = SimTime::seconds(20.0);
        cfg.faults.als_outages.push_back(outage);
        cases.emplace_back("als-outage", cfg);
    }
    {
        ScenarioConfig cfg = small();
        cfg.location_service = routing::LocationService::Mode::kAnonymous;
        FaultPlan::Partition split;
        split.boundary_x_m = 750.0;  // mid-area vertical split
        split.start = SimTime::seconds(15.0);
        split.heal = SimTime::seconds(40.0);
        cfg.faults.partitions.push_back(split);
        cases.emplace_back("partition", cfg);
    }
    {
        ScenarioConfig cfg = small();
        cfg.location_service = routing::LocationService::Mode::kAnonymous;
        FaultPlan::ServerFlap flap;
        flap.target = 3;
        flap.start = SimTime::seconds(15.0);
        flap.stop = SimTime::seconds(45.0);
        cfg.faults.server_flaps.push_back(flap);
        cases.emplace_back("server-flap", cfg);
    }

    for (auto& [name, cfg] : cases) {
        SCOPED_TRACE(name);
        ScenarioResult r = ScenarioRunner(cfg).run();
        EXPECT_GT(r.metrics.counter("fault.faults_injected"), 0u);
        EXPECT_EQ(r.invariant_violations(), 0u);
        EXPECT_GT(r.metrics.counter("inv.frames_checked"), 0u);
    }
}

TEST(ChurnStress, ResilienceCountersSurfaceInResult) {
    ScenarioConfig cfg = churn_base();
    cfg.num_nodes = 25;
    cfg.sim_seconds = 60.0;
    cfg.traffic_stop_s = 50.0;
    cfg.faults.crashes.push_back({5, SimTime::seconds(20.0), SimTime::seconds(10.0)});
    cfg.faults.crashes.push_back({9, SimTime::seconds(22.0), SimTime::seconds(10.0)});
    cfg.faults.jams.push_back(
        {Vec2{400, 150}, 150.0, SimTime::seconds(10.0), SimTime::seconds(40.0)});
    ScenarioResult r = ScenarioRunner(cfg).run();

    EXPECT_EQ(r.metrics.counter("fault.node_crashes"), 2u);
    EXPECT_EQ(r.metrics.counter("fault.node_recoveries"), 2u);
    EXPECT_GE(r.metrics.counter("fault.faults_injected"), 3u);
    EXPECT_GT(r.metrics.counter("fault.frames_lost_jam"), 0u);
    EXPECT_EQ(r.invariant_violations(), 0u);
}

TEST(ChurnStress, AlsOutageDegradesResolutionGracefully) {
    // With the anonymous location service under a server-grid outage the run
    // must complete with some failed resolutions at most — never a crash,
    // never an invariant violation — and the outage is visible in the
    // fault.* counters.
    ScenarioConfig cfg = churn_base();
    cfg.num_nodes = 30;
    cfg.sim_seconds = 90.0;
    cfg.traffic_stop_s = 80.0;
    cfg.location_service = routing::LocationService::Mode::kAnonymous;
    FaultPlan::AlsOutage outage;
    outage.target = 2;
    outage.at = SimTime::seconds(30.0);
    outage.duration = SimTime::seconds(25.0);
    cfg.faults.als_outages.push_back(outage);
    ScenarioResult r = ScenarioRunner(cfg).run();

    EXPECT_GE(r.metrics.counter("fault.als_outages"), 1u);
    EXPECT_GT(r.metrics.counter("fault.node_crashes"), 0u);
    EXPECT_GT(r.metrics.counter("ls.queries_sent"), 0u);
    EXPECT_EQ(r.invariant_violations(), 0u);
}

}  // namespace
