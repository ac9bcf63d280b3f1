#include <gtest/gtest.h>

#include <set>

#include "util/cli.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using workload::Scheme;
using workload::ScenarioConfig;
using workload::ScenarioRunner;

// ----------------------------------------------------------------- CLI

TEST(Cli, ParsesKeyValueAndFlags) {
    const char* argv[] = {"prog", "--nodes=50", "--verbose", "--rate=2.5",
                          "positional", "--name=abc"};
    util::CliArgs args(6, const_cast<char**>(argv));
    EXPECT_EQ(args.get("nodes", std::int64_t{0}), 50);
    EXPECT_TRUE(args.get("verbose", false));
    EXPECT_DOUBLE_EQ(args.get("rate", 0.0), 2.5);
    EXPECT_EQ(args.get("name", std::string{}), "abc");
    ASSERT_EQ(args.positionals().size(), 1u);
    EXPECT_EQ(args.positionals()[0], "positional");
    EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, DefaultsWhenMissing) {
    const char* argv[] = {"prog"};
    util::CliArgs args(1, const_cast<char**>(argv));
    EXPECT_EQ(args.get("nodes", std::int64_t{7}), 7);
    EXPECT_FALSE(args.has("nodes"));
    EXPECT_DOUBLE_EQ(args.get("rate", 1.5), 1.5);
}

TEST(Cli, BooleanSpellings) {
    const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no", "--d=yes", "--e"};
    util::CliArgs args(6, const_cast<char**>(argv));
    EXPECT_FALSE(args.get("a", true));
    EXPECT_FALSE(args.get("b", true));
    EXPECT_FALSE(args.get("c", true));
    EXPECT_TRUE(args.get("d", false));
    EXPECT_TRUE(args.get("e", false));
}

// ----------------------------------------------------------- workload wiring

ScenarioConfig tiny(Scheme scheme) {
    ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.num_nodes = 25;
    cfg.sim_seconds = 40.0;
    cfg.traffic_start_s = 5.0;
    cfg.traffic_stop_s = 35.0;
    cfg.seed = 5;
    return cfg;
}

TEST(Workload, CbrPacketCountMatchesRateAndDuration) {
    ScenarioConfig cfg = tiny(Scheme::kGpsrGreedy);
    cfg.num_flows = 10;
    cfg.cbr_pps = 2.0;
    ScenarioRunner runner(cfg);
    const auto r = runner.run();
    // Each flow starts in [5,15] s and stops at 35 s: 40-60 packets each.
    EXPECT_GE(r.app_sent, 10u * 40u);
    EXPECT_LE(r.app_sent, 10u * 62u);
}

TEST(Workload, SenderCountRespected) {
    ScenarioConfig cfg = tiny(Scheme::kGpsrGreedy);
    cfg.num_flows = 30;
    cfg.num_senders = 5;
    ScenarioRunner runner(cfg);
    runner.setup();
    // Count distinct sources among agents with app_sent > 0 after a run.
    runner.network().start_agents();
    runner.network().sim().run_until(util::SimTime::seconds(cfg.sim_seconds));
    std::set<net::NodeId> sources;
    for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
        auto* g = runner.gpsr_agent(static_cast<net::NodeId>(i));
        if (g && g->stats().app_sent > 0) sources.insert(static_cast<net::NodeId>(i));
    }
    EXPECT_LE(sources.size(), 5u);
    EXPECT_GE(sources.size(), 3u);  // all five should usually fire
}

TEST(Workload, DeliveryFractionNeverExceedsOne) {
    for (Scheme s : {Scheme::kGpsrGreedy, Scheme::kAgfwAck, Scheme::kAgfwNoAck}) {
        const auto r = ScenarioRunner(tiny(s)).run();
        EXPECT_LE(r.delivery_fraction(), 1.0) << workload::scheme_name(s);
        EXPECT_GE(r.delivery_fraction(), 0.0);
        EXPECT_LE(r.app_delivered, r.app_sent);
    }
}

TEST(Workload, LatencyPercentilesOrdered) {
    const auto r = ScenarioRunner(tiny(Scheme::kAgfwAck)).run();
    EXPECT_LE(r.p50_latency_ms(), r.p95_latency_ms());
    EXPECT_GT(r.avg_latency_ms(), 0.0);
    EXPECT_GE(r.avg_hops(), 1.0);
}

TEST(Workload, SchemeSelectsMacMode) {
    // GPSR uses RTS/CTS unicast; AGFW never does.
    const auto gpsr = ScenarioRunner(tiny(Scheme::kGpsrGreedy)).run();
    EXPECT_GT(gpsr.metrics.counter("mac.rts_sent"), 0u);
    const auto agfw = ScenarioRunner(tiny(Scheme::kAgfwAck)).run();
    EXPECT_EQ(agfw.metrics.counter("mac.rts_sent"), 0u);
    EXPECT_GT(agfw.metrics.counter("mac.data_sent"), 0u);
}

TEST(Workload, TrafficStopsAtConfiguredTime) {
    ScenarioConfig cfg = tiny(Scheme::kGpsrGreedy);
    cfg.num_flows = 5;
    cfg.cbr_pps = 1.0;
    cfg.traffic_stop_s = 10.0;  // flows start in [5,15]: some never fire
    const auto r = ScenarioRunner(cfg).run();
    // At most ~5 s of traffic per flow.
    EXPECT_LE(r.app_sent, 5u * 7u);
}

TEST(Workload, PerimeterStatsFlowThrough) {
    ScenarioConfig cfg = tiny(Scheme::kAgfwAck);
    cfg.num_nodes = 20;  // sparse: greedy failures happen
    cfg.agfw.enable_perimeter = true;
    const auto r = ScenarioRunner(cfg).run();
    // No crash, and the counters are wired (>= 0 trivially; exercise read).
    EXPECT_GE(r.metrics.counter("agfw.perimeter_entries") +
                  r.metrics.counter("agfw.perimeter_forwards") +
                  r.metrics.counter("agfw.perimeter_recoveries"),
              0u);
}

TEST(Workload, EventsProcessedScalesWithDensity) {
    ScenarioConfig small = tiny(Scheme::kAgfwAck);
    ScenarioConfig large = tiny(Scheme::kAgfwAck);
    large.num_nodes = 60;
    const auto a = ScenarioRunner(small).run();
    const auto b = ScenarioRunner(large).run();
    EXPECT_GT(b.events_processed, a.events_processed);
}

}  // namespace
