#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using workload::Scheme;
using workload::ScenarioConfig;
using workload::ScenarioResult;
using workload::ScenarioRunner;

ScenarioConfig small_config(Scheme scheme, std::uint64_t seed = 1) {
    ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.num_nodes = 40;
    cfg.sim_seconds = 60.0;
    cfg.traffic_stop_s = 50.0;
    cfg.seed = seed;
    return cfg;
}

TEST(Scenario, SchemeNames) {
    EXPECT_EQ(workload::scheme_name(Scheme::kGpsrGreedy), "gpsr-greedy");
    EXPECT_EQ(workload::scheme_name(Scheme::kAgfwAck), "agfw-ack");
    EXPECT_EQ(workload::scheme_name(Scheme::kAgfwNoAck), "agfw-noack");
}

TEST(Scenario, GpsrBaselineDeliversWell) {
    ScenarioRunner runner(small_config(Scheme::kGpsrGreedy));
    const ScenarioResult r = runner.run();
    EXPECT_GT(r.app_sent, 3000u);
    // 40 nodes on the 1500x300 strip is on the sparse side: greedy local
    // maxima cost a few percent even for the baseline.
    EXPECT_GT(r.delivery_fraction(), 0.8);
    EXPECT_GT(r.avg_latency_ms(), 0.0);
    EXPECT_GT(r.avg_hops(), 1.0);
    EXPECT_GT(r.metrics.counter("mac.rts_sent"), 0u);       // RTS/CTS in use
    EXPECT_EQ(r.metrics.counter("agfw.acks_sent"), 0u);      // no NL acks in GPSR
    // Wire discipline holds for the baseline too.
    EXPECT_GT(r.metrics.counter("inv.packets_checked"), 0u);
    EXPECT_EQ(r.invariant_violations(), 0u);
}

TEST(Scenario, AgfwAckMatchesGpsrDelivery) {
    const ScenarioResult gpsr = ScenarioRunner(small_config(Scheme::kGpsrGreedy)).run();
    const ScenarioResult agfw = ScenarioRunner(small_config(Scheme::kAgfwAck)).run();
    // Figure 1(a): AGFW with ACK has "almost same performance" as GPSR.
    EXPECT_NEAR(agfw.delivery_fraction(), gpsr.delivery_fraction(), 0.05);
    EXPECT_EQ(agfw.metrics.counter("mac.rts_sent"), 0u);    // anonymous broadcasts: no handshake
    EXPECT_GT(agfw.metrics.counter("agfw.acks_sent"), 0u);
    EXPECT_GT(agfw.metrics.counter("agfw.trapdoor_opens"), 0u);
    // The anonymity/addressing/reliability invariants hold throughout.
    EXPECT_GT(agfw.metrics.counter("inv.frames_checked"), 0u);
    EXPECT_EQ(agfw.invariant_violations(), 0u);
}

TEST(Scenario, AgfwNoAckDeliversWorse) {
    const ScenarioResult ack = ScenarioRunner(small_config(Scheme::kAgfwAck)).run();
    const ScenarioResult noack = ScenarioRunner(small_config(Scheme::kAgfwNoAck)).run();
    // Figure 1(a): the unacknowledged variant is "not satisfactory".
    EXPECT_LT(noack.delivery_fraction(), ack.delivery_fraction() - 0.1);
    EXPECT_EQ(noack.metrics.counter("agfw.acks_sent"), 0u);
    EXPECT_EQ(noack.metrics.counter("agfw.retransmissions"), 0u);
}

TEST(Scenario, DeterministicForSeed) {
    const ScenarioResult a = ScenarioRunner(small_config(Scheme::kAgfwAck, 9)).run();
    const ScenarioResult b = ScenarioRunner(small_config(Scheme::kAgfwAck, 9)).run();
    EXPECT_EQ(a.app_sent, b.app_sent);
    EXPECT_EQ(a.app_delivered, b.app_delivered);
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_DOUBLE_EQ(a.avg_latency_ms(), b.avg_latency_ms());
    EXPECT_EQ(a.metrics.counter("phy.frames_corrupted"), b.metrics.counter("phy.frames_corrupted"));
}

TEST(Scenario, DifferentSeedsDiffer) {
    const ScenarioResult a = ScenarioRunner(small_config(Scheme::kAgfwAck, 1)).run();
    const ScenarioResult b = ScenarioRunner(small_config(Scheme::kAgfwAck, 2)).run();
    EXPECT_NE(a.events_processed, b.events_processed);
}

TEST(Scenario, CryptoCostsRaiseLatency) {
    ScenarioConfig with = small_config(Scheme::kAgfwAck, 4);
    ScenarioConfig without = small_config(Scheme::kAgfwAck, 4);
    without.agfw.charge_crypto_costs = false;
    const ScenarioResult r_with = ScenarioRunner(with).run();
    const ScenarioResult r_without = ScenarioRunner(without).run();
    // The 8.5 ms trapdoor decryption at the last hop must be visible.
    EXPECT_GT(r_with.avg_latency_ms(), r_without.avg_latency_ms() + 4.0);
}

TEST(Scenario, AuthenticatedHellosCostControlBytes) {
    ScenarioConfig plain_cfg = small_config(Scheme::kAgfwAck, 6);
    ScenarioConfig auth_cfg = small_config(Scheme::kAgfwAck, 6);
    auth_cfg.agfw.authenticated_hello = true;
    auth_cfg.agfw.ring_k = 4;
    const ScenarioResult plain = ScenarioRunner(plain_cfg).run();
    const ScenarioResult auth = ScenarioRunner(auth_cfg).run();
    EXPECT_GT(auth.metrics.counter("agfw.control_bytes"),
              plain.metrics.counter("agfw.control_bytes") * 3);
    EXPECT_GT(auth.metrics.counter("agfw.cert_fetches"), 0u);
}

TEST(Scenario, AuthenticatedHelloRingDrawsArePinned) {
    // Values captured when each agent still held its own copy of the id
    // list: a change in the shared list's order or size, or in the ring's
    // RNG draws, moves them.
    ScenarioConfig cfg = small_config(Scheme::kAgfwAck, 6);
    cfg.agfw.authenticated_hello = true;
    cfg.agfw.ring_k = 4;
    const ScenarioResult r = ScenarioRunner(cfg).run();
    EXPECT_EQ(r.metrics.counter("agfw.hello_verified"), 17346u);
    EXPECT_EQ(r.metrics.counter("agfw.cert_fetches"), 1600u);
    EXPECT_EQ(r.metrics.counter("agfw.control_bytes"), 1178909u);
    EXPECT_EQ(r.events_processed, 117671u);
    EXPECT_EQ(r.app_delivered, 4221u);
}

TEST(Scenario, AgentParamsReachTheAgents) {
    // cfg.agfw is the only owner of the agent settings: the runner must not
    // overwrite them (use_net_ack alone follows the scheme).
    ScenarioConfig cfg = small_config(Scheme::kAgfwAck, 3);
    cfg.num_nodes = 20;
    cfg.sim_seconds = 20.0;
    cfg.traffic_stop_s = 15.0;
    cfg.agfw.authenticated_hello = true;
    cfg.agfw.ring_k = 2;
    cfg.agfw.charge_crypto_costs = false;
    ScenarioRunner runner(cfg);
    const ScenarioResult r = runner.run();
    const core::AgfwAgent::Params& p = runner.agfw_agent(0)->params();
    EXPECT_TRUE(p.authenticated_hello);
    EXPECT_EQ(p.ring_k, 2u);
    EXPECT_FALSE(p.charge_crypto_costs);
    EXPECT_GT(r.metrics.counter("agfw.hello_verified"), 0u);
}

/// Resident set size in MiB from /proc/self/status; negative if unreadable.
double vm_rss_mib() {
    std::ifstream f("/proc/self/status");
    for (std::string line; std::getline(f, line);)
        if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    return -1.0;
}

TEST(Scenario, AgfwSetupFootprintIsLinearInNodes) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer shadow memory inflates RSS";
#endif
    const double before = vm_rss_mib();
    if (before < 0.0) GTEST_SKIP() << "/proc/self/status is unreadable";
    ScenarioConfig cfg = small_config(Scheme::kAgfwAck);
    cfg.num_nodes = 5000;
    ScenarioRunner runner(cfg);
    runner.setup();
    // A per-agent copy of the 5000-id ring universe alone would be 190 MiB.
    EXPECT_LT(vm_rss_mib() - before, 64.0);
}

TEST(Scenario, LocationServiceModeRuns) {
    ScenarioConfig cfg = small_config(Scheme::kAgfwAck, 8);
    cfg.location_service = routing::LocationService::Mode::kAnonymous;
    cfg.traffic_start_s = 20.0;  // let updates propagate first
    const ScenarioResult r = ScenarioRunner(cfg).run();
    EXPECT_GT(r.metrics.counter("ls.updates_sent"), 0u);
    EXPECT_GT(r.metrics.counter("ls.queries_sent"), 0u);
    EXPECT_GT(r.metrics.counter("ls.resolved_ok"), 0u);
    // Some packets deliver through the full anonymous stack.
    EXPECT_GT(r.delivery_fraction(), 0.3);
    // ALS traffic also stays identity-free on the air.
    EXPECT_EQ(r.invariant_violations(), 0u);
}

TEST(Scenario, RealCryptoScenarioEndToEnd) {
    // The whole runner with genuine RSA-512 trapdoors (small and short).
    ScenarioConfig cfg = small_config(Scheme::kAgfwAck, 12);
    cfg.num_nodes = 15;
    cfg.num_flows = 4;
    cfg.num_senders = 4;
    cfg.sim_seconds = 30.0;
    cfg.traffic_stop_s = 25.0;
    cfg.use_real_crypto = true;
    const ScenarioResult r = ScenarioRunner(cfg).run();
    EXPECT_GT(r.app_sent, 0u);
    EXPECT_GT(r.metrics.counter("agfw.trapdoor_attempts"), 0u);
    EXPECT_EQ(r.metrics.counter("agfw.trapdoor_opens"), r.app_delivered);  // only destinations open
}

TEST(Scenario, RunnerExposesNetworkAndAgents) {
    ScenarioRunner runner(small_config(Scheme::kAgfwAck));
    runner.setup();
    EXPECT_EQ(runner.network().size(), 40u);
    EXPECT_NE(runner.agfw_agent(0), nullptr);
    EXPECT_EQ(runner.gpsr_agent(0), nullptr);
}

TEST(Scenario, HigherDensityDegradesGpsrLatencyNotAgfw) {
    // The Figure 1(b) crossover, in miniature (shorter run, two densities).
    ScenarioConfig gpsr_low = small_config(Scheme::kGpsrGreedy, 10);
    ScenarioConfig gpsr_high = small_config(Scheme::kGpsrGreedy, 10);
    gpsr_high.num_nodes = 150;
    ScenarioConfig agfw_high = small_config(Scheme::kAgfwAck, 10);
    agfw_high.num_nodes = 150;
    const ScenarioResult g_low = ScenarioRunner(gpsr_low).run();
    const ScenarioResult g_high = ScenarioRunner(gpsr_high).run();
    const ScenarioResult a_high = ScenarioRunner(agfw_high).run();
    EXPECT_GT(g_high.avg_latency_ms(), g_low.avg_latency_ms() * 2);
    EXPECT_LT(a_high.avg_latency_ms(), g_high.avg_latency_ms());
}

}  // namespace
