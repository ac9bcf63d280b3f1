// Tests for the runtime protocol invariant checker: clean scenarios must
// produce zero violations, deliberately broken traffic must be counted, and
// the checker must stay a passive observer (never changing run outcomes).

#include <gtest/gtest.h>

#include "analysis/invariant_checker.hpp"
#include "published_metrics.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using analysis::InvariantChecker;
using workload::Scheme;
using workload::ScenarioConfig;
using workload::ScenarioResult;
using workload::ScenarioRunner;

ScenarioConfig small_config(Scheme scheme, std::uint64_t seed = 1) {
    ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.num_nodes = 30;
    cfg.sim_seconds = 40.0;
    cfg.traffic_stop_s = 35.0;
    cfg.seed = seed;
    return cfg;
}

/// Broadcast one synthetic network packet from `node`'s radio so the
/// checker's channel tap observes it (the snoop fires synchronously).
void inject(net::Network& network, net::NodeId node, const net::Packet& pkt) {
    phy::Frame frame;
    frame.type = phy::Frame::Type::kData;
    frame.payload = std::make_shared<net::Packet>(pkt);
    frame.wire_bytes = 64;
    network.node(node).radio().start_tx(frame);
}

TEST(InvariantChecker, AgfwScenarioRunsClean) {
    ScenarioRunner runner(small_config(Scheme::kAgfwAck));
    const ScenarioResult r = runner.run();
    ASSERT_NE(runner.invariant_checker(), nullptr);
    EXPECT_GT(r.metrics.counter("inv.frames_checked"), 0u);
    EXPECT_GT(r.metrics.counter("inv.packets_checked"), 0u);
    EXPECT_GT(r.metrics.counter("inv.sweeps"), 30u);
    EXPECT_GT(r.metrics.counter("inv.ant_entries_checked"), 0u);
    std::string counts;
    for (const auto& [name, v] : r.metrics.counters)
        if (name.starts_with("inv.")) counts += " " + name + "=" + std::to_string(v);
    EXPECT_EQ(r.invariant_violations(), 0u) << counts;
}

TEST(InvariantChecker, GpsrScenarioRunsClean) {
    ScenarioRunner runner(small_config(Scheme::kGpsrGreedy));
    const ScenarioResult r = runner.run();
    // GPSR is the identity-bearing baseline: only the wire-discipline checks
    // apply, and those must still pass.
    EXPECT_GT(r.metrics.counter("inv.packets_checked"), 0u);
    EXPECT_EQ(test::published_counter(r.metrics, "inv.cleartext_identity"), 0u);
    EXPECT_EQ(r.invariant_violations(), 0u);
}

TEST(InvariantChecker, DisabledScenarioHasNoChecker) {
    ScenarioConfig cfg = small_config(Scheme::kAgfwAck);
    cfg.sim_seconds = 10.0;
    cfg.check_invariants = false;
    ScenarioRunner runner(cfg);
    const ScenarioResult r = runner.run();
    EXPECT_EQ(runner.invariant_checker(), nullptr);
    for (const auto& [name, v] : r.metrics.counters) EXPECT_FALSE(name.starts_with("inv.")) << name;
}

TEST(InvariantChecker, CheckerIsPassive) {
    // Enabling the checker must not perturb the simulation in any way.
    ScenarioConfig on = small_config(Scheme::kAgfwAck, 5);
    ScenarioConfig off = small_config(Scheme::kAgfwAck, 5);
    off.check_invariants = false;
    const ScenarioResult r_on = ScenarioRunner(on).run();
    const ScenarioResult r_off = ScenarioRunner(off).run();
    EXPECT_EQ(r_on.metrics.counter("app.sent"), r_off.metrics.counter("app.sent"));
    EXPECT_EQ(r_on.metrics.counter("app.delivered"), r_off.metrics.counter("app.delivered"));
    EXPECT_EQ(r_on.metrics.counter("phy.transmissions"),
              r_off.metrics.counter("phy.transmissions"));
    EXPECT_DOUBLE_EQ(r_on.avg_latency_ms(), r_off.avg_latency_ms());
}

TEST(InvariantChecker, DeterministicAcrossRuns) {
    const ScenarioResult a = ScenarioRunner(small_config(Scheme::kAgfwAck, 9)).run();
    const ScenarioResult b = ScenarioRunner(small_config(Scheme::kAgfwAck, 9)).run();
    for (const char* name : {"inv.frames_checked", "inv.packets_checked",
                             "inv.last_attempt_frames", "inv.rotated_out_targets"}) {
        EXPECT_EQ(a.metrics.counter(name), b.metrics.counter(name)) << name;
    }
}

TEST(InvariantChecker, StrictCheckerFlagsGpsrTraffic) {
    // The checker must *see* breakage when traffic genuinely is identifying:
    // hold the GPSR baseline to anonymous-run expectations.
    ScenarioConfig cfg = small_config(Scheme::kGpsrGreedy, 3);
    cfg.sim_seconds = 15.0;
    cfg.check_invariants = false;
    ScenarioRunner runner(cfg);
    runner.setup();
    InvariantChecker strict(runner.network(), {});
    strict.attach();
    runner.run();
    EXPECT_GT(strict.counters().cleartext_identity, 0u);
    EXPECT_GT(strict.counters().mac_address_exposed, 0u);
    EXPECT_GT(strict.counters().violations(), 0u);
}

TEST(InvariantChecker, StrictCheckerFlagsMacAblation) {
    // The §3.2 correlation-attack ablation leaks real MAC addresses. The
    // scenario's own checker follows the config (no violations), while a
    // second, strict checker on the same channel sees the exposure — both
    // taps observing one run exercises the multi-tap snoop path.
    ScenarioConfig cfg = small_config(Scheme::kAgfwAck, 4);
    cfg.sim_seconds = 15.0;
    cfg.anonymous_mac = false;
    ScenarioRunner runner(cfg);
    runner.setup();
    InvariantChecker::Params strict_params;
    strict_params.ant_ttl = cfg.agfw.ant.ttl;
    strict_params.hello_interval = cfg.agfw.hello_interval;
    InvariantChecker strict(runner.network(), strict_params);
    strict.attach();
    const ScenarioResult r = runner.run();
    EXPECT_EQ(r.invariant_violations(), 0u);
    EXPECT_GT(strict.counters().mac_address_exposed, 0u);
    EXPECT_EQ(strict.counters().cleartext_identity, 0u);
}

TEST(InvariantChecker, SyntheticViolationsAreCounted) {
    ScenarioConfig cfg = small_config(Scheme::kAgfwAck, 7);
    cfg.num_nodes = 10;
    cfg.check_invariants = false;
    ScenarioRunner runner(cfg);
    runner.setup();
    InvariantChecker checker(runner.network(), {});
    checker.attach();
    auto& network = runner.network();

    // An ACK for a uid that never travelled as data.
    net::Packet ack;
    ack.type = net::PacketType::kAgfwAck;
    ack.ack_uids = {12345};
    inject(network, 0, ack);

    // Data addressed to a never-announced pseudonym, with no trapdoor.
    net::Packet bogus;
    bogus.type = net::PacketType::kAgfwData;
    bogus.uid = 1;
    bogus.next_hop_pseudonym = 0xBADF00D;
    inject(network, 1, bogus);

    // Cleartext source identity on an anonymous data packet.
    net::Packet leaky;
    leaky.type = net::PacketType::kAgfwData;
    leaky.uid = 2;
    leaky.src_id = 7;
    leaky.trapdoor = {0x01, 0x02, 0x03};
    inject(network, 2, leaky);

    // Acking uid 1 is now fine: it was on the air above.
    net::Packet ok_ack;
    ok_ack.type = net::PacketType::kAgfwAck;
    ok_ack.ack_uids = {1};
    inject(network, 3, ok_ack);

    const auto& c = checker.counters();
    EXPECT_EQ(c.packets_checked, 4u);
    EXPECT_EQ(c.ack_without_delivery, 1u);
    EXPECT_EQ(c.unknown_pseudonym, 1u);
    EXPECT_EQ(c.missing_trapdoor, 1u);
    EXPECT_EQ(c.cleartext_identity, 1u);
    EXPECT_EQ(c.violations(), 4u);
}

TEST(InvariantChecker, LastAttemptAndFreshTargetsAreNotViolations) {
    ScenarioConfig cfg = small_config(Scheme::kAgfwAck, 8);
    cfg.num_nodes = 10;
    cfg.check_invariants = false;
    ScenarioRunner runner(cfg);
    runner.setup();
    InvariantChecker checker(runner.network(), {});
    checker.attach();
    auto& network = runner.network();

    // §3.2 "last forwarding attempt": pseudonym 0 is legal, not a violation.
    net::Packet last;
    last.type = net::PacketType::kAgfwData;
    last.uid = 1;
    last.next_hop_pseudonym = 0;
    last.trapdoor = {0x0A};
    inject(network, 0, last);

    // A hello announcing a pseudonym, then data addressed to it in-window.
    net::Packet hello;
    hello.type = net::PacketType::kAgfwHello;
    hello.hello_pseudonym = 0x42;
    inject(network, 1, hello);
    net::Packet data;
    data.type = net::PacketType::kAgfwData;
    data.uid = 2;
    data.next_hop_pseudonym = 0x42;
    data.trapdoor = {0x0B};
    inject(network, 2, data);

    const auto& c = checker.counters();
    EXPECT_EQ(c.last_attempt_frames, 1u);
    EXPECT_EQ(c.unknown_pseudonym, 0u);
    EXPECT_EQ(c.violations(), 0u);
}

}  // namespace
