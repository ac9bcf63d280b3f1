#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "agfw_rig.hpp"
#include "core/agfw.hpp"
#include "crypto/engine.hpp"
#include "fault/fault.hpp"
#include "mobility/mobility.hpp"
#include "net/network.hpp"

namespace {

using namespace geoanon;
using namespace geoanon::util::literals;
using core::AgfwAgent;
using fault::FaultInjector;
using fault::FaultPlan;
using net::NodeId;
using net::Packet;
using util::SimTime;
using util::Vec2;

/// Static AGFW rig (modeled crypto, perfect oracle) for fault experiments.
using FaultNet = test::AgfwRig;

TEST(FaultPlanBasics, EmptyDetection) {
    FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    plan.jams.push_back({});
    EXPECT_FALSE(plan.empty());
    FaultPlan churny;
    churny.churn = FaultPlan::Churn{};
    EXPECT_FALSE(churny.empty());
    FaultPlan split;
    split.partitions.push_back({});
    EXPECT_FALSE(split.empty());
    FaultPlan flappy;
    flappy.server_flaps.push_back({});
    EXPECT_FALSE(flappy.empty());
}

/// Records which pseudonyms the crashed relay announced (attributed by its
/// transmit position — the rig is static) and which pseudonyms data frames
/// were addressed to afterwards.
struct TargetTap {
    explicit TargetTap(net::Network& network, Vec2 crashed_pos) {
        network.channel().add_snoop([this, crashed_pos](const phy::Frame& f,
                                                        const Vec2& tx_pos) {
            if (f.type != phy::Frame::Type::kData || !f.payload) return;
            if (f.payload->type == net::PacketType::kAgfwHello &&
                util::distance(tx_pos, crashed_pos) < 1.0)
                crashed_pseudonyms.insert(f.payload->hello_pseudonym);
            if (f.payload->type == net::PacketType::kAgfwData)
                data_targets.push_back(f.payload->next_hop_pseudonym);
        });
    }

    bool crashed_node_targeted() const {
        for (const std::uint64_t n : data_targets)
            if (crashed_pseudonyms.contains(n)) return true;
        return false;
    }

    std::unordered_set<std::uint64_t> crashed_pseudonyms;
    std::vector<std::uint64_t> data_targets;
};

TEST(Fault, SilencePurgeAvoidsCrashedNeighbor) {
    // Satellite regression: a crashed neighbor must stop being selected for
    // greedy forwarding once its hellos go silent, even though its announced
    // entry lifetime (30 s here) is nowhere near expiring. No data frame may
    // ever be addressed to one of the dead relay's pseudonyms.
    AgfwAgent::Params params;
    params.ant.ttl = 30_s;                 // announced lifetime outlives the test
    params.ant.staleness_penalty_mps = 0;  // isolate the silence mechanism
    FaultNet net({{0, 0}, {200, 0}, {180, 80}, {400, 0}}, params);
    TargetTap tap(net.network, {200, 0});
    net.run_until(5.0);
    net.network.node(1).set_up(false);  // the geometrically-best relay dies
    net.run_until(10.0);                // > ant_silence_hellos * hello_interval

    net.agents[0]->send_data(3, 0, 0, {});
    net.run_until(20.0);
    ASSERT_EQ(net.deliveries.size(), 1u);
    EXPECT_EQ(net.deliveries[0].first, 3u);
    EXPECT_GE(tap.crashed_pseudonyms.size(), 2u);  // the tap saw it beacon
    EXPECT_FALSE(tap.crashed_node_targeted());
}

TEST(Fault, WithoutSilencePurgeCrashedNeighborStillTried) {
    // Ablation twin: silence purge off, so the dead relay's 30 s entries keep
    // winning and the first copies are addressed to its pseudonyms; delivery
    // only happens through the NL-ACK blacklist/reroute machinery (given a
    // budget large enough to walk past every dead entry).
    AgfwAgent::Params params;
    params.ant.ttl = 30_s;
    params.ant.staleness_penalty_mps = 0;
    params.ant_silence_hellos = 0;  // disable the purge
    params.ack_retries = 0;         // reroute immediately on each miss
    params.reroute_limit = 32;
    FaultNet net({{0, 0}, {200, 0}, {180, 80}, {400, 0}}, params);
    TargetTap tap(net.network, {200, 0});
    net.run_until(5.0);
    net.network.node(1).set_up(false);
    net.run_until(10.0);

    net.agents[0]->send_data(3, 0, 0, {});
    net.run_until(20.0);
    EXPECT_TRUE(tap.crashed_node_targeted());
    ASSERT_EQ(net.deliveries.size(), 1u);
    // The reroute walk burned through several dead pseudonyms before the
    // live detour: strictly more data transmissions than the 2-hop path.
    EXPECT_GT(tap.data_targets.size(), 2u);
}

TEST(Fault, ScheduledCrashSilencesRadioAndRecoveryWipesState) {
    FaultNet net({{0, 0}, {150, 0}});
    FaultPlan plan;
    plan.crashes.push_back({1, SimTime::seconds(5.0), SimTime::seconds(5.0)});
    FaultInjector injector(net.network, plan);
    injector.set_recovered_probe(
        [&](NodeId id) { return net.agents[id]->ant().size() > 0; });
    injector.arm();

    net.run_until(4.9);
    const auto ant_before = net.agents[1]->ant().size();
    EXPECT_GE(ant_before, 1u);

    net.run_until(9.9);  // down window: node 0 keeps beaconing at a dead radio
    EXPECT_TRUE(injector.is_down(1));
    EXPECT_GT(net.network.node(1).radio().stats().frames_missed_down, 0u);

    net.run_until(10.05);  // just after recovery: state wiped, not yet warm
    EXPECT_FALSE(injector.is_down(1));

    net.run_until(20.0);  // hellos re-populate the table
    EXPECT_GE(net.agents[1]->ant().size(), 1u);
    const auto& s = injector.stats();
    EXPECT_EQ(s.node_crashes, 1u);
    EXPECT_EQ(s.node_recoveries, 1u);
    EXPECT_EQ(s.faults_injected, 1u);
    ASSERT_EQ(s.recovery_s.count(), 1u);
    EXPECT_GT(s.recovery_s.percentile(50), 0.0);
    EXPECT_LT(s.recovery_s.percentile(95), 10.0);
}

TEST(Fault, GilbertElliottBurstsDropFrames) {
    FaultNet net({{0, 0}, {150, 0}});
    FaultPlan plan;
    plan.seed = 7;
    FaultPlan::GilbertElliott ge;
    ge.mean_good_s = 0.5;
    ge.mean_bad_s = 0.5;
    ge.loss_good = 0.0;
    ge.loss_bad = 1.0;
    plan.gilbert_elliott = ge;
    FaultInjector injector(net.network, plan);
    injector.arm();

    net.run_until(30.0);  // hellos every 1.5 s → plenty of decode decisions
    EXPECT_GT(injector.stats().frames_lost_loss_burst, 0u);
    EXPECT_GT(net.network.channel().stats().impaired, 0u);
    // Bursty, not total: plenty of good-state frames still decode.
    EXPECT_GE(net.agents[0]->ant().size(), 1u);
}

TEST(Fault, JamRegionStarvesReceiversInside) {
    // Relay at (200,0) sits inside the jam circle: it still transmits (its
    // hellos populate everyone's tables) but can never receive, so the
    // source's data dies at it and the 0→2 path (400 m apart) stays broken.
    FaultNet net({{0, 0}, {200, 0}, {400, 0}});
    FaultPlan plan;
    plan.jams.push_back({Vec2{200, 0}, 100.0, SimTime{}, SimTime{}});
    FaultInjector injector(net.network, plan);
    injector.arm();

    net.run_until(5.0);
    EXPECT_GE(net.agents[0]->ant().size(), 1u);  // jammed relay still beacons
    EXPECT_EQ(net.agents[1]->ant().size(), 0u);  // ...but hears nothing
    net.agents[0]->send_data(2, 0, 0, {});
    net.run_until(15.0);
    EXPECT_TRUE(net.deliveries.empty());
    EXPECT_GT(injector.stats().frames_lost_jam, 0u);
}

TEST(Fault, GpsNoiseOffsetsReportedPositionDeterministically) {
    FaultNet net({{500, 150}, {650, 150}});
    FaultPlan plan;
    plan.seed = 11;
    FaultPlan::GpsNoise noise;
    noise.sigma_m = 20.0;
    plan.gps_noise = noise;
    FaultInjector injector(net.network, plan);
    injector.arm();

    const Vec2 reported = net.network.node(0).position();
    const Vec2 truth = net.network.node(0).true_position();
    EXPECT_NE(reported.x, truth.x);  // N(0,20) draw: exactly 0 is measure-zero
    EXPECT_LT(util::distance(reported, truth), 200.0);
    // Same sim time → same epoch → identical offset (pure function of seed,
    // node, epoch — no hidden RNG stream is consumed).
    const Vec2 again = net.network.node(0).position();
    EXPECT_EQ(reported.x, again.x);
    EXPECT_EQ(reported.y, again.y);
    // Different node at the same instant gets an independent offset.
    const Vec2 other_err = net.network.node(1).position() -
                           net.network.node(1).true_position();
    const Vec2 this_err = reported - truth;
    EXPECT_NE(this_err.x, other_err.x);
}

TEST(Fault, PartitionDropsCrossBoundaryFramesUntilHeal) {
    // Chain 0—1—2 straddling x=300: while the split is active nothing
    // crosses, so node 2 never hears node 1 and end-to-end data dies at the
    // boundary. After heal the same flow delivers.
    FaultNet net({{0, 0}, {200, 0}, {400, 0}});
    FaultPlan plan;
    plan.partitions.push_back(
        {/*boundary_x_m=*/300.0, SimTime{}, /*heal=*/SimTime::seconds(20.0)});
    FaultInjector injector(net.network, plan);
    injector.arm();

    net.run_until(5.0);
    EXPECT_GE(net.agents[0]->ant().size(), 1u);  // same-side hellos decode
    EXPECT_EQ(net.agents[2]->ant().size(), 0u);  // cross-boundary ones do not
    net.agents[0]->send_data(2, 0, 0, {});
    net.run_until(15.0);
    EXPECT_TRUE(net.deliveries.empty());
    EXPECT_GT(injector.stats().frames_lost_partition, 0u);
    EXPECT_EQ(injector.stats().faults_injected, 1u);

    net.run_until(25.0);  // healed: hellos cross again
    EXPECT_GE(net.agents[2]->ant().size(), 1u);
    net.agents[0]->send_data(2, 0, 1, {});
    net.run_until(35.0);
    ASSERT_EQ(net.deliveries.size(), 1u);
    EXPECT_EQ(net.deliveries[0].first, 2u);
}

TEST(Fault, PartitionNeverHealsWhenHealUnset) {
    FaultNet net({{0, 0}, {200, 0}});
    FaultPlan plan;
    plan.partitions.push_back({100.0, SimTime{}, SimTime{}});
    FaultInjector injector(net.network, plan);
    injector.arm();
    net.run_until(30.0);
    EXPECT_EQ(net.agents[0]->ant().size(), 0u);
    EXPECT_EQ(net.agents[1]->ant().size(), 0u);
    EXPECT_GT(injector.stats().frames_lost_partition, 0u);
}

TEST(Fault, ServerFlapCyclesInRadiusNodesUpAndDown) {
    // Nodes 1 and 2 sit within 100 m of node 1's position; node 0 is far
    // outside. Flapping around node 1 must cycle exactly the near pair.
    FaultNet net({{0, 0}, {600, 0}, {650, 0}});
    FaultPlan plan;
    FaultPlan::ServerFlap flap;
    flap.target = 1;
    flap.start = SimTime::seconds(2.0);
    flap.stop = SimTime::seconds(14.0);
    flap.period = SimTime::seconds(4.0);
    flap.down_time = SimTime::seconds(2.0);
    flap.radius_m = 100.0;
    plan.server_flaps.push_back(flap);
    FaultInjector injector(net.network, plan);
    injector.set_home_center(
        [&](NodeId id) { return net.network.true_position(id); });
    injector.arm();

    net.run_until(3.0);  // first cycle: both near nodes down, far node up
    EXPECT_TRUE(injector.is_down(1));
    EXPECT_TRUE(injector.is_down(2));
    EXPECT_FALSE(injector.is_down(0));
    net.run_until(5.0);  // down_time over, period not yet
    EXPECT_FALSE(injector.is_down(1));
    net.run_until(30.0);  // stop passed: everyone stays up
    EXPECT_FALSE(injector.is_down(1));
    EXPECT_FALSE(injector.is_down(2));

    const auto& s = injector.stats();
    EXPECT_EQ(s.server_flap_cycles, 3u);  // cycles at t=2, 6, 10 (14 = stop)
    EXPECT_EQ(s.node_crashes, 6u);
    EXPECT_EQ(s.node_recoveries, 6u);
}

TEST(Fault, RecoveryLatencyIsBrokenOutByCause) {
    // One scheduled crash and one flap cycle, same probe: the per-class
    // samplers must attribute each recovery to the fault class that caused
    // the crash, and the combined sampler must hold both.
    FaultNet net({{0, 0}, {150, 0}});
    FaultPlan plan;
    plan.crashes.push_back({1, SimTime::seconds(2.0), SimTime::seconds(3.0)});
    FaultPlan::ServerFlap flap;
    flap.target = 0;
    flap.start = SimTime::seconds(10.0);
    flap.stop = SimTime::seconds(11.0);  // exactly one cycle
    flap.period = SimTime::seconds(4.0);
    flap.down_time = SimTime::seconds(2.0);
    flap.radius_m = 50.0;
    plan.server_flaps.push_back(flap);
    FaultInjector injector(net.network, plan);
    injector.set_home_center(
        [&](NodeId id) { return net.network.true_position(id); });
    injector.set_recovered_probe(
        [&](NodeId id) { return net.agents[id]->ant().size() > 0; });
    injector.arm();

    net.run_until(40.0);
    const auto& s = injector.stats();
    EXPECT_EQ(s.recovery_crash_s.count(), 1u);
    EXPECT_EQ(s.recovery_flap_s.count(), 1u);
    EXPECT_EQ(s.recovery_churn_s.count(), 0u);
    EXPECT_EQ(s.recovery_outage_s.count(), 0u);
    EXPECT_EQ(s.recovery_s.count(), 2u);
}

TEST(Fault, GpsNoiseDoesNotBreakDelivery) {
    // Moderate GPS error perturbs greedy choices but the static chain still
    // delivers; the radio keeps using true positions.
    FaultNet net({{0, 0}, {200, 0}, {400, 0}});
    FaultPlan plan;
    plan.seed = 3;
    FaultPlan::GpsNoise noise;
    noise.sigma_m = 10.0;
    plan.gps_noise = noise;
    FaultInjector injector(net.network, plan);
    injector.arm();
    net.run_until(5.0);
    net.agents[0]->send_data(2, 0, 0, {});
    net.run_until(15.0);
    ASSERT_EQ(net.deliveries.size(), 1u);
}

}  // namespace
