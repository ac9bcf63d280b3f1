// Stress and failure-injection tests: these check invariants under load and
// pathological configurations rather than specific behaviors.

#include <gtest/gtest.h>

#include "mac/mac80211.hpp"
#include "mobility/mobility.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using namespace geoanon::util::literals;
using util::SimTime;

// ------------------------------------------------------ simulator under load

TEST(Stress, SimulatorRandomScheduleMaintainsTimeOrder) {
    sim::Simulator sim;
    util::Rng rng(99);
    SimTime last = SimTime::zero();
    bool ordered = true;
    std::function<void(int)> spawn = [&](int depth) {
        if (sim.now() < last) ordered = false;
        last = sim.now();
        if (depth <= 0) return;
        const int fanout = static_cast<int>(rng.uniform_int(0, 3));
        for (int i = 0; i < fanout; ++i) {
            sim.after(SimTime::micros(rng.uniform_int(0, 5000)),
                      [&, depth] { spawn(depth - 1); });
        }
    };
    for (int i = 0; i < 50; ++i)
        sim.at(SimTime::micros(rng.uniform_int(0, 1000)), [&] { spawn(6); });
    sim.run_until(SimTime::seconds(10));
    EXPECT_TRUE(ordered);
    EXPECT_GT(sim.events_processed(), 100u);
}

TEST(Stress, CancelStormIsHarmless) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    int fired = 0;
    for (int i = 0; i < 1000; ++i)
        ids.push_back(sim.at(SimTime::millis(i), [&] { ++fired; }));
    for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
    for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);  // double
    sim.run();
    EXPECT_EQ(fired, 500);
}

// ----------------------------------------------------------- broadcast storm

TEST(Stress, BroadcastStormCountersStayConsistent) {
    sim::Simulator sim;
    phy::Channel channel(sim, {});
    struct St {
        std::unique_ptr<mobility::StationaryMobility> mobility;
        std::unique_ptr<phy::Radio> radio;
        std::unique_ptr<mac::Mac80211> mac;
    };
    std::vector<St> stations;
    util::Rng rng(3);
    for (int i = 0; i < 20; ++i) {
        St st;
        const util::Vec2 pos{rng.uniform(0, 200), rng.uniform(0, 200)};
        st.mobility = std::make_unique<mobility::StationaryMobility>(pos);
        st.radio = std::make_unique<phy::Radio>(sim, channel, *st.mobility);
        st.mac = std::make_unique<mac::Mac80211>(sim, *st.radio, i + 1,
                                                 mac::MacParams{}, util::Rng(i));
        stations.push_back(std::move(st));
    }
    // Everyone floods 20 broadcasts at t=0.
    for (auto& st : stations) {
        for (int i = 0; i < 20; ++i) {
            auto pkt = std::make_shared<net::Packet>();
            pkt->wire_bytes = 100;
            st.mac->send_broadcast(pkt);
        }
    }
    sim.run_until(SimTime::seconds(30));

    std::uint64_t sent = 0;
    for (auto& st : stations) {
        sent += st.mac->stats().data_sent;
        EXPECT_EQ(st.mac->queue_length(), 0u);  // everything drained
    }
    EXPECT_EQ(sent, 400u);  // broadcasts are never retransmitted by the MAC
    EXPECT_EQ(channel.stats().transmissions, 400u);
    // Deliveries: at most (stations-1) per transmission.
    EXPECT_LE(channel.stats().deliveries, 400u * 19u);
}

// --------------------------------------------------- pathological scenarios

TEST(Stress, ZeroFlowScenarioRuns) {
    workload::ScenarioConfig cfg;
    cfg.scheme = workload::Scheme::kAgfwAck;
    cfg.num_nodes = 10;
    cfg.num_flows = 0;  // hello traffic only
    cfg.num_senders = 1;
    cfg.sim_seconds = 30.0;
    const auto r = workload::ScenarioRunner(cfg).run();
    EXPECT_EQ(r.app_sent, 0u);
    EXPECT_EQ(r.app_delivered, 0u);
    EXPECT_GT(r.metrics.counter("agfw.hello_sent"), 0u);
}

TEST(Stress, TwoNodeScenarioRuns) {
    workload::ScenarioConfig cfg;
    cfg.scheme = workload::Scheme::kAgfwAck;
    cfg.num_nodes = 2;
    cfg.num_flows = 1;
    cfg.num_senders = 1;
    cfg.sim_seconds = 60.0;
    cfg.traffic_stop_s = 50.0;
    const auto r = workload::ScenarioRunner(cfg).run();
    EXPECT_GT(r.app_sent, 0u);
    // Two RWP nodes on a 1500x300 strip are often out of range: just demand
    // consistency, not delivery.
    EXPECT_LE(r.app_delivered, r.app_sent);
}

TEST(Stress, SaturatingTrafficDoesNotWedge) {
    workload::ScenarioConfig cfg;
    cfg.scheme = workload::Scheme::kAgfwAck;
    cfg.num_nodes = 30;
    cfg.num_flows = 30;
    cfg.cbr_pps = 50.0;  // ~12x the paper's rate: deliberate overload
    cfg.sim_seconds = 20.0;
    cfg.traffic_start_s = 2.0;  // flows begin in [2,12] s
    cfg.traffic_stop_s = 15.0;
    const auto r = workload::ScenarioRunner(cfg).run();
    EXPECT_GT(r.app_sent, 5000u);
    EXPECT_GT(r.delivery_fraction(), 0.0);  // something still gets through
    EXPECT_LT(r.delivery_fraction(), 1.0);  // and the overload is visible
    // Even under 12x overload the protocol never violates its invariants.
    EXPECT_EQ(r.invariant_violations(), 0u);
}

TEST(Stress, HighMobilityNoPauseRuns) {
    workload::ScenarioConfig cfg;
    cfg.scheme = workload::Scheme::kAgfwAck;
    cfg.num_nodes = 40;
    cfg.min_speed_mps = 15.0;
    cfg.max_speed_mps = 30.0;
    cfg.pause_s = 0.001;
    cfg.sim_seconds = 40.0;
    cfg.traffic_stop_s = 35.0;
    const auto r = workload::ScenarioRunner(cfg).run();
    EXPECT_GT(r.app_sent, 0u);
    // Extreme churn hurts but must not zero out delivery entirely.
    EXPECT_GT(r.delivery_fraction(), 0.2);
    // Mobility churn stresses ANT freshness; the invariants must still hold.
    EXPECT_EQ(r.invariant_violations(), 0u);
}

TEST(Stress, TinyRadioRangeMostlyPartitions) {
    workload::ScenarioConfig cfg;
    cfg.scheme = workload::Scheme::kAgfwAck;
    cfg.num_nodes = 30;
    cfg.phy.range_m = 60.0;  // sparse coverage: frequent local maxima
    cfg.phy.cs_range_m = 130.0;
    cfg.sim_seconds = 30.0;
    cfg.traffic_stop_s = 25.0;
    const auto r = workload::ScenarioRunner(cfg).run();
    EXPECT_LT(r.delivery_fraction(), 0.5);
    EXPECT_GT(r.metrics.counter("agfw.drop_no_route") + r.metrics.counter("agfw.drop_unreachable"),
              0u);
    EXPECT_EQ(r.invariant_violations(), 0u);
}

}  // namespace
