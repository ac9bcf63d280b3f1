#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mac/mac80211.hpp"
#include "mobility/mobility.hpp"
#include "net/packet.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace geoanon;
using namespace geoanon::util::literals;
using phy::Channel;
using phy::Frame;
using phy::PhyParams;
using phy::Radio;
using util::SimTime;
using util::Vec2;

/// Test rig: a channel plus stationary radios with received-frame capture.
struct Rig {
    explicit Rig(PhyParams params = {}) : channel(sim, params) {}

    Radio& add(Vec2 pos) {
        models.push_back(std::make_unique<mobility::StationaryMobility>(pos));
        radios.push_back(std::make_unique<Radio>(sim, channel, *models.back()));
        received.emplace_back();
        auto idx = received.size() - 1;
        radios.back()->set_mac_hooks(
            nullptr, nullptr, [this, idx](const Frame& f) { received[idx].push_back(f); });
        return *radios.back();
    }

    Frame frame(std::uint32_t bytes = 100) {
        Frame f;
        f.type = Frame::Type::kData;
        f.wire_bytes = bytes;
        return f;
    }

    sim::Simulator sim;
    Channel channel;
    std::vector<std::unique_ptr<mobility::StationaryMobility>> models;
    std::vector<std::unique_ptr<Radio>> radios;
    std::vector<std::vector<Frame>> received;
};

TEST(PhyParams, AirtimeFormula) {
    PhyParams p;
    // 100 bytes at 2 Mb/s = 400 us + 192 us PLCP.
    EXPECT_EQ(p.airtime(100), SimTime::micros(592));
    EXPECT_EQ(p.airtime(0), SimTime::micros(192));
}

TEST(Phy, DeliversWithinRange) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    rig.add({200, 0});  // inside 250 m
    tx.start_tx(rig.frame());
    rig.sim.run();
    ASSERT_EQ(rig.received[1].size(), 1u);
    EXPECT_EQ(rig.received[1][0].wire_bytes, 100u);
    EXPECT_EQ(rig.channel.stats().deliveries, 1u);
}

TEST(Phy, NoDeliveryBeyondRange) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    rig.add({251, 0});  // just outside decode range
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_TRUE(rig.received[1].empty());
}

TEST(Phy, SenderDoesNotHearItself) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_TRUE(rig.received[0].empty());
}

TEST(Phy, DeliveryAtExactFrameEnd) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    rig.add({100, 0});
    tx.start_tx(rig.frame(100));
    rig.sim.run_until(SimTime::micros(591));
    EXPECT_TRUE(rig.received[1].empty());  // still on the air
    rig.sim.run_until(SimTime::micros(592));
    EXPECT_EQ(rig.received[1].size(), 1u);
}

TEST(Phy, OverlappingTransmissionsCollideAtReceiver) {
    Rig rig;
    Radio& a = rig.add({0, 0});
    Radio& b = rig.add({100, 100});
    rig.add({100, 0});  // hears both
    rig.sim.at(SimTime::zero(), [&] { a.start_tx(rig.frame()); });
    rig.sim.at(SimTime::micros(100), [&] { b.start_tx(rig.frame()); });
    rig.sim.run();
    EXPECT_TRUE(rig.received[2].empty());
    EXPECT_GE(rig.channel.stats().collisions, 1u);
}

TEST(Phy, HiddenTerminalCollision) {
    // Two senders out of carrier-sense range of each other, one receiver
    // that decodes both: the classic hidden-terminal loss AGFW's broadcasts
    // suffer from (§5). CS range is shrunk so the textbook geometry fits.
    PhyParams p;
    p.range_m = 250;
    p.cs_range_m = 300;
    Rig rig(p);
    Radio& s1 = rig.add({0, 0});
    Radio& s2 = rig.add({400, 0});  // 400 > 300: hidden from s1
    rig.add({200, 0});              // within 250 m of both
    rig.sim.at(SimTime::zero(), [&] { s1.start_tx(rig.frame()); });
    rig.sim.at(SimTime::micros(50), [&] {
        EXPECT_FALSE(s2.energy_busy());  // s2 cannot sense s1: hidden terminal
        s2.start_tx(rig.frame());
    });
    rig.sim.run();
    EXPECT_TRUE(rig.received[2].empty());  // both frames corrupted at m
    EXPECT_GE(rig.channel.stats().collisions, 1u);
}

TEST(Phy, InterferenceFromBeyondCsOfSender) {
    // With the ns-2 default geometry (250 m decode / 550 m CS), a node more
    // than 550 m from the sender cannot defer to it, yet still corrupts a
    // receiver sitting within 250 m of the sender — the collision mode that
    // actually drives AGFW's broadcast losses on the 1500x300 strip.
    Rig rig;
    Radio& sender = rig.add({0, 0});
    Radio& interferer = rig.add({640, 0});  // > 550 from sender
    rig.add({240, 0});                      // decodes sender; 400 m from interferer
    rig.sim.at(SimTime::zero(), [&] { sender.start_tx(rig.frame()); });
    rig.sim.at(SimTime::micros(80), [&] {
        EXPECT_FALSE(interferer.energy_busy());
        interferer.start_tx(rig.frame());
    });
    rig.sim.run();
    EXPECT_TRUE(rig.received[2].empty());
}

TEST(Phy, InterferenceRangeCorruptsWithoutDelivering) {
    // A transmitter between decode range and CS range corrupts reception but
    // its own frame is not decodable there.
    Rig rig;
    Radio& near = rig.add({0, 0});
    Radio& far = rig.add({400, 0});  // 400: beyond 250, inside 550 of rx
    rig.add({100, 0});
    rig.sim.at(SimTime::zero(), [&] { near.start_tx(rig.frame()); });
    rig.sim.at(SimTime::micros(100), [&] { far.start_tx(rig.frame()); });
    rig.sim.run();
    EXPECT_TRUE(rig.received[2].empty());
}

TEST(Phy, CarrierSenseWithinCsRange) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    Radio& sensing = rig.add({500, 0});    // inside 550 CS range
    Radio& oblivious = rig.add({600, 0});  // outside
    rig.sim.at(SimTime::zero(), [&] { tx.start_tx(rig.frame()); });
    rig.sim.at(SimTime::micros(50), [&] {
        EXPECT_TRUE(sensing.energy_busy());
        EXPECT_FALSE(oblivious.energy_busy());
        EXPECT_TRUE(tx.energy_busy());  // own transmission counts
    });
    rig.sim.run();
    rig.sim.at(rig.sim.now(), [&] {});
    EXPECT_FALSE(sensing.energy_busy());  // idle after frame end
}

TEST(Phy, BusyIdleCallbacks) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    Radio& rx = rig.add({100, 0});
    int busy = 0, idle = 0;
    rx.set_mac_hooks([&] { ++busy; }, [&] { ++idle; }, nullptr);
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(busy, 1);
    EXPECT_EQ(idle, 1);
}

TEST(Phy, EdgesOnlyWhenWanted) {
    // A radio that does not want edges still counts energy (carrier sense
    // and corruption are unchanged); only on_busy/on_idle are skipped.
    Rig rig;
    Radio& tx = rig.add({0, 0});
    Radio& rx = rig.add({100, 0});
    int busy = 0, idle = 0, heard = 0;
    rx.set_mac_hooks([&] { ++busy; }, [&] { ++idle; }, [&](const Frame&) { ++heard; });
    rx.set_wants_edges(false);
    const SimTime air = rig.channel.params().airtime(100);
    bool busy_mid = false;
    rig.sim.at(SimTime::zero(), [&] { tx.start_tx(rig.frame()); });
    rig.sim.at(SimTime::nanos(air.ns() / 2), [&] { busy_mid = rx.energy_busy(); });
    rig.sim.at(air * 2, [&] {
        rx.set_wants_edges(true);
        tx.start_tx(rig.frame());
    });
    rig.sim.run();
    EXPECT_TRUE(busy_mid);
    EXPECT_FALSE(rx.energy_busy());
    EXPECT_EQ(heard, 2);
    EXPECT_EQ(busy, 1);  // the second frame only
    EXPECT_EQ(idle, 1);
}

TEST(Phy, IdleMacSchedulesNothingWhileCarrierSenseFollowsTheMedium) {
    // A MAC with nothing queued has no backoff to freeze and nothing to
    // start, so foreign frames make it schedule no event, while its radio's
    // energy_busy() still tracks the medium. After a crash, a re-enable and
    // an enqueue in the middle of a foreign frame, it contends normally:
    // its frame starts after that frame ends plus DIFS (50 us).
    sim::Simulator sim;
    Channel channel(sim, PhyParams{});
    mobility::StationaryMobility at_tx({0, 0});
    mobility::StationaryMobility at_mac({100, 0});
    Radio tx(sim, channel, at_tx);
    Radio radio(sim, channel, at_mac);
    mac::Mac80211 mac(sim, radio, /*addr=*/2, mac::MacParams{}, util::Rng(7));
    std::vector<std::uint32_t> heard_by_tx;  // seqs of frames tx decoded
    tx.set_mac_hooks(nullptr, nullptr, [&](const Frame& f) { heard_by_tx.push_back(f.seq); });
    std::vector<SimTime> mac_tx_starts;
    channel.add_snoop([&](const Frame&, const Vec2& pos) {
        if (pos == at_mac.position_at(sim.now())) mac_tx_starts.push_back(sim.now());
    });

    Frame foreign;
    foreign.type = Frame::Type::kData;
    foreign.src = 1;
    foreign.dst = 9;  // overheard, not addressed to the MAC; no NAV
    foreign.wire_bytes = 2000;
    const SimTime air = channel.params().airtime(foreign.wire_bytes);

    bool busy_mid = false, idle_after = false;
    std::uint64_t events_before = 0;
    sim.at(SimTime::zero(), [&] {
        events_before = sim.events_processed();
        tx.start_tx(foreign);
    });
    sim.at(SimTime::nanos(air.ns() / 2), [&] { busy_mid = radio.energy_busy(); });
    sim.at(air + 1_us, [&] { idle_after = !radio.energy_busy(); });
    sim.run_until(air + 2_us);
    EXPECT_TRUE(busy_mid);
    EXPECT_TRUE(idle_after);
    // After the first event: the mid probe, the channel's end-of-airtime
    // event and the after probe. Nothing from the MAC.
    EXPECT_EQ(sim.events_processed() - events_before, 3u);
    EXPECT_EQ(sim.pending_events(), 0u);

    // Crash during a foreign frame, recover, then enqueue mid-frame.
    const SimTime t1 = sim.now() + 1_ms;
    sim.at(t1, [&] {
        mac.set_enabled(false);
        radio.set_enabled(false);
        tx.start_tx(foreign);
    });
    sim.at(t1 + SimTime::nanos(air.ns() / 4), [&] {
        radio.set_enabled(true);
        mac.set_enabled(true);
    });
    sim.at(t1 + SimTime::nanos(air.ns() / 2), [&] {
        auto pkt = net::make_packet();
        pkt->wire_bytes = 64;
        EXPECT_TRUE(mac.send_broadcast(std::move(pkt)));
    });
    sim.run_until(t1 + 1_s);
    ASSERT_EQ(mac_tx_starts.size(), 1u);
    EXPECT_GE(mac_tx_starts[0], t1 + air + 50_us);
    EXPECT_EQ(mac.stats().data_sent, 1u);
    EXPECT_EQ(heard_by_tx.size(), 1u);  // the MAC's broadcast arrived intact
    EXPECT_EQ(mac.queue_length(), 0u);
}

TEST(Phy, QuietRadioWakesForAnEnqueueMidFrame) {
    // The radio sits 400 m from the sender: it senses the frame but cannot
    // decode it, and with its edges off it is quiet when the frame starts,
    // so the channel counts that energy on the radio's row alone.
    // Turning edges on mid-frame must see the medium busy, then get exactly
    // one on_idle, at the frame's end.
    Rig rig;
    Radio& tx = rig.add({0, 0});
    Radio& rx = rig.add({400, 0});
    int busy = 0;
    std::vector<SimTime> idles;
    rx.set_mac_hooks([&] { ++busy; }, [&] { idles.push_back(rig.sim.now()); }, nullptr);
    rx.set_wants_edges(false);
    const SimTime air = rig.channel.params().airtime(1000);
    bool busy_mid = false;
    rig.sim.at(SimTime::zero(), [&] { tx.start_tx(rig.frame(1000)); });
    rig.sim.at(SimTime::nanos(air.ns() / 2), [&] {
        rx.set_wants_edges(true);
        busy_mid = rx.energy_busy();
    });
    rig.sim.run();
    EXPECT_TRUE(busy_mid);
    EXPECT_EQ(busy, 0);
    EXPECT_EQ(idles, std::vector<SimTime>{air});
    EXPECT_FALSE(rx.energy_busy());
    EXPECT_TRUE(rig.received[1].empty());
}

TEST(Phy, QuietMacEnqueuingMidFrameSendsAfterEndPlusDifs) {
    // As above with the real MAC: it is idle (edges off) and 400 m from the
    // foreign sender when the frame starts, enqueues mid-frame, and must
    // defer until the frame ends plus DIFS (50 us), then send once.
    sim::Simulator sim;
    Channel channel(sim, PhyParams{});
    mobility::StationaryMobility at_tx({0, 0});
    mobility::StationaryMobility at_mac({400, 0});
    Radio tx(sim, channel, at_tx);
    Radio radio(sim, channel, at_mac);
    mac::Mac80211 mac(sim, radio, /*addr=*/2, mac::MacParams{}, util::Rng(11));
    std::vector<SimTime> mac_tx_starts;
    channel.add_snoop([&](const Frame&, const Vec2& pos) {
        if (pos == at_mac.position_at(sim.now())) mac_tx_starts.push_back(sim.now());
    });
    Frame foreign;
    foreign.src = 1;
    foreign.dst = 9;
    foreign.wire_bytes = 2000;
    const SimTime air = channel.params().airtime(foreign.wire_bytes);
    sim.at(SimTime::zero(), [&] { tx.start_tx(foreign); });
    sim.at(SimTime::nanos(air.ns() / 2), [&] {
        auto pkt = net::make_packet();
        pkt->wire_bytes = 64;
        EXPECT_TRUE(mac.send_broadcast(std::move(pkt)));
    });
    sim.run_until(1_s);
    ASSERT_EQ(mac_tx_starts.size(), 1u);
    EXPECT_GE(mac_tx_starts[0], air + 50_us);
    EXPECT_EQ(mac.stats().data_sent, 1u);
    EXPECT_EQ(mac.queue_length(), 0u);
}

TEST(Phy, CarrierSenseOutlastsTheLastReception) {
    // A long undecodable frame (from 400 m) starts while the radio is
    // quiet; a decodable one (from 100 m) then starts and ends inside it.
    // When that reception ends the radio is quiet again, yet its energy
    // count still holds the long frame: energy_busy() stays true until the
    // long frame ends.
    Rig rig;
    Radio& rx = rig.add({0, 0});
    Radio& far = rig.add({-400, 0});
    Radio& near = rig.add({100, 0});
    const SimTime long_air = rig.channel.params().airtime(2000);
    const SimTime short_air = rig.channel.params().airtime(100);
    const SimTime near_start = 100_us;
    ASSERT_LT(near_start + short_air, long_air);
    std::vector<bool> busy;
    rig.sim.at(SimTime::zero(), [&] { far.start_tx(rig.frame(2000)); });
    rig.sim.at(near_start, [&] { near.start_tx(rig.frame(100)); });
    for (const SimTime t : {near_start + short_air + 1_us, long_air - 1_us, long_air + 1_us})
        rig.sim.at(t, [&] { busy.push_back(rx.energy_busy()); });
    rig.sim.run();
    EXPECT_EQ(busy, (std::vector<bool>{true, true, false}));
    EXPECT_TRUE(rig.received[0].empty());
    EXPECT_EQ(rx.stats().frames_corrupted, 1u);
}

TEST(Phy, NullEdgeHooksStillTrackCarrierSense) {
    // A radio with no busy/idle hooks (the scaling bench's beacon radios)
    // is quiet whether or not it wants edges; its energy_busy() must still
    // follow decodable, undecodable and its own frames.
    Rig rig;
    Radio& rx = rig.add({0, 0});
    Radio& near = rig.add({100, 0});
    Radio& far = rig.add({400, 0});
    rx.set_mac_hooks(nullptr, nullptr, nullptr);
    const SimTime air = rig.channel.params().airtime(100);
    const SimTime half = SimTime::nanos(air.ns() / 2);
    std::vector<bool> busy;
    const auto probe = [&](SimTime t) { rig.sim.at(t, [&] { busy.push_back(rx.energy_busy()); }); };
    rig.sim.at(SimTime::zero(), [&] { near.start_tx(rig.frame()); });
    probe(half);
    probe(air + 1_us);
    rig.sim.at(air * 2, [&] { far.start_tx(rig.frame()); });
    probe(air * 2 + half);
    probe(air * 3 + 1_us);
    rig.sim.at(air * 4, [&] {
        rx.set_wants_edges(false);
        rx.start_tx(rig.frame());
    });
    probe(air * 4 + half);
    probe(air * 5 + 1_us);
    rig.sim.run();
    EXPECT_EQ(busy, (std::vector<bool>{true, false, true, false, true, false}));
    EXPECT_EQ(rig.received[1].size(), 1u);  // near heard rx's own frame
}

TEST(Phy, TransmittingWhileReceivingCorrupts) {
    Rig rig;
    Radio& a = rig.add({0, 0});
    Radio& b = rig.add({100, 0});
    rig.sim.at(SimTime::zero(), [&] { a.start_tx(rig.frame()); });
    // b starts its own transmission mid-reception: half-duplex corruption.
    rig.sim.at(SimTime::micros(100), [&] { b.start_tx(rig.frame(10)); });
    rig.sim.run();
    EXPECT_TRUE(rig.received[1].empty());
    // a still cannot hear b (a was transmitting at b's start too).
    EXPECT_TRUE(rig.received[0].empty());
}

TEST(Phy, BackToBackFramesBothDeliver) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    rig.add({100, 0});
    const SimTime air = rig.channel.params().airtime(100);
    rig.sim.at(SimTime::zero(), [&] { tx.start_tx(rig.frame()); });
    rig.sim.at(air + 1_us, [&] { tx.start_tx(rig.frame()); });
    rig.sim.run();
    EXPECT_EQ(rig.received[1].size(), 2u);
}

TEST(Phy, SnoopSeesEveryTransmission) {
    Rig rig;
    int snooped = 0;
    rig.channel.add_snoop([&](const Frame&, const Vec2& pos) {
        ++snooped;
        EXPECT_EQ(pos, (Vec2{0, 0}));
    });
    Radio& tx = rig.add({0, 0});
    rig.add({1000, 0});  // no receivers in range: snoop still fires
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(snooped, 1);
}

TEST(Phy, TapsDispatchInRegistrationOrder) {
    // Regular taps fire in registration order, then audit taps: trace event
    // order depends on it.
    Rig rig;
    std::vector<int> order;
    rig.channel.add_audit_snoop(
        [&](const Frame&, const Vec2&, net::NodeId) { order.push_back(3); });
    rig.channel.add_snoop([&](const Frame&, const Vec2&) { order.push_back(1); });
    rig.channel.add_snoop([&](const Frame&, const Vec2&) { order.push_back(2); });
    Radio& tx = rig.add({0, 0});
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Phy, ClearSnoopsDropsEveryTap) {
    Rig rig;
    int primary = 0, extra = 0;
    rig.channel.add_snoop([&](const Frame&, const Vec2&) { ++primary; });
    rig.channel.add_audit_snoop([&](const Frame&, const Vec2&, net::NodeId) { ++extra; });
    rig.channel.clear_snoops();
    Radio& tx = rig.add({0, 0});
    tx.start_tx(rig.frame());
    rig.sim.run_until(1_s);  // finite horizon: the rig transmits again below
    EXPECT_EQ(primary, 0);
    EXPECT_EQ(extra, 0);

    // The channel is reusable after clearing.
    rig.channel.add_snoop([&](const Frame&, const Vec2&) { ++primary; });
    tx.start_tx(rig.frame());
    rig.sim.run_until(2_s);
    EXPECT_EQ(primary, 1);
}

TEST(Phy, StatsCountersConsistent) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    rig.add({100, 0});
    rig.add({200, 0});
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(rig.channel.stats().transmissions, 1u);
    EXPECT_EQ(rig.channel.stats().deliveries, 2u);
    EXPECT_EQ(tx.stats().frames_sent, 1u);
    EXPECT_EQ(rig.radios[1]->stats().frames_delivered, 1u);
}

}  // namespace
