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
using mac::Mac80211;
using mac::MacParams;
using net::MacAddr;
using net::Packet;
using net::PacketPtr;
using util::SimTime;
using util::Vec2;

struct Station {
    std::unique_ptr<mobility::StationaryMobility> mobility;
    std::unique_ptr<phy::Radio> radio;
    std::unique_ptr<Mac80211> mac;
    std::vector<PacketPtr> received;
    std::vector<bool> tx_results;
};

struct Rig {
    explicit Rig(phy::PhyParams phy_params = {}) : channel(sim, phy_params) {}

    Station& add(Vec2 pos, MacParams params = {}) {
        auto st = std::make_unique<Station>();
        st->mobility = std::make_unique<mobility::StationaryMobility>(pos);
        st->radio = std::make_unique<phy::Radio>(sim, channel, *st->mobility);
        const MacAddr addr = stations.size() + 1;
        st->mac = std::make_unique<Mac80211>(sim, *st->radio, addr, params,
                                             util::Rng(addr * 7919));
        Station* raw = st.get();
        st->mac->set_rx_handler(
            [raw](const PacketPtr& p, MacAddr) { raw->received.push_back(p); });
        st->mac->set_tx_done_handler(
            [raw](const PacketPtr&, MacAddr, bool ok) { raw->tx_results.push_back(ok); });
        stations.push_back(std::move(st));
        return *stations.back();
    }

    static PacketPtr packet(std::uint32_t bytes = 64, std::uint32_t seq = 0) {
        auto p = std::make_shared<Packet>();
        p->wire_bytes = bytes;
        p->seq = seq;
        return p;
    }

    sim::Simulator sim;
    phy::Channel channel;
    std::vector<std::unique_ptr<Station>> stations;
};

TEST(Mac, UnicastDeliversWithRtsCts) {
    Rig rig;
    Station& a = rig.add({0, 0});
    Station& b = rig.add({100, 0});
    a.mac->send_unicast(Rig::packet(), b.mac->address());
    rig.sim.run_until(1_s);
    ASSERT_EQ(b.received.size(), 1u);
    ASSERT_EQ(a.tx_results.size(), 1u);
    EXPECT_TRUE(a.tx_results[0]);
    // Full RTS/CTS/DATA/ACK exchange on the air.
    EXPECT_EQ(a.mac->stats().rts_sent, 1u);
    EXPECT_EQ(b.mac->stats().cts_sent, 1u);
    EXPECT_EQ(a.mac->stats().data_sent, 1u);
    EXPECT_EQ(b.mac->stats().ack_sent, 1u);
    EXPECT_EQ(a.mac->stats().unicast_delivered, 1u);
}

TEST(Mac, UnicastWithoutRtsCts) {
    MacParams params;
    params.use_rtscts = false;
    Rig rig;
    Station& a = rig.add({0, 0}, params);
    Station& b = rig.add({100, 0}, params);
    a.mac->send_unicast(Rig::packet(), b.mac->address());
    rig.sim.run_until(1_s);
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(a.mac->stats().rts_sent, 0u);
    EXPECT_EQ(b.mac->stats().ack_sent, 1u);
    EXPECT_TRUE(a.tx_results[0]);
}

TEST(Mac, BroadcastReachesAllNeighbors) {
    Rig rig;
    Station& a = rig.add({0, 0});
    Station& b = rig.add({100, 0});
    Station& c = rig.add({0, 100});
    Station& d = rig.add({1000, 0});  // out of range
    a.mac->send_broadcast(Rig::packet());
    rig.sim.run_until(1_s);
    EXPECT_EQ(b.received.size(), 1u);
    EXPECT_EQ(c.received.size(), 1u);
    EXPECT_TRUE(d.received.empty());
    // Broadcast: no handshake frames at all.
    EXPECT_EQ(a.mac->stats().rts_sent, 0u);
    EXPECT_EQ(b.mac->stats().cts_sent, 0u);
    EXPECT_EQ(b.mac->stats().ack_sent, 0u);
    ASSERT_EQ(a.tx_results.size(), 1u);
    EXPECT_TRUE(a.tx_results[0]);  // broadcast "success" = went on air
}

TEST(Mac, UnreachableUnicastFailsAfterRetries) {
    Rig rig;
    Station& a = rig.add({0, 0});
    rig.add({1000, 0});  // addressee exists but out of range
    a.mac->send_unicast(Rig::packet(), 2);
    rig.sim.run_until(2_s);
    ASSERT_EQ(a.tx_results.size(), 1u);
    EXPECT_FALSE(a.tx_results[0]);
    EXPECT_EQ(a.mac->stats().unicast_drop_retry, 1u);
    // Short retry limit 7 => 8 RTS attempts total.
    EXPECT_EQ(a.mac->stats().rts_sent, 8u);
    EXPECT_EQ(a.mac->stats().retries, 8u);
}

TEST(Mac, BroadcastLatencyIsLowerThanUnicast) {
    // §5's core mechanism: no RTS/CTS handshake for broadcast.
    SimTime bcast_done, ucast_done;
    {
        Rig rig;
        Station& a = rig.add({0, 0});
        Station& b = rig.add({100, 0});
        rig.sim.at(SimTime::zero(), [&] { a.mac->send_broadcast(Rig::packet()); });
        b.mac->set_rx_handler([&](const PacketPtr&, MacAddr) { bcast_done = rig.sim.now(); });
        rig.sim.run_until(1_s);
    }
    {
        Rig rig;
        Station& a = rig.add({0, 0});
        Station& b = rig.add({100, 0});
        rig.sim.at(SimTime::zero(), [&] { a.mac->send_unicast(Rig::packet(), 2); });
        b.mac->set_rx_handler([&](const PacketPtr&, MacAddr) { ucast_done = rig.sim.now(); });
        rig.sim.run_until(1_s);
    }
    EXPECT_GT(bcast_done, SimTime::zero());
    EXPECT_GT(ucast_done, SimTime::zero());
    EXPECT_LT(bcast_done, ucast_done);
}

TEST(Mac, QueueOverflowDropsTail) {
    MacParams params;
    params.queue_limit = 2;
    Rig rig;
    Station& a = rig.add({0, 0}, params);
    rig.add({100, 0});
    EXPECT_TRUE(a.mac->send_unicast(Rig::packet(), 2));
    EXPECT_TRUE(a.mac->send_unicast(Rig::packet(), 2));
    EXPECT_FALSE(a.mac->send_unicast(Rig::packet(), 2));  // full
    EXPECT_EQ(a.mac->stats().drop_queue_full, 1u);
    rig.sim.run_until(1_s);
    EXPECT_EQ(a.mac->stats().unicast_delivered, 2u);
}

TEST(Mac, QueuedPacketsAllDeliverInOrder) {
    Rig rig;
    Station& a = rig.add({0, 0});
    Station& b = rig.add({100, 0});
    for (std::uint32_t i = 0; i < 10; ++i)
        a.mac->send_unicast(Rig::packet(64, i), b.mac->address());
    rig.sim.run_until(2_s);
    ASSERT_EQ(b.received.size(), 10u);
    for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(b.received[i]->seq, i);
}

TEST(Mac, ContendersShareTheChannel) {
    Rig rig;
    Station& a = rig.add({0, 0});
    Station& b = rig.add({50, 0});
    Station& c = rig.add({25, 50});
    for (int i = 0; i < 5; ++i) {
        a.mac->send_unicast(Rig::packet(), c.mac->address());
        b.mac->send_unicast(Rig::packet(), c.mac->address());
    }
    rig.sim.run_until(5_s);
    EXPECT_EQ(c.received.size(), 10u);
}

TEST(Mac, NavDefersThirdParty) {
    // c overhears a's RTS to b and must defer its own transmission (NAV)
    // until the whole exchange completes. The DATA frame is made large so
    // c's send lands squarely inside the exchange window.
    Rig rig;
    Station& a = rig.add({0, 0});
    Station& b = rig.add({100, 0});
    Station& c = rig.add({50, 50});
    Station& d = rig.add({50, 120});
    a.mac->send_unicast(Rig::packet(10000), b.mac->address());  // ~40 ms DATA
    // Queue c's broadcast once the RTS/CTS handshake is surely done and the
    // long DATA frame is in flight (access delay is < 1 ms here).
    rig.sim.at(5_ms, [&] { c.mac->send_broadcast(Rig::packet(100, /*seq=*/777)); });
    rig.sim.run_until(1_s);
    // b hears a's DATA exactly once, intact (c deferred), plus c's broadcast.
    int from_a = 0;
    for (const auto& p : b.received)
        if (p->seq != 777) ++from_a;
    EXPECT_EQ(from_a, 1);
    ASSERT_FALSE(d.received.empty());   // c's broadcast went out afterwards
    EXPECT_TRUE(a.tx_results[0]);
    EXPECT_EQ(a.mac->stats().retries, 0u);  // the exchange was never disturbed
}

TEST(Mac, ReceiverDedupsMacRetransmissions) {
    // Force an ACK loss so the sender retransmits: receiver must deliver the
    // packet upstream exactly once. We emulate by a heavily loaded channel
    // with an interferer near the sender (outside receiver's range).
    MacParams params;
    params.use_rtscts = false;
    Rig rig;
    Station& a = rig.add({0, 0}, params);
    Station& b = rig.add({240, 0}, params);
    // Interferer close to a, far from b: can kill ACKs at a while b decodes
    // DATA fine. Fire it right where the ACK would be.
    Station& jam = rig.add({-200, 0}, params);
    bool jammed = false;
    b.mac->set_rx_handler([&](const PacketPtr& p, MacAddr) {
        b.received.push_back(p);
        if (!jammed) {
            jammed = true;
            // b is about to ACK after SIFS; jam a's reception of it.
            jam.radio->start_tx([] {
                phy::Frame f;
                f.type = phy::Frame::Type::kData;
                f.wire_bytes = 50;
                return f;
            }());
        }
    });
    a.mac->send_unicast(Rig::packet(), b.mac->address());
    rig.sim.run_until(2_s);
    // The MAC retransmitted at least once...
    EXPECT_GE(a.mac->stats().retries, 1u);
    // ...but upstream saw the packet once.
    EXPECT_EQ(b.received.size(), 1u);
    EXPECT_GE(b.mac->stats().rx_duplicates, 1u);
}

TEST(Mac, AnonymousSourceHidesMacAddress) {
    MacParams params;
    params.anonymous_source = true;
    Rig rig;
    Station& a = rig.add({0, 0}, params);
    rig.add({100, 0}, params);
    MacAddr seen_src = 0;
    rig.channel.add_snoop([&](const phy::Frame& f, const Vec2&) { seen_src = f.src; });
    a.mac->send_broadcast(Rig::packet());
    rig.sim.run_until(1_s);
    EXPECT_EQ(seen_src, net::kBroadcastAddr);
}

TEST(Mac, NormalSourceExposesMacAddress) {
    Rig rig;
    Station& a = rig.add({0, 0});
    rig.add({100, 0});
    MacAddr seen_src = 0;
    rig.channel.add_snoop([&](const phy::Frame& f, const Vec2&) {
        if (f.type == phy::Frame::Type::kData) seen_src = f.src;
    });
    a.mac->send_broadcast(Rig::packet());
    rig.sim.run_until(1_s);
    EXPECT_EQ(seen_src, a.mac->address());
}

TEST(Mac, BackoffSpreadsSimultaneousSenders) {
    // All stations queue a broadcast at t=0; random backoff must serialize
    // most of them (some residual collisions are expected and fine).
    Rig rig;
    std::vector<Station*> senders;
    for (int i = 0; i < 6; ++i) senders.push_back(&rig.add({i * 10.0, 0}));
    Station& rx = rig.add({25, 60});
    for (auto* s : senders) s->mac->send_broadcast(Rig::packet());
    rig.sim.run_until(1_s);
    EXPECT_GE(rx.received.size(), 4u);
}

}  // namespace
