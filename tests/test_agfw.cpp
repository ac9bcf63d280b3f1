#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "agfw_rig.hpp"
#include "fresh_leg_mobility.hpp"
#include "core/agfw.hpp"
#include "crypto/engine.hpp"
#include "mobility/mobility.hpp"
#include "net/network.hpp"

namespace {

using namespace geoanon;
using namespace geoanon::util::literals;
using core::AgfwAgent;
using net::NodeId;
using net::Packet;
using util::SimTime;
using util::Vec2;

/// The shared static rig plus a boot-time warm-up.
struct AgfwNet : test::AgfwRig {
    using AgfwRig::AgfwRig;
    void warm_up(double seconds = 5.0) { run_until(seconds); }
};

TEST(Agfw, HellosBuildAnonymousNeighborTable) {
    AgfwNet net({{0, 0}, {200, 0}, {400, 0}});
    net.warm_up();
    EXPECT_GE(net.agents[0]->ant().size(), 1u);
    EXPECT_GE(net.agents[1]->ant().size(), 2u);
    // Entries are pseudonymous: none of them equals a node id.
    for (const auto& e : net.agents[1]->ant().entries()) {
        EXPECT_NE(e.n, 0u);
        EXPECT_LT(e.n, 1ULL << 48);
    }
}

TEST(Agfw, DeliversOverMultipleHops) {
    AgfwNet net({{0, 0}, {200, 0}, {400, 0}, {600, 0}});
    net.warm_up();
    net.agents[0]->send_data(3, 0, 0, {4, 5, 6});
    net.run_until(8);
    ASSERT_EQ(net.deliveries.size(), 1u);
    EXPECT_EQ(net.deliveries[0].first, 3u);
    EXPECT_EQ(net.deliveries[0].second.body, (net::Bytes{4, 5, 6}));
    // Destination opened the trapdoor exactly where expected.
    EXPECT_EQ(net.agents[3]->stats().trapdoor_opens, 1u);
}

TEST(Agfw, OnlyDestinationOpensTrapdoor) {
    AgfwNet net({{0, 0}, {200, 0}, {400, 0}, {600, 0}});
    net.warm_up();
    net.agents[0]->send_data(3, 0, 0, {});
    net.run_until(8);
    ASSERT_EQ(net.deliveries.size(), 1u);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(net.agents[i]->stats().trapdoor_opens, 0u);
}

TEST(Agfw, TrapdoorAttemptsOnlyInLastHopRegion) {
    // The relay at 200 is 400 m from the destination location: it must relay
    // without attempting the trapdoor (§3.2's efficiency argument).
    AgfwNet net({{0, 0}, {200, 0}, {400, 0}, {600, 0}});
    net.warm_up();
    net.agents[0]->send_data(3, 0, 0, {});
    net.run_until(8);
    EXPECT_EQ(net.agents[1]->stats().trapdoor_attempts, 0u);
    // Node 2 is 200 m from the destination: inside the last-hop region, it
    // legitimately tries (and fails) before forwarding on.
    EXPECT_GE(net.agents[2]->stats().trapdoor_attempts, 1u);
}

TEST(Agfw, RealCryptoEndToEnd) {
    // Full integration with genuine RSA trapdoors (256-bit for speed).
    AgfwAgent::Params params;
    AgfwNet net({{0, 0}, {200, 0}, {400, 0}}, params, /*real_crypto=*/true);
    net.warm_up();
    net.agents[0]->send_data(2, 0, 0, {7, 7, 7});
    net.run_until(8);
    ASSERT_EQ(net.deliveries.size(), 1u);
    EXPECT_EQ(net.deliveries[0].first, 2u);
}

TEST(Agfw, NetworkAckRetransmitsUntilDelivered) {
    AgfwAgent::Params params;
    params.use_net_ack = true;
    AgfwNet net({{0, 0}, {200, 0}, {400, 0}}, params);
    net.warm_up();
    net.agents[0]->send_data(2, 0, 0, {});
    net.run_until(8);
    ASSERT_EQ(net.deliveries.size(), 1u);
    // In a quiet static network the first copy gets through: pending ACKs
    // resolved via the implicit (overheard forwarding) or explicit path.
    const auto& s0 = net.agents[0]->stats();
    EXPECT_EQ(s0.drop_unreachable, 0u);
}

TEST(Agfw, NoAckModeSendsNoAcks) {
    AgfwAgent::Params params;
    params.use_net_ack = false;
    AgfwNet net({{0, 0}, {200, 0}, {400, 0}}, params);
    net.warm_up();
    net.agents[0]->send_data(2, 0, 0, {});
    net.run_until(8);
    ASSERT_EQ(net.deliveries.size(), 1u);
    for (auto* a : net.agents) {
        EXPECT_EQ(a->stats().acks_sent, 0u);
        EXPECT_EQ(a->stats().retransmissions, 0u);
    }
}

TEST(Agfw, UnreachableNextHopFallsBackToAlternate) {
    // 0 hears a "ghost" neighbor whose hellos come from a node that then
    // leaves: NL-ACK failure must blacklist it and reroute via the other.
    class Jumper final : public test_support::FreshLegMobility {
      public:
        explicit Jumper(Vec2 home) : home_(home) {}
        Vec2 where(SimTime t) override {
            return t > SimTime::seconds(5) ? Vec2{home_.x, 9000.0} : home_;
        }
        Vec2 home_;
    };

    AgfwAgent::Params params;
    params.ant.ttl = 30_s;  // keep the ghost's entries alive artificially
    params.ant.staleness_penalty_mps = 0.0;
    // The ghost accumulates several pseudonym entries before jumping; give
    // the source enough reroute budget to burn through all of them.
    params.reroute_limit = 8;

    net::Network network(phy::PhyParams{}, 17);
    crypto::ModeledCryptoEngine engine(5, 512);
    for (crypto::NodeIdNum id = 0; id < 4; ++id) engine.register_node(id);
    mac::MacParams mp;
    mp.use_rtscts = false;
    mp.anonymous_source = true;
    std::vector<AgfwAgent*> agents;
    std::vector<std::pair<NodeId, Packet>> deliveries;
    auto add = [&](std::unique_ptr<mobility::MobilityModel> mob) {
        net::Node& node = network.add_node(std::move(mob), mp);
        auto agent = std::make_unique<AgfwAgent>(
            node, params, engine,
            [&network](NodeId id) -> std::optional<Vec2> {
                // Oracle pinned to t=0 positions so the destination location
                // stays stable even after the ghost jumps.
                return network.node(id).mobility().position_at(SimTime::zero());
            },
            [&deliveries](NodeId at, const Packet& pkt) {
                deliveries.emplace_back(at, pkt);
            });
        agents.push_back(agent.get());
        node.set_agent(std::move(agent));
    };
    add(std::make_unique<mobility::StationaryMobility>(Vec2{0, 0}));     // 0 src
    add(std::make_unique<Jumper>(Vec2{220, 30}));                         // 1 ghost (best)
    add(std::make_unique<mobility::StationaryMobility>(Vec2{200, -40})); // 2 fallback
    add(std::make_unique<mobility::StationaryMobility>(Vec2{420, 0}));   // 3 dst
    network.start_agents();
    network.sim().run_until(SimTime::seconds(5));

    network.sim().at(SimTime::seconds(5.5), [&] { agents[0]->send_data(3, 0, 0, {}); });
    network.sim().run_until(SimTime::seconds(15));
    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0].first, 3u);
    EXPECT_GE(agents[0]->stats().retransmissions, 1u);
}

TEST(Agfw, LastAttemptReachesDestinationWithStaleAnt) {
    // Destination in range of the last forwarder but its ANT entry expired:
    // the "last forwarding attempt" broadcast with n = 0 must still deliver.
    AgfwAgent::Params params;
    params.hello_interval = 100_s;  // effectively no hellos after the first
    params.ant.ttl = 3_s;           // entries die quickly
    AgfwNet net({{0, 0}, {150, 0}}, params);
    net.warm_up(6.0);  // initial hellos expired by now
    EXPECT_EQ(net.agents[0]->ant().best_next_hop({0, 0}, {150, 0},
                                                 net.network.sim().now()),
              std::nullopt);
    net.agents[0]->send_data(1, 0, 0, {});
    net.run_until(12);
    ASSERT_EQ(net.deliveries.size(), 1u);
    EXPECT_EQ(net.agents[0]->stats().last_attempts, 1u);
}

TEST(Agfw, StuckOutsideLastHopRegionDrops) {
    // Next hop gap: 0 -> (nothing within range of 700-away destination).
    AgfwAgent::Params params;
    AgfwNet net({{0, 0}, {700, 0}}, params);
    net.warm_up();
    net.agents[0]->send_data(1, 0, 0, {});
    net.run_until(8);
    EXPECT_TRUE(net.deliveries.empty());
    EXPECT_EQ(net.agents[0]->stats().drop_no_route, 1u);
}

TEST(Agfw, PseudonymRotationStillAcceptsPreviousName) {
    // A forwarder that picked the pre-rotation pseudonym must still reach
    // the neighbor (the two-latest rule, §3.1.1). With a 1.5 s hello period
    // and multi-second traffic this is exercised continuously.
    AgfwNet net({{0, 0}, {200, 0}, {400, 0}});
    net.warm_up(10.0);
    for (std::uint32_t i = 0; i < 10; ++i) {
        net.agents[0]->send_data(2, 0, i, {});
        net.run_until(10.5 + i);
    }
    EXPECT_EQ(net.deliveries.size(), 10u);
}

TEST(Agfw, AuthenticatedHellosVerifyAndBuildTable) {
    AgfwAgent::Params params;
    params.authenticated_hello = true;
    params.ring_k = 2;
    AgfwNet net({{0, 0}, {200, 0}}, params);
    net.warm_up(6.0);
    EXPECT_GE(net.agents[0]->stats().hello_verified, 1u);
    EXPECT_EQ(net.agents[0]->stats().hello_rejected, 0u);
    EXPECT_GE(net.agents[0]->ant().size(), 1u);
    // Ring-signed hellos are much bigger than plain ones.
    EXPECT_GT(net.agents[0]->stats().control_bytes,
              net.agents[0]->stats().hello_sent * 100);
}

TEST(Agfw, AuthenticatedHellosWithRealRingSignatures) {
    AgfwAgent::Params params;
    params.authenticated_hello = true;
    params.ring_k = 1;
    params.hello_interval = 2_s;
    AgfwNet net({{0, 0}, {150, 0}}, params, /*real_crypto=*/true);
    net.warm_up(5.0);
    EXPECT_GE(net.agents[0]->stats().hello_verified, 1u);
    EXPECT_EQ(net.agents[0]->stats().hello_rejected, 0u);
}

TEST(Agfw, CertByReferenceFetchesDeclineOverTime) {
    AgfwAgent::Params params;
    params.authenticated_hello = true;
    params.ring_k = 2;
    AgfwNet net({{0, 0}, {150, 0}, {80, 100}}, params);
    net.warm_up(20.0);
    // §4: explicit cert requests decline after boot — the cache can never
    // fetch more than the universe size per node.
    for (auto* a : net.agents) EXPECT_LE(a->stats().cert_fetches, 3u);
}

TEST(Agfw, NoIdentityEverOnTheAir) {
    // Sniff every frame: AGFW traffic must never carry a cleartext node id
    // or a real MAC address.
    AgfwNet net({{0, 0}, {200, 0}, {400, 0}});
    bool leaked = false;
    net.network.channel().add_snoop([&](const phy::Frame& f, const Vec2&) {
        if (f.src != net::kBroadcastAddr && f.dst != net::kBroadcastAddr) leaked = true;
        if (f.payload) {
            if (f.payload->src_id != net::kInvalidNode) leaked = true;
            if (f.payload->dst_id != net::kInvalidNode) leaked = true;
        }
    });
    net.warm_up();
    net.agents[0]->send_data(2, 0, 0, {});
    net.run_until(8);
    ASSERT_EQ(net.deliveries.size(), 1u);
    EXPECT_FALSE(leaked);
}

TEST(Agfw, UidsOnTheAirDoNotEmbedTheSourceId) {
    // Regression for the GL010 headline leak: fresh_uid() used to build
    // uids as (source id << 32 | counter), so every data frame — and every
    // ACK echoing the uid back — named the data source in cleartext. After
    // the anonymize_uid PRP, no on-air uid may carry the source id in its
    // top 32 bits, and consecutive uids from one source must not share a
    // recognizable prefix.
    AgfwNet net({{0, 0}, {150, 0}});
    std::vector<std::uint64_t> air_uids;
    net.network.channel().add_snoop([&](const phy::Frame& f, const Vec2&) {
        if (!f.payload) return;
        if (f.payload->type == net::PacketType::kAgfwData && f.payload->uid != 0)
            air_uids.push_back(f.payload->uid);
        if (f.payload->type == net::PacketType::kAgfwAck)
            for (const std::uint64_t uid : f.payload->ack_uids)
                air_uids.push_back(uid);
    });
    net.warm_up();
    for (std::uint32_t i = 0; i < 4; ++i) net.agents[0]->send_data(1, 0, i, {});
    net.run_until(10);
    EXPECT_EQ(net.deliveries.size(), 4u);
    ASSERT_GE(air_uids.size(), 8u);  // data frames + their ACKs
    std::set<std::uint64_t> tops;
    for (const std::uint64_t uid : air_uids) {
        // Pre-fix shape: uid >> 32 == source node id (0 here, with small
        // counters below). Neither half may reveal the raw layout.
        EXPECT_NE(uid >> 32, 0u) << "uid still carries source id 0 on top";
        tops.insert(uid >> 32);
    }
    // All uids from this single source used to collapse onto one top half.
    EXPECT_GT(tops.size(), 1u);
}

TEST(Agfw, DuplicateDataDeliveredOnce) {
    AgfwNet net({{0, 0}, {150, 0}});
    net.warm_up();
    net.agents[0]->send_data(1, 0, 0, {});
    net.agents[0]->send_data(1, 0, 1, {});
    net.run_until(8);
    EXPECT_EQ(net.deliveries.size(), 2u);
    EXPECT_EQ(net.agents[1]->stats().delivered, 2u);
}

TEST(Agfw, AggregatedAcksBatchMultipleUids) {
    // §3.2: one ACK may cover several received packets. Give the receiver a
    // 30 ms aggregation window and push several packets within it.
    AgfwAgent::Params params;
    params.ack_aggregation = 30_ms;
    params.piggyback_acks = false;  // force explicit ACKs so batching shows
    AgfwNet net({{0, 0}, {150, 0}}, params);
    net.warm_up();
    std::size_t ack_packets = 0;
    std::size_t acked_uids = 0;
    net.network.channel().add_snoop([&](const phy::Frame& f, const util::Vec2&) {
        if (f.payload && f.payload->type == net::PacketType::kAgfwAck) {
            ++ack_packets;
            acked_uids += f.payload->ack_uids.size();
        }
    });
    for (std::uint32_t i = 0; i < 5; ++i) net.agents[0]->send_data(1, 0, i, {});
    net.run_until(10);
    EXPECT_EQ(net.deliveries.size(), 5u);
    EXPECT_GE(acked_uids, 5u);        // every packet acknowledged
    EXPECT_LT(ack_packets, acked_uids);  // ...in fewer ACK packets
}

TEST(Agfw, ImmediateAcksAreOnePerUid) {
    AgfwAgent::Params params;
    params.piggyback_acks = false;
    AgfwNet net({{0, 0}, {150, 0}}, params);
    net.warm_up();
    std::size_t ack_packets = 0, acked_uids = 0;
    net.network.channel().add_snoop([&](const phy::Frame& f, const util::Vec2&) {
        if (f.payload && f.payload->type == net::PacketType::kAgfwAck) {
            ++ack_packets;
            acked_uids += f.payload->ack_uids.size();
        }
    });
    for (std::uint32_t i = 0; i < 5; ++i) net.agents[0]->send_data(1, 0, i, {});
    net.run_until(10);
    EXPECT_EQ(ack_packets, acked_uids);
}

TEST(Agfw, AckBackoffDoublesRetransmitGaps) {
    // Source at 0, relay at 200 (the only forward option), destination at
    // 500 — out of everyone's range, so crashing the relay starves the
    // source of ACKs and its retransmit timer runs the full schedule.
    AgfwAgent::Params params;
    params.ack_backoff = true;
    params.ack_timeout = 100_ms;
    params.ack_retries = 3;
    params.reroute_limit = 0;
    AgfwNet net({{0, 0}, {200, 0}, {500, 0}}, params);
    net.warm_up();

    std::vector<double> tx_s;
    net.network.channel().add_snoop([&](const phy::Frame& f, const Vec2&) {
        if (f.payload && f.payload->type == net::PacketType::kAgfwData)
            tx_s.push_back(net.network.sim().now().to_seconds());
    });
    net.network.node(1).set_up(false);  // silent crash: no ACK will ever come
    net.network.sim().at(SimTime::seconds(5.5),
                         [&] { net.agents[0]->send_data(2, 0, 0, {}); });
    net.run_until(12);

    // Initial copy + ack_retries rebroadcasts, then the reroute budget (0)
    // is exhausted and the packet is dropped as unreachable.
    ASSERT_EQ(tx_s.size(), 4u);
    EXPECT_EQ(net.agents[0]->stats().retransmissions, 3u);
    EXPECT_EQ(net.agents[0]->stats().drop_unreachable, 1u);
    const double g1 = tx_s[1] - tx_s[0];
    const double g2 = tx_s[2] - tx_s[1];
    const double g3 = tx_s[3] - tx_s[2];
    // Gaps follow ack_timeout * 2^attempts (plus sub-ms MAC access delay).
    EXPECT_NEAR(g1, 0.1, 0.02);
    EXPECT_NEAR(g2 / g1, 2.0, 0.3);
    EXPECT_NEAR(g3 / g2, 2.0, 0.3);
}

TEST(Agfw, FixedTimeoutKeepsRetransmitGapsFlat) {
    // Ablation twin of AckBackoffDoublesRetransmitGaps: with ack_backoff off
    // every gap equals ack_timeout.
    AgfwAgent::Params params;
    params.ack_backoff = false;
    params.ack_timeout = 100_ms;
    params.ack_retries = 3;
    params.reroute_limit = 0;
    AgfwNet net({{0, 0}, {200, 0}, {500, 0}}, params);
    net.warm_up();

    std::vector<double> tx_s;
    net.network.channel().add_snoop([&](const phy::Frame& f, const Vec2&) {
        if (f.payload && f.payload->type == net::PacketType::kAgfwData)
            tx_s.push_back(net.network.sim().now().to_seconds());
    });
    net.network.node(1).set_up(false);
    net.network.sim().at(SimTime::seconds(5.5),
                         [&] { net.agents[0]->send_data(2, 0, 0, {}); });
    net.run_until(12);

    ASSERT_EQ(tx_s.size(), 4u);
    for (std::size_t i = 1; i < tx_s.size(); ++i)
        EXPECT_NEAR(tx_s[i] - tx_s[i - 1], 0.1, 0.02);
}

TEST(Agfw, RerouteLimitExhaustionDropsUnreachable) {
    // Three parallel relays all make progress toward the far destination;
    // crash them all and the source must walk distinct next-hop pseudonyms
    // until the reroute budget runs out.
    AgfwAgent::Params params;
    params.ack_retries = 0;       // every timeout goes straight to reroute
    params.ack_timeout = 50_ms;
    params.reroute_limit = 2;
    AgfwNet net({{0, 0}, {200, 0}, {190, 60}, {190, -60}, {600, 0}}, params);
    net.warm_up();

    std::vector<std::uint64_t> next_hops;
    net.network.channel().add_snoop([&](const phy::Frame& f, const Vec2&) {
        if (f.payload && f.payload->type == net::PacketType::kAgfwData)
            next_hops.push_back(f.payload->next_hop_pseudonym);
    });
    for (NodeId relay : {1u, 2u, 3u}) net.network.node(relay).set_up(false);
    net.network.sim().at(SimTime::seconds(5.5),
                         [&] { net.agents[0]->send_data(4, 0, 0, {}); });
    net.run_until(12);

    // Initial attempt + reroute_limit alternates, each to a fresh pseudonym.
    ASSERT_EQ(next_hops.size(), 3u);
    EXPECT_NE(next_hops[0], next_hops[1]);
    EXPECT_NE(next_hops[1], next_hops[2]);
    EXPECT_NE(next_hops[0], next_hops[2]);
    EXPECT_EQ(net.agents[0]->stats().drop_unreachable, 1u);
    EXPECT_TRUE(net.deliveries.empty());
}

TEST(Agfw, HopCountReflectsPath) {
    AgfwNet net({{0, 0}, {200, 0}, {400, 0}, {600, 0}, {800, 0}});
    net.warm_up();
    net.agents[0]->send_data(4, 0, 0, {});
    net.run_until(8);
    ASSERT_EQ(net.deliveries.size(), 1u);
    EXPECT_GE(net.deliveries[0].second.hops, 4u);
}

}  // namespace
