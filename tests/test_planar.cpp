#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "agfw_rig.hpp"
#include "core/agfw.hpp"
#include "core/planar.hpp"
#include "crypto/engine.hpp"
#include "mobility/mobility.hpp"
#include "net/network.hpp"

namespace {

using namespace geoanon;
using core::AgfwAgent;
using core::AnonymousNeighborTable;
using core::ccw_angle;
using core::right_hand_next;
using core::rng_planarize;
using net::NodeId;
using net::Packet;
using util::SimTime;
using util::Vec2;

AnonymousNeighborTable::Entry entry(std::uint64_t n, Vec2 loc) {
    AnonymousNeighborTable::Entry e;
    e.n = n;
    e.loc = loc;
    e.expires = SimTime::seconds(1e9);
    return e;
}

// ------------------------------------------------------------ planarization

TEST(Planar, RngKeepsIsolatedEdges) {
    // Two far-apart neighbors with no witness: both edges stay.
    const auto kept = rng_planarize({0, 0}, {entry(1, {100, 0}), entry(2, {-100, 0})});
    EXPECT_EQ(kept.size(), 2u);
}

TEST(Planar, RngRemovesWitnessedEdge) {
    // w sits inside the lune of (self, v): edge to v must be removed.
    const auto kept =
        rng_planarize({0, 0}, {entry(1, {200, 0}), entry(2, {100, 20})});
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].n, 2u);
}

TEST(Planar, RngIsSubsetOfInput) {
    util::Rng rng(5);
    std::vector<AnonymousNeighborTable::Entry> neighbors;
    for (std::uint64_t i = 1; i <= 20; ++i)
        neighbors.push_back(entry(i, {rng.uniform(-250, 250), rng.uniform(-250, 250)}));
    const auto kept = rng_planarize({0, 0}, neighbors);
    EXPECT_LE(kept.size(), neighbors.size());
    EXPECT_GE(kept.size(), 1u);
    for (const auto& k : kept) {
        const bool found = std::any_of(neighbors.begin(), neighbors.end(),
                                       [&](const auto& n) { return n.n == k.n; });
        EXPECT_TRUE(found);
    }
}

TEST(Planar, RngEquidistantPairSurvives) {
    // Witness rule uses strict inequality: collinear equal distances stay.
    const auto kept = rng_planarize({0, 0}, {entry(1, {100, 0}), entry(2, {200, 0})});
    // 1 witnesses 2? max(d(0,1), d(2,1)) = max(100,100) = 100 < 200: removed.
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].n, 1u);
}

// --------------------------------------------------------------- ccw angles

TEST(Planar, CcwAngleCardinal) {
    const Vec2 self{0, 0};
    const Vec2 east{1, 0};
    EXPECT_NEAR(ccw_angle(self, east, {10, 0}), 0.0, 1e-9);
    EXPECT_NEAR(ccw_angle(self, east, {0, 10}), M_PI / 2, 1e-9);
    EXPECT_NEAR(ccw_angle(self, east, {-10, 0}), M_PI, 1e-9);
    EXPECT_NEAR(ccw_angle(self, east, {0, -10}), 3 * M_PI / 2, 1e-9);
}

TEST(Planar, CcwAngleArbitraryReference) {
    const Vec2 self{10, 10};
    const Vec2 ref{0, 1};  // north
    // (0,20) is northwest of self: 45deg counterclockwise from north.
    EXPECT_NEAR(ccw_angle(self, ref, {0, 20}), M_PI / 4, 1e-9);
}

// ------------------------------------------------------------ right-hand rule

TEST(Planar, RightHandPicksFirstCcwNeighbor) {
    const Vec2 self{0, 0};
    const Vec2 came_from{100, 0};  // incoming edge from the east
    const std::vector<AnonymousNeighborTable::Entry> planar{
        entry(1, {0, 100}),    // 90deg ccw from incoming direction (east)
        entry(2, {-100, 0}),   // 180deg
        entry(3, {0, -100}),   // 270deg
    };
    const auto next = right_hand_next(self, came_from, planar, {});
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->n, 1u);
}

TEST(Planar, RightHandSkipsExcluded) {
    const Vec2 self{0, 0};
    const std::vector<AnonymousNeighborTable::Entry> planar{
        entry(1, {0, 100}),
        entry(2, {-100, 0}),
    };
    const auto next = right_hand_next(self, {100, 0}, planar, {1});
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->n, 2u);
}

TEST(Planar, RightHandReverseEdgeIsLastResort) {
    const Vec2 self{0, 0};
    const std::vector<AnonymousNeighborTable::Entry> planar{
        entry(1, {100, 0}),   // exactly back where we came from
        entry(2, {0, -100}),  // 270deg ccw
    };
    const auto next = right_hand_next(self, {100, 0}, planar, {});
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->n, 2u);
    // With only the reverse edge available, it is still taken.
    const auto only = right_hand_next(self, {100, 0}, {entry(1, {100, 0})}, {});
    ASSERT_TRUE(only.has_value());
    EXPECT_EQ(only->n, 1u);
}

TEST(Planar, RightHandEmptyReturnsNullopt) {
    EXPECT_FALSE(right_hand_next({0, 0}, {1, 0}, {}, {}).has_value());
}

// ----------------------------------------------- perimeter-mode integration

/// A "void" topology where greedy forwarding dead-ends and only the
/// right-hand face traversal reaches the destination:
///
///        B(150,200)   C(350,240)
///                            E(480,120)
///   S(0,0)   A(200,0)   [void]   D(550,0)
struct VoidNet : test::AgfwRig {
    explicit VoidNet(bool enable_perimeter)
        : AgfwRig({{0, 0}, {200, 0}, {150, 200}, {350, 240}, {480, 120}, {550, 0}},
                  params(enable_perimeter), /*real_crypto=*/false, /*network_seed=*/41) {
        run_until(5);
    }

    static AgfwAgent::Params params(bool enable_perimeter) {
        AgfwAgent::Params p;
        p.enable_perimeter = enable_perimeter;
        // Disable the NL-ACK alternate-next-hop recovery so the test
        // isolates perimeter mode (rerouting alone can also skirt the void).
        p.reroute_limit = 0;
        return p;
    }
};

TEST(Perimeter, GreedyAloneDropsAtTheVoid) {
    VoidNet net(/*enable_perimeter=*/false);
    net.agents[0]->send_data(5, 0, 0, {});
    net.network.sim().run_until(SimTime::seconds(15));
    EXPECT_TRUE(net.deliveries.empty());
    // Node A (id 1) is the local maximum: it is the stuck relay.
    EXPECT_GE(net.agents[1]->stats().stop_no_route +
                  net.agents[0]->stats().drop_no_route +
                  net.agents[0]->stats().drop_unreachable,
              1u);
    EXPECT_EQ(net.agents[1]->stats().perimeter_entries, 0u);
}

TEST(Perimeter, RecoversAroundTheVoid) {
    VoidNet net(/*enable_perimeter=*/true);
    net.agents[0]->send_data(5, 0, 0, {});
    net.network.sim().run_until(SimTime::seconds(15));
    ASSERT_EQ(net.deliveries.size(), 1u);
    EXPECT_EQ(net.deliveries[0].first, 5u);
    // The stuck relay entered perimeter mode; someone later recovered to
    // greedy strictly closer to the destination.
    std::uint64_t entries = 0, recoveries = 0, pforwards = 0;
    for (auto* a : net.agents) {
        entries += a->stats().perimeter_entries;
        recoveries += a->stats().perimeter_recoveries;
        pforwards += a->stats().perimeter_forwards;
    }
    EXPECT_GE(entries, 1u);
    EXPECT_GE(recoveries, 1u);
    EXPECT_GE(pforwards, 2u);
    // The perimeter header bytes were accounted while traversing the face.
    EXPECT_GT(net.deliveries[0].second.hops, 3u);
}

TEST(Perimeter, ManyPacketsAllRecover) {
    VoidNet net(/*enable_perimeter=*/true);
    for (std::uint32_t i = 0; i < 10; ++i) net.agents[0]->send_data(5, 0, i, {});
    net.network.sim().run_until(SimTime::seconds(20));
    EXPECT_EQ(net.deliveries.size(), 10u);
}

TEST(Perimeter, TtlStopsFaceLoops) {
    // Destination location points into empty space (no node there): the face
    // traversal must terminate via the hop limit, not loop forever.
    VoidNet net(/*enable_perimeter=*/true);
    // Craft a packet toward an unreachable location by lying to the oracle:
    // send to node 5 but with a bogus location only reachable by looping.
    auto pkt = std::make_shared<Packet>();
    pkt->type = net::PacketType::kAgfwData;
    pkt->uid = 0xDEAD;
    pkt->dst_loc = {275, -400};  // south of the void: no nodes there
    pkt->trapdoor = net.engine->make_trapdoor(5, util::Bytes{1}, net.network.rng());
    pkt->wire_bytes = 100;
    net.agents[0]->route_packet(pkt);
    net.network.sim().run_until(SimTime::seconds(30));
    EXPECT_TRUE(net.deliveries.empty());
    std::uint64_t ttl_drops = 0, pforwards = 0;
    for (auto* a : net.agents) {
        ttl_drops += a->stats().perimeter_ttl_drops;
        pforwards += a->stats().perimeter_forwards;
    }
    // The traversal happened but was bounded.
    EXPECT_GE(pforwards, 1u);
    EXPECT_LE(pforwards, 200u);
}

}  // namespace
