#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/agfw.hpp"
#include "crypto/engine.hpp"
#include "mobility/mobility.hpp"
#include "net/network.hpp"
#include "routing/gpsr.hpp"
#include "routing/location_service.hpp"
#include "util/bytes.hpp"

namespace {

using namespace geoanon;
using namespace geoanon::util::literals;
using core::AgfwAgent;
using net::NodeId;
using net::Packet;
using routing::GpsrGreedyAgent;
using routing::GridMap;
using routing::LocationService;
using util::SimTime;
using util::Vec2;

// ---------------------------------------------------------------- GridMap

TEST(GridMap, PartitionGeometry) {
    const GridMap grid(mobility::Area{1500, 300}, 300.0);
    EXPECT_EQ(grid.grid_count(), 5u);
    EXPECT_EQ(grid.grid_of({0, 0}), 0u);
    EXPECT_EQ(grid.grid_of({1499, 299}), 4u);
    EXPECT_EQ(grid.grid_of({450, 100}), 1u);
    EXPECT_EQ(grid.center_of(0), (Vec2{150, 150}));
    EXPECT_EQ(grid.center_of(4), (Vec2{1350, 150}));
    EXPECT_TRUE(grid.contains(1, {450, 100}));
    EXPECT_FALSE(grid.contains(0, {450, 100}));
}

TEST(GridMap, OutOfAreaPointsClamp) {
    const GridMap grid(mobility::Area{1500, 300}, 300.0);
    EXPECT_EQ(grid.grid_of({-50, -50}), 0u);
    EXPECT_EQ(grid.grid_of({99999, 99999}), 4u);
}

TEST(GridMap, HomeGridDeterministicAndSpread) {
    const GridMap grid(mobility::Area{1500, 300}, 300.0);
    std::vector<int> counts(grid.grid_count(), 0);
    for (std::uint64_t id = 0; id < 500; ++id) {
        EXPECT_EQ(grid.home_grid(id), grid.home_grid(id));
        EXPECT_LT(grid.home_grid(id), grid.grid_count());
        ++counts[grid.home_grid(id)];
    }
    for (int c : counts) EXPECT_GT(c, 50);  // roughly uniform over 5 grids
}

TEST(GridMap, TwoDimensionalGrids) {
    const GridMap grid(mobility::Area{600, 600}, 300.0);
    EXPECT_EQ(grid.grid_count(), 4u);
    EXPECT_EQ(grid.grid_of({100, 100}), 0u);
    EXPECT_EQ(grid.grid_of({400, 100}), 1u);
    EXPECT_EQ(grid.grid_of({100, 400}), 2u);
    EXPECT_EQ(grid.grid_of({400, 400}), 3u);
}

// ----------------------------------------------------- end-to-end fixtures

/// Dense static AGFW network covering the whole 1500x300 strip so every grid
/// has nodes near its center.
struct AlsNet {
    explicit AlsNet(LocationService::Mode mode, AgfwAgent::Params params = {})
        : network(phy::PhyParams{}, 23) {
        engine = std::make_unique<crypto::ModeledCryptoEngine>(5, 512);
        // Grid of nodes: x = 75..1425 step 150, y in {75, 225}.
        std::vector<Vec2> positions;
        for (int xi = 0; xi < 10; ++xi)
            for (int yi = 0; yi < 2; ++yi)
                positions.push_back(Vec2{75.0 + xi * 150.0, 75.0 + yi * 150.0});

        for (std::size_t i = 0; i < positions.size(); ++i) engine->register_node(i);
        mac::MacParams mp;
        mp.use_rtscts = false;
        mp.anonymous_source = true;

        const GridMap grid(mobility::Area{1500, 300}, 300.0);
        for (const Vec2& pos : positions) {
            net::Node& node = network.add_node(
                std::make_unique<mobility::StationaryMobility>(pos), mp);
            auto agent = std::make_unique<AgfwAgent>(
                node, params, *engine,
                [](NodeId) -> std::optional<Vec2> { return std::nullopt; },
                [this](NodeId at, const Packet& pkt) {
                    deliveries.emplace_back(at, pkt);
                });
            // Everyone anticipates everyone (tests query arbitrary pairs).
            std::vector<NodeId> contacts;
            for (std::size_t c = 0; c < positions.size(); ++c)
                if (c != node.id()) contacts.push_back(static_cast<NodeId>(c));
            agent->enable_location_service(mode, grid, ls_params, contacts);
            agents.push_back(agent.get());
            node.set_agent(std::move(agent));
        }
        network.start_agents();
    }

    void run_until(double seconds) { network.sim().run_until(SimTime::seconds(seconds)); }

    LocationService::Params ls_params{};
    net::Network network;
    std::unique_ptr<crypto::CryptoEngine> engine;
    std::vector<AgfwAgent*> agents;
    std::vector<std::pair<NodeId, Packet>> deliveries;
};

TEST(Als, AnonymousResolveSucceeds) {
    AlsNet net(LocationService::Mode::kAnonymous);
    net.run_until(20.0);  // updates out

    std::optional<Vec2> resolved;
    bool called = false;
    net.agents[0]->location_service()->resolve(15, [&](std::optional<Vec2> loc) {
        called = true;
        resolved = loc;
    });
    net.run_until(30.0);
    ASSERT_TRUE(called);
    ASSERT_TRUE(resolved.has_value());
    EXPECT_NEAR(resolved->x, net.network.true_position(15).x, 1.0);
    EXPECT_NEAR(resolved->y, net.network.true_position(15).y, 1.0);
}

TEST(Als, ResolveDrivesEndToEndData) {
    AlsNet net(LocationService::Mode::kAnonymous);
    net.run_until(20.0);
    net.agents[0]->send_data(15, 0, 0, {1, 2});
    net.run_until(35.0);
    ASSERT_EQ(net.deliveries.size(), 1u);
    EXPECT_EQ(net.deliveries[0].first, 15u);
}

TEST(Als, IndexFreeVariantResolves) {
    AlsNet net(LocationService::Mode::kAnonymousIndexFree);
    net.run_until(20.0);
    std::optional<Vec2> resolved;
    net.agents[2]->location_service()->resolve(17, [&](auto loc) { resolved = loc; });
    net.run_until(30.0);
    ASSERT_TRUE(resolved.has_value());
    // The index-free requester had to trial-decrypt server rows.
    EXPECT_GE(net.agents[2]->location_service()->stats().decrypt_attempts, 1u);
}

TEST(Als, UnknownTargetFailsCleanly) {
    AlsNet net(LocationService::Mode::kAnonymous);
    net.run_until(20.0);
    // Node 5 never anticipated node 0 querying it? It did (contacts = all);
    // instead query an identity that does not exist in the network.
    bool called = false;
    std::optional<Vec2> resolved;
    net.agents[0]->location_service()->resolve(9999, [&](auto loc) {
        called = true;
        resolved = loc;
    });
    net.run_until(45.0);  // worst-case full-ladder failure is ~22.5 s
    EXPECT_TRUE(called);
    EXPECT_FALSE(resolved.has_value());
}

TEST(Als, UpdatesAreStoredEncrypted) {
    AlsNet net(LocationService::Mode::kAnonymous);
    net.run_until(20.0);
    std::size_t total_rows = 0;
    for (auto* a : net.agents) total_rows += a->location_service()->store_size();
    EXPECT_GT(total_rows, 0u);
    // No plaintext identity travels in ALS messages: checked by the snoop in
    // test_adversary; here check byte accounting exists.
    std::uint64_t update_bytes = 0;
    for (auto* a : net.agents) update_bytes += a->location_service()->stats().update_bytes;
    EXPECT_GT(update_bytes, 0u);
}

TEST(Als, AnonymousCostsMoreBytesThanPlainDlm) {
    // §3.3/§5: ALS trades bytes for anonymity. Compare per-update sizes.
    AlsNet anon(LocationService::Mode::kAnonymous);
    anon.run_until(25.0);
    std::uint64_t anon_updates = 0, anon_bytes = 0;
    for (auto* a : anon.agents) {
        anon_updates += a->location_service()->stats().updates_sent;
        anon_bytes += a->location_service()->stats().update_bytes;
    }
    ASSERT_GT(anon_updates, 0u);

    // Plain DLM on a GPSR network of the same shape.
    net::Network network(phy::PhyParams{}, 23);
    std::vector<GpsrGreedyAgent*> agents;
    const GridMap grid(mobility::Area{1500, 300}, 300.0);
    for (int xi = 0; xi < 10; ++xi) {
        for (int yi = 0; yi < 2; ++yi) {
            net::Node& node = network.add_node(
                std::make_unique<mobility::StationaryMobility>(
                    Vec2{75.0 + xi * 150.0, 75.0 + yi * 150.0}),
                mac::MacParams{});
            auto agent = std::make_unique<GpsrGreedyAgent>(
                node, GpsrGreedyAgent::Params{},
                [](NodeId) -> std::optional<Vec2> { return std::nullopt; },
                nullptr);
            agent->enable_location_service(grid, LocationService::Params{});
            agents.push_back(agent.get());
            node.set_agent(std::move(agent));
        }
    }
    network.start_agents();
    network.sim().run_until(SimTime::seconds(25));
    std::uint64_t plain_updates = 0, plain_bytes = 0;
    for (auto* a : agents) {
        plain_updates += a->location_service()->stats().updates_sent;
        plain_bytes += a->location_service()->stats().update_bytes;
    }
    ASSERT_GT(plain_updates, 0u);

    const double anon_per = static_cast<double>(anon_bytes) / anon_updates;
    const double plain_per = static_cast<double>(plain_bytes) / plain_updates;
    EXPECT_GT(anon_per, plain_per);
}

TEST(Dlm, PlainResolveSucceedsOnGpsr) {
    net::Network network(phy::PhyParams{}, 29);
    std::vector<GpsrGreedyAgent*> agents;
    const GridMap grid(mobility::Area{1500, 300}, 300.0);
    for (int xi = 0; xi < 10; ++xi) {
        for (int yi = 0; yi < 2; ++yi) {
            net::Node& node = network.add_node(
                std::make_unique<mobility::StationaryMobility>(
                    Vec2{75.0 + xi * 150.0, 75.0 + yi * 150.0}),
                mac::MacParams{});
            auto agent = std::make_unique<GpsrGreedyAgent>(
                node, GpsrGreedyAgent::Params{},
                [](NodeId) -> std::optional<Vec2> { return std::nullopt; },
                nullptr);
            agent->enable_location_service(grid, LocationService::Params{});
            agents.push_back(agent.get());
            node.set_agent(std::move(agent));
        }
    }
    network.start_agents();
    network.sim().run_until(SimTime::seconds(20));

    std::optional<Vec2> resolved;
    agents[0]->location_service()->resolve(13, [&](auto loc) { resolved = loc; });
    network.sim().run_until(SimTime::seconds(30));
    ASSERT_TRUE(resolved.has_value());
    EXPECT_NEAR(resolved->x, network.true_position(13).x, 1.0);
}

TEST(Als, HeterogeneousPlainAndAnonymousCoexist) {
    // §3.3: "a node may not need to hide its identity or location all the
    // time ... it can switch to a normal location service". Build an AGFW
    // network where even-numbered nodes run plain DLM updates (privacy off)
    // and odd-numbered nodes run anonymous ALS; servers store both row
    // formats and both resolve.
    net::Network network(phy::PhyParams{}, 67);
    crypto::ModeledCryptoEngine engine(5, 512);
    std::vector<Vec2> positions;
    for (int xi = 0; xi < 10; ++xi)
        for (int yi = 0; yi < 2; ++yi)
            positions.push_back(Vec2{75.0 + xi * 150.0, 75.0 + yi * 150.0});
    for (std::size_t i = 0; i < positions.size(); ++i) engine.register_node(i);
    mac::MacParams mp;
    mp.use_rtscts = false;
    mp.anonymous_source = true;
    const GridMap grid(mobility::Area{1500, 300}, 300.0);
    std::vector<AgfwAgent*> agents;
    for (const Vec2& pos : positions) {
        net::Node& node = network.add_node(
            std::make_unique<mobility::StationaryMobility>(pos), mp);
        auto agent = std::make_unique<AgfwAgent>(
            node, AgfwAgent::Params{}, engine,
            [](NodeId) -> std::optional<Vec2> { return std::nullopt; }, nullptr);
        std::vector<NodeId> contacts;
        for (std::size_t c = 0; c < positions.size(); ++c)
            if (c != node.id()) contacts.push_back(static_cast<NodeId>(c));
        const bool privacy = node.id() % 2 == 1;
        agent->enable_location_service(privacy
                                           ? LocationService::Mode::kAnonymous
                                           : LocationService::Mode::kPlain,
                                       grid, LocationService::Params{}, contacts);
        agents.push_back(agent.get());
        node.set_agent(std::move(agent));
    }
    network.start_agents();
    network.sim().run_until(SimTime::seconds(20));

    // An anonymous node resolves a plain node and vice versa.
    std::optional<Vec2> plain_target, anon_target;
    agents[1]->location_service()->resolve(14, [&](auto loc) { plain_target = loc; });
    agents[2]->location_service()->resolve(15, [&](auto loc) { anon_target = loc; });
    // The cross-format resolves walk the degradation ladder (indexed →
    // index-free → plain subject, with backoff), so give them the worst-case
    // ladder time (~22.5 s after issue) before asserting.
    network.sim().run_until(SimTime::seconds(45));
    ASSERT_TRUE(plain_target.has_value());   // even target: plain row
    ASSERT_TRUE(anon_target.has_value());    // odd target: anonymous row
    EXPECT_NEAR(plain_target->x, network.true_position(14).x, 1.0);
    EXPECT_NEAR(anon_target->x, network.true_position(15).x, 1.0);
}

TEST(Dlm, QueryTimesOutWhenServersEmpty) {
    // Query immediately at t=0, before any update: must fail once every
    // degradation-ladder stage has timed out and reissued.
    net::Network network(phy::PhyParams{}, 31);
    std::vector<GpsrGreedyAgent*> agents;
    const GridMap grid(mobility::Area{1500, 300}, 300.0);
    for (int xi = 0; xi < 10; ++xi) {
        net::Node& node = network.add_node(
            std::make_unique<mobility::StationaryMobility>(Vec2{75.0 + xi * 150.0, 150.0}),
            mac::MacParams{});
        auto agent = std::make_unique<GpsrGreedyAgent>(
            node, GpsrGreedyAgent::Params{},
            [](NodeId) -> std::optional<Vec2> { return std::nullopt; }, nullptr);
        agent->enable_location_service(grid, LocationService::Params{});
        agents.push_back(agent.get());
        node.set_agent(std::move(agent));
    }
    network.start_agents();
    bool called = false;
    std::optional<Vec2> resolved = Vec2{1, 1};
    agents[0]->location_service()->resolve(5, [&](auto loc) {
        called = true;
        resolved = loc;
    });
    network.sim().run_until(SimTime::seconds(1.0));
    EXPECT_FALSE(called);  // still retrying
    network.sim().run_until(SimTime::seconds(10.0));
    EXPECT_TRUE(called);
    EXPECT_FALSE(resolved.has_value());
}

// ------------------------------------------ query-timeout / failover paths

/// Line topology placed relative to the target's home-grid center C so the
/// server role is fully controlled:
///
///   Q (requester)  C+(-400, 40)      node 0
///   relay          C+(-300, 0)       node 1
///   relay          C+(-200, 10)      node 2
///   R (replica)    C+(-100, 0)       node 3
///   S (server)     C                 node 4   — the only node within
///                                               server_radius (60 m) of C
///   T (target)     C+(-400, 0)       node 5
///
/// T's updates route T→2→3→4; S stores the row and (when replication is on)
/// its one-hop replicate reaches R. update_interval is huge so exactly one
/// update round happens and the fault timing stays deterministic.
struct FailoverRig {
    explicit FailoverRig(LocationService::Params lsp)
        : network(phy::PhyParams{}, 41) {
        engine = std::make_unique<crypto::ModeledCryptoEngine>(5, 512);
        const GridMap grid(mobility::Area{1500, 300}, 300.0);
        const Vec2 c = grid.center_of(grid.home_grid(5));
        const std::vector<Vec2> positions = {
            c + Vec2{-400, 40}, c + Vec2{-300, 0}, c + Vec2{-200, 10},
            c + Vec2{-100, 0},  c + Vec2{0, 0},    c + Vec2{-400, 0}};

        for (std::size_t i = 0; i < positions.size(); ++i) engine->register_node(i);
        mac::MacParams mp;
        mp.use_rtscts = false;
        mp.anonymous_source = true;
        for (const Vec2& pos : positions) {
            net::Node& node = network.add_node(
                std::make_unique<mobility::StationaryMobility>(pos), mp);
            auto agent = std::make_unique<AgfwAgent>(
                node, AgfwAgent::Params{}, *engine,
                [](NodeId) -> std::optional<Vec2> { return std::nullopt; }, nullptr);
            // Only the target beacons updates, anticipating requester Q.
            const std::vector<NodeId> contacts =
                node.id() == 5 ? std::vector<NodeId>{0} : std::vector<NodeId>{};
            agent->enable_location_service(LocationService::Mode::kAnonymous, grid,
                                           lsp, contacts);
            agents.push_back(agent.get());
            node.set_agent(std::move(agent));
        }
        network.start_agents();
    }

    std::uint64_t total_replies_sent() const {
        std::uint64_t n = 0;
        for (auto* a : agents) n += a->location_service()->stats().replies_sent;
        return n;
    }

    void run_until(double seconds) {
        network.sim().run_until(SimTime::seconds(seconds));
    }

    net::Network network;
    std::unique_ptr<crypto::CryptoEngine> engine;
    std::vector<AgfwAgent*> agents;
};

LocationService::Params one_shot_update_params() {
    LocationService::Params lsp;
    lsp.update_interval = SimTime::seconds(1000.0);  // exactly one round
    lsp.server_radius_m = 60.0;
    return lsp;
}

TEST(Als, LostRepliesReissueQueryThenFail) {
    // Replies vanish in the network but the server grid is healthy: the
    // requester must re-issue on timeout and eventually fail — while the
    // server-side reply counter shows the grid did answer.
    FailoverRig rig(one_shot_update_params());
    rig.run_until(10.0);  // the single update round is stored by now
    rig.network.channel().set_drop_model(
        [](const phy::Frame& f, const Vec2&, const Vec2&) {
            return f.payload && f.payload->type == net::PacketType::kLocReply;
        });

    bool called = false;
    std::optional<Vec2> resolved;
    rig.agents[0]->location_service()->resolve(5, [&](auto loc) {
        called = true;
        resolved = loc;
    });
    rig.run_until(35.0);

    ASSERT_TRUE(called);
    EXPECT_FALSE(resolved.has_value());
    EXPECT_GT(rig.total_replies_sent(), 0u);  // the grid answered...
    const auto& qs = rig.agents[0]->location_service()->stats();
    EXPECT_GE(qs.query_reissues, 1u);         // ...but every reply was lost
    EXPECT_GE(qs.query_fallbacks, 1u);
    EXPECT_EQ(qs.resolved_fail, 1u);
}

TEST(Als, DarkServerGridFailsWithNoReplyTraffic) {
    // Crash the server after the update round with replication off: rows are
    // gone from the network entirely, so reissues see zero reply traffic —
    // the distinct signature of "server gone" vs "reply lost".
    LocationService::Params lsp = one_shot_update_params();
    lsp.replicate = false;
    FailoverRig rig(lsp);
    rig.run_until(10.0);
    rig.network.node(4).set_up(false);
    const std::uint64_t replies_before = rig.total_replies_sent();

    bool called = false;
    std::optional<Vec2> resolved;
    rig.network.sim().at(SimTime::seconds(14.0), [&] {
        rig.agents[0]->location_service()->resolve(5, [&](auto loc) {
            called = true;
            resolved = loc;
        });
    });
    rig.run_until(40.0);

    ASSERT_TRUE(called);
    EXPECT_FALSE(resolved.has_value());
    EXPECT_EQ(rig.total_replies_sent(), replies_before);  // nobody answered
    const auto& qs = rig.agents[0]->location_service()->stats();
    EXPECT_GE(qs.query_reissues, 1u);
    EXPECT_EQ(qs.resolved_fail, 1u);
}

TEST(Als, ReplicaServesWhenPrimaryServerCrashes) {
    // With replication on, the row survives at R: the query gets stuck short
    // of the dead server and R's serve-on-stuck answers from the replica.
    FailoverRig rig(one_shot_update_params());
    rig.run_until(10.0);
    ASSERT_GT(rig.agents[3]->location_service()->store_size(), 0u);  // replica
    rig.network.node(4).set_up(false);

    bool called = false;
    std::optional<Vec2> resolved;
    // Resolve after the ANT silence window so greedy no longer offers the
    // crashed server as a next hop.
    rig.network.sim().at(SimTime::seconds(16.0), [&] {
        rig.agents[0]->location_service()->resolve(5, [&](auto loc) {
            called = true;
            resolved = loc;
        });
    });
    rig.run_until(40.0);

    ASSERT_TRUE(called);
    ASSERT_TRUE(resolved.has_value());
    EXPECT_NEAR(resolved->x, rig.network.true_position(5).x, 1.0);
    EXPECT_NEAR(resolved->y, rig.network.true_position(5).y, 1.0);
    EXPECT_EQ(rig.agents[0]->location_service()->stats().resolved_ok, 1u);
}

// ------------------------------------------- replica-set / anti-entropy unit

/// Drives one LocationService directly through its Hooks — no radio, no
/// agent — so replica maintenance (digests, repair pushes, handoff, sweep)
/// can be asserted packet by packet. kPlain mode needs no crypto engine.
struct LsHarness {
    explicit LsHarness(LocationService::Params p = {})
        : grid(mobility::Area{1500, 300}, 300.0) {
        subject = 5;
        home = grid.home_grid(subject);
        pos = grid.center_of(home);
        LocationService::Hooks h;
        h.route = [this](std::shared_ptr<Packet> pkt) { routed.push_back(std::move(pkt)); };
        h.local_broadcast = [this](std::shared_ptr<Packet> pkt) {
            broadcast.push_back(std::move(pkt));
        };
        h.my_position = [this] { return pos; };
        h.my_id = 1;
        h.sim = &sim;
        h.rng = &rng;
        ls = std::make_unique<LocationService>(LocationService::Mode::kPlain, grid, p,
                                               std::move(h));
    }

    std::shared_ptr<Packet> plain_update(Vec2 loc) {
        auto pkt = std::make_shared<Packet>();
        pkt->type = net::PacketType::kLocUpdate;
        pkt->grid = home;
        pkt->dst_loc = grid.center_of(home);
        pkt->created_at = sim.now();
        pkt->ls_subject = subject;
        pkt->ls_subject_loc = loc;
        pkt->uid = 1000 + broadcast.size();
        return pkt;
    }

    std::shared_ptr<Packet> plain_request(NodeId requester, std::uint64_t qid,
                                          bool assist = false) {
        auto pkt = std::make_shared<Packet>();
        pkt->type = net::PacketType::kLocRequest;
        pkt->grid = home;
        pkt->dst_loc = grid.center_of(home);
        pkt->requester_loc = Vec2{10, 10};
        pkt->created_at = sim.now();
        pkt->ls_subject = subject;
        pkt->src_id = requester;
        pkt->ls_query_id = qid;
        pkt->ls_assist = assist;
        pkt->uid = 2000 + broadcast.size();
        return pkt;
    }

    /// An anonymous update carrying (index, payload) rows for the home grid.
    std::shared_ptr<Packet> anon_update(
        const std::vector<std::pair<util::Bytes, util::Bytes>>& rows) {
        auto pkt = std::make_shared<Packet>();
        pkt->type = net::PacketType::kLocUpdate;
        pkt->grid = home;
        pkt->dst_loc = grid.center_of(home);
        pkt->created_at = sim.now();
        util::ByteWriter w;
        w.u32(static_cast<std::uint32_t>(rows.size()));
        for (const auto& [index, payload] : rows) {
            w.bytes(index);
            w.bytes(payload);
        }
        pkt->ls_payload = w.take();
        pkt->uid = 3000 + broadcast.size();
        return pkt;
    }

    /// A one-hop digest from a peer replica of the home grid.
    std::shared_ptr<Packet> peer_digest(std::vector<Packet::LsDigestRow> rows) {
        auto pkt = std::make_shared<Packet>();
        pkt->type = net::PacketType::kLocDigest;
        pkt->grid = home;
        pkt->ls_assist = true;
        pkt->ls_digest = std::move(rows);
        return pkt;
    }

    /// A plain reply to this node's query `qid`, placing the subject at `loc`.
    std::shared_ptr<Packet> plain_reply(std::uint64_t qid, Vec2 loc = {300, 150}) {
        auto pkt = std::make_shared<Packet>();
        pkt->type = net::PacketType::kLocReply;
        pkt->dst_id = 1;
        pkt->ls_subject = subject;
        pkt->ls_subject_loc = loc;
        pkt->ls_query_id = qid;
        return pkt;
    }

    static std::size_t count(const std::vector<std::shared_ptr<Packet>>& pkts,
                             net::PacketType t) {
        std::size_t n = 0;
        for (const auto& p : pkts)
            if (p->type == t) ++n;
        return n;
    }
    std::size_t count_broadcast(net::PacketType t) const { return count(broadcast, t); }
    std::size_t count_routed(net::PacketType t) const { return count(routed, t); }

    void run_until(double s) { sim.run_until(SimTime::seconds(s)); }

    sim::Simulator sim;
    util::Rng rng{7};
    GridMap grid;
    NodeId subject;
    std::uint32_t home;
    Vec2 pos;
    std::vector<std::shared_ptr<Packet>> routed, broadcast;
    std::unique_ptr<LocationService> ls;
};

TEST(LsReplica, DigestAdvertisesStoredRows) {
    LsHarness h;
    ASSERT_TRUE(h.ls->handle(h.plain_update({100, 100})));
    h.ls->start();
    h.run_until(7.0);  // first digest tick at 5 s + <=25% jitter
    ASSERT_GE(h.ls->stats().digests_sent, 1u);
    ASSERT_GE(h.count_broadcast(net::PacketType::kLocDigest), 1u);
    for (const auto& p : h.broadcast) {
        if (p->type != net::PacketType::kLocDigest) continue;
        EXPECT_EQ(p->grid, h.home);
        ASSERT_EQ(p->ls_digest.size(), 1u);  // hash+expiry only, no location
        EXPECT_GT(p->ls_digest[0].expires_ns, 0u);
    }
    EXPECT_GT(h.ls->stats().digest_bytes, 0u);
}

TEST(LsReplica, DigestFromPeerLackingRowsTriggersRepairPush) {
    LsHarness h;
    ASSERT_TRUE(h.ls->handle(h.plain_update({100, 100})));
    // A peer replica's digest that advertises nothing: it lacks our row.
    auto digest = std::make_shared<Packet>();
    digest->type = net::PacketType::kLocDigest;
    digest->grid = h.home;
    digest->ls_assist = true;
    ASSERT_TRUE(h.ls->handle(digest));
    EXPECT_EQ(h.ls->stats().repairs_sent, 1u);
    ASSERT_EQ(h.count_broadcast(net::PacketType::kLocReplicate), 2u);  // store + repair
    const auto& push = h.broadcast.back();
    EXPECT_EQ(push->type, net::PacketType::kLocReplicate);
    EXPECT_EQ(push->ls_subject, h.subject);
}

TEST(LsReplica, UnknownPeerRowsTriggerReactiveDigest) {
    // A freshly restarted (empty) replica hears a digest advertising rows it
    // never saw: it must answer with its own (empty) digest so the sender
    // pushes the rows — two-round convergence instead of waiting for luck.
    LsHarness h;
    auto digest = std::make_shared<Packet>();
    digest->type = net::PacketType::kLocDigest;
    digest->grid = h.home;
    digest->ls_assist = true;
    digest->ls_digest = {{0xAAAA, 1'000'000'000'000ULL}, {0xBBBB, 1'000'000'000'000ULL}};
    ASSERT_TRUE(h.ls->handle(digest));
    EXPECT_EQ(h.ls->stats().digests_sent, 1u);
    ASSERT_EQ(h.count_broadcast(net::PacketType::kLocDigest), 1u);
    EXPECT_TRUE(h.broadcast.back()->ls_digest.empty());
}

/// FNV-1a over the characters of `s`, the digest hash of an anonymous row
/// whose index has lowercase hex `s`.
std::uint64_t fnv1a_of(const std::string& s) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(LsReplica, AnonDigestHashIsFnv1aOfLowercaseHexIndex) {
    LsHarness h;
    ASSERT_TRUE(h.ls->handle(h.anon_update({{{0xAB, 0x01, 0xF0}, {0x42}}})));
    // An unknown advertised hash draws this replica's own digest at once.
    ASSERT_TRUE(h.ls->handle(h.peer_digest({{0x1234, 1'000'000'000'000ULL}})));
    ASSERT_EQ(h.count_broadcast(net::PacketType::kLocDigest), 1u);
    const auto& digest = h.broadcast.back();
    ASSERT_EQ(digest->type, net::PacketType::kLocDigest);
    ASSERT_EQ(digest->ls_digest.size(), 1u);
    EXPECT_EQ(digest->ls_digest[0].key_hash, fnv1a_of("ab01f0"));
}

TEST(LsStore, AnonRowsAreListedInHexOrderOfTheirIndex) {
    // Indices straddling 0x9f/0xa0 (hex digits '9' < 'a') and of different
    // lengths, stored out of order; payload i names index i.
    const std::vector<util::Bytes> indices = {
        {0xa0}, {0x9f, 0xff}, {0x0a}, {0x9f}, {0xa0, 0x00}, {0xff}, {0x10, 0x20, 0x30},
        {0x9f, 0x00, 0x01}, {0x00}};
    std::vector<std::pair<util::Bytes, util::Bytes>> rows;
    for (std::size_t i = 0; i < indices.size(); ++i)
        rows.push_back({indices[i], {static_cast<std::uint8_t>(i)}});
    LsHarness h;
    ASSERT_TRUE(h.ls->handle(h.anon_update(rows)));
    ASSERT_EQ(h.ls->store_size(), indices.size());

    std::vector<std::size_t> hex_order(indices.size());
    for (std::size_t i = 0; i < hex_order.size(); ++i) hex_order[i] = i;
    std::sort(hex_order.begin(), hex_order.end(), [&](std::size_t x, std::size_t y) {
        return util::to_hex(indices[x]) < util::to_hex(indices[y]);
    });

    // Index-free request: the reply lists every row of the grid.
    auto req = std::make_shared<Packet>();
    req->type = net::PacketType::kLocRequest;
    req->grid = h.home;
    req->dst_loc = h.grid.center_of(h.home);
    req->requester_loc = Vec2{10, 10};
    req->ls_query_id = 0x51;
    ASSERT_TRUE(h.ls->handle(req));
    ASSERT_FALSE(h.routed.empty());
    const auto& reply = h.routed.back();
    ASSERT_EQ(reply->type, net::PacketType::kLocReply);
    util::ByteReader r(reply->ls_payload);
    ASSERT_EQ(r.u32(), indices.size());
    for (const std::size_t want : hex_order) {
        const auto payload = r.bytes();
        ASSERT_TRUE(payload.has_value());
        EXPECT_EQ(*payload, util::Bytes{static_cast<std::uint8_t>(want)});
    }

    // The digest walks the store in the same order.
    ASSERT_TRUE(h.ls->handle(h.peer_digest({{0x1234, 1'000'000'000'000ULL}})));
    const auto& digest = h.broadcast.back();
    ASSERT_EQ(digest->type, net::PacketType::kLocDigest);
    ASSERT_EQ(digest->ls_digest.size(), indices.size());
    for (std::size_t k = 0; k < hex_order.size(); ++k)
        EXPECT_EQ(digest->ls_digest[k].key_hash,
                  fnv1a_of(util::to_hex(indices[hex_order[k]])));
}

TEST(LsReplica, RepeatedDigestHashFirstRowWinsAndCountsOnce) {
    const util::Bytes index = {0x9f, 0xa0};
    const std::uint64_t hash = fnv1a_of("9fa0");
    constexpr std::uint64_t kFar = 1'000'000'000'000ULL;  // 1000 s: fresher than ours
    {
        // First copy fresh: the peer is not behind, so no repair; the hash
        // counts once, so nothing advertised is unknown here and no
        // reactive digest goes out.
        LsHarness h;
        ASSERT_TRUE(h.ls->handle(h.anon_update({{index, {0x01}}})));
        ASSERT_TRUE(h.ls->handle(h.peer_digest({{hash, kFar}, {hash, 0}})));
        EXPECT_EQ(h.ls->stats().repairs_sent, 0u);
        EXPECT_EQ(h.ls->stats().digests_sent, 0u);
    }
    {
        // First copy stale: the peer is behind and gets the row pushed.
        LsHarness h;
        ASSERT_TRUE(h.ls->handle(h.anon_update({{index, {0x01}}})));
        ASSERT_TRUE(h.ls->handle(h.peer_digest({{hash, 0}, {hash, kFar}})));
        EXPECT_EQ(h.ls->stats().repairs_sent, 1u);
        EXPECT_EQ(h.ls->stats().digests_sent, 0u);
        const auto& push = h.broadcast.back();
        ASSERT_EQ(push->type, net::PacketType::kLocReplicate);
        util::ByteReader r(push->ls_payload);
        ASSERT_EQ(r.u32(), 1u);
        EXPECT_EQ(r.bytes(), index);
    }
}

TEST(LsReplica, HandoffPushesRowsWhenLeavingServerRadius) {
    LsHarness h;
    ASSERT_TRUE(h.ls->handle(h.plain_update({100, 100})));
    h.ls->start();
    h.run_until(7.0);  // first digest tick: now serving the home grid
    ASSERT_GE(h.ls->stats().digests_sent, 1u);
    h.pos = h.grid.center_of(h.home) + Vec2{500, 0};  // drift out of radius
    h.run_until(13.0);  // next tick notices the exit
    EXPECT_EQ(h.ls->stats().handoffs, 1u);
    const auto& push = h.broadcast.back();
    EXPECT_EQ(push->type, net::PacketType::kLocReplicate);
    EXPECT_EQ(push->ls_subject, h.subject);
    // The row itself survives locally until it expires; we only step down.
    EXPECT_EQ(h.ls->store_size(), 1u);
}

TEST(LsStore, SweepDropsExpiredRowsAndCounts) {
    LocationService::Params p;
    p.entry_ttl = SimTime::seconds(2.0);
    p.sweep_interval = SimTime::seconds(1.0);
    LsHarness h(p);
    ASSERT_TRUE(h.ls->handle(h.plain_update({100, 100})));
    ASSERT_EQ(h.ls->store_size(), 1u);
    h.ls->start();
    h.run_until(4.0);  // expired at 2 s, swept at the 3 s tick
    EXPECT_EQ(h.ls->store_size(), 0u);
    EXPECT_EQ(h.ls->stats().store_expired, 1u);
}

TEST(LsFailover, StaleReadServesWithinGraceOnly) {
    LocationService::Params p;
    p.entry_ttl = SimTime::seconds(2.0);
    p.stale_grace = SimTime::seconds(10.0);
    LsHarness h(p);
    ASSERT_TRUE(h.ls->handle(h.plain_update({100, 100})));
    // t=5: the row expired at t=2, but grace runs to t=12 — serve it, stale.
    h.run_until(5.0);
    ASSERT_TRUE(h.ls->handle(h.plain_request(2, 0x42)));
    EXPECT_EQ(h.ls->stats().stale_reads, 1u);
    EXPECT_EQ(h.ls->stats().replies_sent, 1u);
    ASSERT_FALSE(h.routed.empty());
    EXPECT_EQ(h.routed.back()->type, net::PacketType::kLocReply);
    EXPECT_EQ(h.routed.back()->ls_subject_loc, (Vec2{100, 100}));
    // t=15: past expiry + grace — a miss, not a stale serve.
    h.run_until(15.0);
    ASSERT_TRUE(h.ls->handle(h.plain_request(2, 0x43)));
    EXPECT_EQ(h.ls->stats().stale_reads, 1u);
    EXPECT_EQ(h.ls->stats().replies_sent, 1u);
    EXPECT_GE(h.ls->stats().store_misses, 1u);
}

TEST(LsFailover, AssistedServeReadRepairsTheRow) {
    LsHarness h;
    ASSERT_TRUE(h.ls->handle(h.plain_update({100, 100})));
    const std::size_t replicas_before =
        h.count_broadcast(net::PacketType::kLocReplicate);
    // An assist request means a nearer replica already missed: serving it
    // must also re-replicate the row so that replica heals.
    ASSERT_TRUE(h.ls->handle(h.plain_request(2, 0x77, /*assist=*/true)));
    EXPECT_EQ(h.ls->stats().read_repairs, 1u);
    EXPECT_EQ(h.count_broadcast(net::PacketType::kLocReplicate), replicas_before + 1);
    EXPECT_EQ(h.broadcast.back()->ls_subject, h.subject);
}

TEST(LsFailover, DuplicateQuorumRepliesAreSuppressed) {
    LsHarness h;
    int calls = 0;
    std::optional<Vec2> got;
    h.ls->resolve(h.subject, [&](std::optional<Vec2> loc) {
        ++calls;
        got = loc;
    });
    auto reply = h.plain_reply((1ULL << 32) | 1);  // requester id 1, first query
    ASSERT_TRUE(h.ls->handle(reply));
    ASSERT_EQ(calls, 1);
    ASSERT_TRUE(got.has_value());
    // A second replica of the quorum answers the same query id: suppressed,
    // not "late", and the callback does not fire again.
    auto dup = std::make_shared<Packet>(*reply);
    ASSERT_TRUE(h.ls->handle(dup));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(h.ls->stats().duplicates_suppressed, 1u);
    EXPECT_EQ(h.ls->stats().late_replies, 0u);
    EXPECT_EQ(h.ls->stats().resolved_ok, 1u);
}

TEST(LsFailover, CrashWipePendingThenReplyCountsLate) {
    // Requester crash interleaving: resolve, crash (reset wipes pending),
    // then the reply arrives — it must count as late, never fire the wiped
    // callback, and a post-restart resolve must work normally.
    LsHarness h;
    int calls = 0;
    h.ls->resolve(h.subject, [&](std::optional<Vec2>) { ++calls; });
    h.ls->reset();
    EXPECT_EQ(h.ls->stats().pending_wiped, 1u);
    ASSERT_TRUE(h.ls->handle(h.plain_reply((1ULL << 32) | 1)));
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(h.ls->stats().late_replies, 1u);
    // Restarted node resolves again with a fresh query id; the old reply
    // cannot satisfy it.
    ASSERT_TRUE(h.ls->handle(h.plain_update({100, 100})));
    std::optional<Vec2> got;
    h.ls->resolve(h.subject, [&](std::optional<Vec2> loc) { got = loc; });
    ASSERT_TRUE(h.ls->handle(h.plain_reply((1ULL << 32) | 2)));
    ASSERT_TRUE(got.has_value());
}

TEST(LsCache, ResolvedLocationIsReusedForEightSeconds) {
    LsHarness h;
    std::optional<Vec2> got;
    auto record = [&](std::optional<Vec2> loc) { got = loc; };
    h.ls->resolve(h.subject, record);
    ASSERT_EQ(h.count_routed(net::PacketType::kLocRequest), 1u);
    ASSERT_TRUE(h.ls->handle(h.plain_reply((1ULL << 32) | 1)));
    ASSERT_EQ(got, (Vec2{300, 150}));

    // Within 8 s: the callback runs before resolve() returns, and no new
    // query goes out.
    h.run_until(7.5);
    got.reset();
    h.ls->resolve(h.subject, record);
    EXPECT_EQ(got, (Vec2{300, 150}));
    EXPECT_EQ(h.count_routed(net::PacketType::kLocRequest), 1u);
    EXPECT_EQ(h.ls->stats().queries_sent, 1u);

    // Past 8 s: the cached result has expired, so resolve() queries again.
    h.run_until(8.5);
    got.reset();
    h.ls->resolve(h.subject, record);
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(h.count_routed(net::PacketType::kLocRequest), 2u);
    ASSERT_TRUE(h.ls->handle(h.plain_reply((1ULL << 32) | 2, {310, 150})));
    EXPECT_EQ(got, (Vec2{310, 150}));
}

TEST(LsCache, ResetClearsTheCache) {
    LsHarness h;
    std::optional<Vec2> got;
    auto record = [&](std::optional<Vec2> loc) { got = loc; };
    h.ls->resolve(h.subject, record);
    ASSERT_TRUE(h.ls->handle(h.plain_reply((1ULL << 32) | 1)));
    ASSERT_TRUE(got.has_value());

    // A reboot forgets the result: the next resolve() queries again.
    h.ls->reset();
    got.reset();
    h.ls->resolve(h.subject, record);
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(h.count_routed(net::PacketType::kLocRequest), 2u);
    EXPECT_EQ(h.ls->stats().queries_sent, 2u);
}

TEST(LsFailover, StuckDigestDiesQuietly) {
    LsHarness h;
    auto digest = std::make_shared<Packet>();
    digest->type = net::PacketType::kLocDigest;
    digest->grid = h.home;
    EXPECT_TRUE(h.ls->handle_stuck(digest));  // one-hop gossip: consumed, no relay
    EXPECT_TRUE(h.broadcast.empty());
    EXPECT_TRUE(h.routed.empty());
}

// --------------------------------------------- anti-entropy, end to end

TEST(Als, RestartedServerIsRepairedByAntiEntropy) {
    // Crash-and-restart one in-radius server of the target's home grid. Its
    // store comes back empty; the surviving replicas' periodic digests must
    // repair it within a couple of gossip rounds.
    AlsNet net(LocationService::Mode::kAnonymous);
    net.run_until(20.0);

    const GridMap grid(mobility::Area{1500, 300}, 300.0);
    const Vec2 center = grid.center_of(grid.home_grid(15));
    NodeId victim = net::kInvalidNode;
    for (NodeId id = 0; id < static_cast<NodeId>(net.agents.size()); ++id) {
        if (util::distance(net.network.true_position(id), center) <= 200.0 &&
            net.agents[id]->location_service()->store_size() > 0) {
            victim = id;
            break;
        }
    }
    ASSERT_NE(victim, net::kInvalidNode);

    net.network.node(victim).set_up(false);
    net.run_until(21.0);
    net.network.node(victim).set_up(true);  // restart wipes the LS store
    EXPECT_EQ(net.agents[victim]->location_service()->store_size(), 0u);

    net.run_until(40.0);  // several digest intervals (5 s each)
    EXPECT_GT(net.agents[victim]->location_service()->store_size(), 0u);
    std::uint64_t digests = 0, repairs = 0;
    for (auto* a : net.agents) {
        digests += a->location_service()->stats().digests_sent;
        repairs += a->location_service()->stats().repairs_sent;
    }
    EXPECT_GT(digests, 0u);
    EXPECT_GT(repairs, 0u);
}

}  // namespace
