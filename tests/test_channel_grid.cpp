// Spatial-hash channel checks. The grid is an index, not a model change, so
// every observable outcome must match the single-cell reference (one
// infinite cell: every radio is a candidate for every transmission). The
// matrix tests run whole scenarios both ways (scheme x fault class) and
// compare the full serialized ScenarioResult; the rig tests pin down the
// geometric edge cases the 9-cell query must survive, and a randomized rig
// checks each frame's receivers against plain distance arithmetic on the
// mobility models, independent of the channel's code.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "experiment/json.hpp"
#include "fresh_leg_mobility.hpp"
#include "mobility/mobility.hpp"
#include "phy/channel.hpp"
#include "reference/single_cell.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using phy::Channel;
using phy::Frame;
using phy::PhyParams;
using phy::Radio;
using util::SimTime;
using util::Vec2;
using workload::ScenarioConfig;
using workload::ScenarioResult;
using workload::ScenarioRunner;
using workload::Scheme;

// ---------------------------------------------------------------------------
// Scenario equivalence matrix

ScenarioConfig matrix_config(Scheme scheme, std::uint64_t seed = 5) {
    ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.num_nodes = 25;
    cfg.sim_seconds = 40.0;
    cfg.traffic_stop_s = 35.0;
    cfg.seed = seed;
    return cfg;
}

/// Run `cfg` with the default grid and with the single-cell reference; the
/// serialized results (every deterministic field) must match byte for byte.
void expect_equivalent(ScenarioConfig cfg) {
    const ScenarioResult grid = ScenarioRunner(cfg).run();
    cfg.phy = reference::single_cell(cfg.phy);
    const ScenarioResult single = ScenarioRunner(cfg).run();
    EXPECT_EQ(grid.events_processed, single.events_processed);
    EXPECT_EQ(experiment::result_to_json(grid), experiment::result_to_json(single));
}

TEST(ChannelGridEquivalence, GpsrGreedy) { expect_equivalent(matrix_config(Scheme::kGpsrGreedy)); }

TEST(ChannelGridEquivalence, AgfwAck) { expect_equivalent(matrix_config(Scheme::kAgfwAck)); }

TEST(ChannelGridEquivalence, AgfwNoAck) { expect_equivalent(matrix_config(Scheme::kAgfwNoAck)); }

TEST(ChannelGridEquivalence, UnderChurn) {
    ScenarioConfig cfg = matrix_config(Scheme::kAgfwAck, 7);
    fault::FaultPlan::Churn churn;
    churn.crash_rate_per_s = 0.5;
    churn.start = SimTime::seconds(5.0);
    churn.max_concurrent_down = 5;
    cfg.faults.churn = churn;
    cfg.faults.seed = 21;
    expect_equivalent(cfg);
}

TEST(ChannelGridEquivalence, UnderBurstLossAndJam) {
    // Stateful drop models (the Gilbert-Elliott chain advances per decode
    // decision) are the sharpest equivalence probe: a single reordered or
    // extra candidate visit desynchronizes the RNG chain for the whole run.
    ScenarioConfig cfg = matrix_config(Scheme::kAgfwAck, 9);
    fault::FaultPlan::GilbertElliott ge;
    ge.start = SimTime::seconds(5.0);
    cfg.faults.gilbert_elliott = ge;
    fault::FaultPlan::Jam jam;
    jam.center = {750.0, 150.0};
    jam.radius_m = 200.0;
    jam.start = SimTime::seconds(10.0);
    jam.stop = SimTime::seconds(25.0);
    cfg.faults.jams.push_back(jam);
    expect_equivalent(cfg);
}

TEST(ChannelGridEquivalence, UnderCrashesGpsNoiseAndAlsOutage) {
    ScenarioConfig cfg = matrix_config(Scheme::kAgfwAck, 13);
    cfg.location_service = routing::LocationService::Mode::kAnonymous;
    cfg.traffic_start_s = 15.0;
    cfg.faults.crashes.push_back({3, SimTime::seconds(12.0), SimTime::seconds(10.0)});
    cfg.faults.crashes.push_back({8, SimTime::seconds(20.0), SimTime{}});
    fault::FaultPlan::GpsNoise gps;
    gps.sigma_m = 10.0;
    cfg.faults.gps_noise = gps;
    cfg.faults.als_outages.push_back({5, SimTime::seconds(18.0)});
    expect_equivalent(cfg);
}

TEST(ChannelGridEquivalence, RangeEqualsCsRange) {
    // Degenerate geometry the issue calls out: decode range == carrier-sense
    // range, so the cs pre-filter and the decode test coincide.
    ScenarioConfig cfg = matrix_config(Scheme::kAgfwAck, 17);
    cfg.phy.range_m = 250.0;
    cfg.phy.cs_range_m = 250.0;
    expect_equivalent(cfg);
}

// ---------------------------------------------------------------------------
// Rig-level edge cases (same rig shape as test_phy.cpp)

struct Rig {
    explicit Rig(PhyParams params = {}) : channel(sim, params) {}

    Radio& add(std::unique_ptr<mobility::MobilityModel> model) {
        models.push_back(std::move(model));
        radios.push_back(std::make_unique<Radio>(sim, channel, *models.back()));
        received.emplace_back();
        auto idx = received.size() - 1;
        radios.back()->set_mac_hooks(
            nullptr, nullptr, [this, idx](const Frame& f) { received[idx].push_back(f); });
        return *radios.back();
    }
    Radio& add(Vec2 pos) { return add(std::make_unique<mobility::StationaryMobility>(pos)); }
    /// A radio the test moves by hand; returns its model.
    test_support::TeleportMobility& add_teleport(Vec2 pos) {
        add(std::make_unique<test_support::TeleportMobility>(pos));
        return static_cast<test_support::TeleportMobility&>(*models.back());
    }

    Frame frame(std::uint32_t bytes = 100) {
        Frame f;
        f.type = Frame::Type::kData;
        f.wire_bytes = bytes;
        return f;
    }

    sim::Simulator sim;
    Channel channel;
    std::vector<std::unique_ptr<mobility::MobilityModel>> models;
    std::vector<std::unique_ptr<Radio>> radios;
    std::vector<std::vector<Frame>> received;
};

/// Stationary grid (no mobility slack): cell size is exactly cs_range_m.
PhyParams static_grid_params() {
    PhyParams p;
    p.grid_max_speed_mps = 0.0;
    return p;
}

TEST(ChannelGrid, DeliveryAtExactDecodeRange) {
    Rig rig(static_grid_params());
    Radio& tx = rig.add({0, 0});
    rig.add({250, 0});  // d == range_m exactly
    rig.add({250.001, 0});
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(rig.received[1].size(), 1u);
    EXPECT_TRUE(rig.received[2].empty());
}

TEST(ChannelGrid, NodesExactlyOnCellBoundaries) {
    // Cell size is 550 m here. Positions at exact multiples of the cell size
    // land on bucket edges; receivers one cell over (including diagonal)
    // must still be found, and in-range delivery must be unaffected.
    Rig rig(static_grid_params());
    Radio& tx = rig.add({550.0, 550.0});  // corner of four cells
    rig.add({550.0 - 200.0, 550.0});      // cell (0,1) in x, in range
    rig.add({550.0 + 200.0, 550.0});      // cell (1,1), in range
    rig.add({550.0, 550.0 - 200.0});      // cell (1,0) via y edge... in range
    rig.add({550.0 - 150.0, 550.0 - 150.0});  // diagonal neighbor cell
    rig.add({1100.0, 550.0});             // exactly on next boundary, d=550: cs only
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(rig.received[1].size(), 1u);
    EXPECT_EQ(rig.received[2].size(), 1u);
    EXPECT_EQ(rig.received[3].size(), 1u);
    EXPECT_EQ(rig.received[4].size(), 1u);
    EXPECT_TRUE(rig.received[5].empty());  // in cs range only: energy, no decode
    EXPECT_EQ(rig.channel.stats().deliveries, 4u);
}

TEST(ChannelGrid, NegativeCoordinatesBucketCorrectly) {
    Rig rig(static_grid_params());
    Radio& tx = rig.add({-10.0, -10.0});  // cell (-1,-1)
    rig.add({100.0, 100.0});              // cell (0,0), d ~ 155 m
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(rig.received[1].size(), 1u);
}

TEST(ChannelGrid, MovingRadioIsReBucketed) {
    // The receiver starts out of decode range, then drifts in. With a short
    // rebucket interval every transmission sees a fresh sweep, so the grid
    // tracks the model without any explicit notification.
    PhyParams p;
    p.grid_rebucket_interval = SimTime::micros(1);
    p.grid_max_speed_mps = 0.0;
    Rig rig(p);
    Radio& tx = rig.add({0, 0});
    test_support::TeleportMobility& rx = rig.add_teleport({2000.0, 0.0});
    rig.sim.at(SimTime::zero(), [&] { tx.start_tx(rig.frame()); });
    rig.sim.at(SimTime::seconds(1.0), [&] {
        rx.move_to({200.0, 0.0});
        tx.start_tx(rig.frame());
    });
    rig.sim.run();
    ASSERT_EQ(rig.received[1].size(), 1u);  // only the second frame
}

TEST(ChannelGrid, StaleBucketStillExactWithinSpeedHint) {
    // Between sweeps a radio may sit in a stale bucket; the mobility slack in
    // the cell size must keep it reachable. Drift right up to the worst case:
    // speed hint x interval metres between two transmissions inside one
    // sweep period.
    PhyParams p;
    p.grid_rebucket_interval = SimTime::seconds(10.0);
    p.grid_max_speed_mps = 50.0;  // slack = 500 m
    Rig rig(p);
    Radio& tx = rig.add({0, 0});
    test_support::TeleportMobility& rx = rig.add_teleport({700.0, 0.0});  // out of range
    rig.sim.at(SimTime::zero(), [&] { tx.start_tx(rig.frame()); });  // sweeps at t=0
    rig.sim.at(SimTime::seconds(9.9), [&] {
        rx.move_to({210.0, 0.0});  // drifted 490 m < slack; no sweep yet
        tx.start_tx(rig.frame());
    });
    rig.sim.run();
    ASSERT_EQ(rig.received[1].size(), 1u);
}

TEST(ChannelGrid, LateRegisteredRadioHeardBeforeFirstSweep) {
    // A radio added mid-run must be a reception candidate long before the
    // next periodic sweep: registration makes the next transmission sweep.
    PhyParams p;
    p.grid_rebucket_interval = SimTime::seconds(100.0);
    Rig rig(p);
    Radio& tx = rig.add({0, 0});
    rig.sim.at(SimTime::zero(), [&] { tx.start_tx(rig.frame()); });  // sweep happens
    rig.sim.at(SimTime::seconds(1.0), [&] {
        rig.add({100.0, 0.0});  // registered long before the next sweep
    });
    rig.sim.at(SimTime::seconds(2.0), [&] { tx.start_tx(rig.frame()); });
    rig.sim.run();
    ASSERT_EQ(rig.received[1].size(), 1u);
}

TEST(ChannelGrid, ReceiversInAllNineCellsHearInRegistrationOrder) {
    // Cell size 562.5 m (550 m cs range + 50 m/s x 250 ms slack); the sender
    // sits at the center of cell (0,0) and the 500 m decode range reaches a
    // receiver in each of the 9 cells around it. Receivers are registered
    // in an order unrelated to their cells, so visiting cell by cell would
    // interleave them: on_rx must still fire in ascending registration
    // index. It must stay so after every receiver changes cell at each
    // sweep (bucket erase/insert churn) and after a late registration.
    PhyParams p;
    p.range_m = 500.0;
    Rig rig(p);
    const double cell = p.cs_range_m + p.grid_max_speed_mps * p.grid_rebucket_interval.to_seconds();
    const Vec2 center{cell / 2, cell / 2};
    // One spot per cell, listed out of cell order, 100 to 424 m from the
    // sender.
    const std::vector<Vec2> spots{
        {center.x + 300, center.y + 300}, {center.x - 300, center.y},
        {center.x + 100, center.y},       {center.x + 300, center.y - 300},
        {center.x - 300, center.y + 300}, {center.x, center.y - 300},
        {center.x + 300, center.y},       {center.x - 300, center.y - 300},
        {center.x, center.y + 300}};
    std::vector<std::uint32_t> order;
    Radio& tx = rig.add(center);
    std::vector<test_support::TeleportMobility*> movers;
    for (const Vec2& spot : spots) {
        movers.push_back(&rig.add_teleport(spot));
        const auto idx = static_cast<std::uint32_t>(rig.radios.size() - 1);
        rig.radios.back()->set_mac_hooks(nullptr, nullptr,
                                         [&order, idx](const Frame&) { order.push_back(idx); });
    }
    const std::vector<std::uint32_t> all_nine{1, 2, 3, 4, 5, 6, 7, 8, 9};

    // Round r puts receiver i on spot (i * 4 + r) % 9, a different cell each
    // sweep; the rebucket interval has passed before every transmission.
    constexpr int kRounds = 12;
    for (int r = 0; r < kRounds; ++r) {
        rig.sim.at(p.grid_rebucket_interval * r, [&, r] {
            for (std::size_t i = 0; i < movers.size(); ++i)
                movers[i]->move_to(spots[(i * 4 + static_cast<std::size_t>(r)) % spots.size()]);
            order.clear();
            tx.start_tx(rig.frame());
        });
        rig.sim.at(p.grid_rebucket_interval * r + SimTime::millis(5),
                   [&, r] { EXPECT_EQ(order, all_nine) << "round " << r; });
    }
    rig.sim.run();

    // A late radio in cell (-1,-1), the first cell the query looks at, has
    // the highest index: it must be heard last.
    rig.add({center.x - 300.0, center.y - 300.0});
    const auto late = static_cast<std::uint32_t>(rig.radios.size() - 1);
    rig.radios.back()->set_mac_hooks(nullptr, nullptr,
                                     [&order, late](const Frame&) { order.push_back(late); });
    order.clear();
    tx.start_tx(rig.frame());
    rig.sim.run();
    std::vector<std::uint32_t> expected = all_nine;
    expected.push_back(late);
    EXPECT_EQ(order, expected);
}

TEST(ChannelGrid, FilteredRunsKeepRegistrationOrder) {
    // Each bucket is filtered by cs_range_m before the merge. Radios sit in
    // all 9 cells around the sender, registered out of cell order with the
    // sender in the middle, some beyond cs_range_m in the same cells as
    // radios within it. Half of them have a busy hook (not quiet), half do
    // not (quiet). In round 2 three receivers jump beyond cs_range_m inside
    // their cells, which leaves buckets with no radio in range. Busy edges
    // and on_rx must follow ascending registration index over exactly the
    // radios the distance arithmetic puts in range, and every radio's
    // carrier sense mid-frame must match it.
    PhyParams p;
    p.range_m = 400.0;
    Rig rig(p);
    const double cell = p.cs_range_m + p.grid_max_speed_mps * p.grid_rebucket_interval.to_seconds();
    const Vec2 c{cell / 2, cell / 2};
    struct Spot {
        Vec2 round1;  // offset from the sender
        Vec2 round2;
        bool busy_hook;
    };
    const std::vector<Spot> spots{
        {{+290, +290}, {+290, +290}, true},    // (1,1) sense
        {{+600, 0}, {+600, 0}, false},         // (1,0) beyond
        {{-290, 0}, {-290, 0}, false},         // (-1,0) decode
        {{+290, -290}, {+700, -540}, true},    // (1,-1) sense, then beyond
        {{-560, +560}, {-560, +560}, true},    // (-1,1) beyond
        {{+100, +50}, {+100, +50}, true},      // (0,0) decode
        {{}, {}, false},                       // the sender
        {{0, +400}, {0, +400}, false},         // (0,1) decode
        {{-500, -500}, {-500, -500}, false},   // (-1,-1) beyond
        {{-290, +290}, {-540, +700}, false},   // (-1,1) sense, then beyond
        {{0, -299}, {0, -299}, true},          // (0,-1) decode
        {{+350, 0}, {+350, 0}, true},          // (1,0) decode
        {{-300, -300}, {-520, -520}, true},    // (-1,-1) sense, then beyond
        {{-100, +560}, {-100, +560}, true},    // (0,1) beyond
        {{+700, -560}, {+700, -560}, false},   // (1,-1) beyond
    };
    constexpr std::uint32_t kSender = 6;
    std::vector<std::uint32_t> busy_order, rx_order;
    std::vector<test_support::TeleportMobility*> movers;
    for (std::uint32_t i = 0; i < spots.size(); ++i) {
        const Vec2 at{c.x + spots[i].round1.x, c.y + spots[i].round1.y};
        movers.push_back(&rig.add_teleport(at));
        if (i == kSender) continue;
        std::function<void()> on_busy;
        if (spots[i].busy_hook) on_busy = [&busy_order, i] { busy_order.push_back(i); };
        rig.radios[i]->set_mac_hooks(std::move(on_busy), nullptr,
                                     [&rx_order, i](const Frame&) { rx_order.push_back(i); });
    }
    const auto cell_of = [cell](Vec2 v) {
        return std::pair{static_cast<int>(std::floor(v.x / cell)),
                         static_cast<int>(std::floor(v.y / cell))};
    };

    for (int round = 1; round <= 2; ++round) {
        std::vector<std::uint32_t> want_busy, want_rx;
        std::vector<bool> want_sense(spots.size(), false);
        std::set<std::pair<int, int>> cells, cells_in_range;
        for (std::uint32_t i = 0; i < spots.size(); ++i) {
            if (i == kSender) continue;
            const Vec2 off = round == 1 ? spots[i].round1 : spots[i].round2;
            const Vec2 at{c.x + off.x, c.y + off.y};
            movers[i]->move_to(at);
            const double d = util::distance(c, at);
            cells.insert(cell_of(at));
            if (d > p.cs_range_m) continue;
            cells_in_range.insert(cell_of(at));
            want_sense[i] = true;
            if (spots[i].busy_hook) want_busy.push_back(i);
            if (d <= p.range_m) want_rx.push_back(i);
        }
        ASSERT_EQ(cells.size(), 9u);
        ASSERT_EQ(cells_in_range.size(), round == 1 ? 9u : 6u);

        busy_order.clear();
        rx_order.clear();
        std::vector<bool> sense(spots.size(), false);
        // Each round starts a rebucket interval after the last one began.
        const SimTime t0 = p.grid_rebucket_interval * round;
        const SimTime air = p.airtime(100);
        rig.sim.at(t0, [&] { rig.radios[kSender]->start_tx(rig.frame()); });
        rig.sim.at(t0 + SimTime::nanos(air.ns() / 2), [&] {
            for (std::uint32_t i = 0; i < spots.size(); ++i)
                if (i != kSender) sense[i] = rig.radios[i]->energy_busy();
        });
        rig.sim.run_until(t0 + air * 2);
        EXPECT_EQ(busy_order, want_busy) << "round " << round;
        EXPECT_EQ(rx_order, want_rx) << "round " << round;
        EXPECT_EQ(sense, want_sense) << "round " << round;
        for (std::uint32_t i = 0; i < spots.size(); ++i)
            EXPECT_FALSE(rig.radios[i]->energy_busy()) << "radio " << i << " round " << round;
    }
}

TEST(ChannelGrid, ReceiversMatchGeometricOracle) {
    // 200 radios crossing a 3 km square at up to the grid's speed hint (so
    // buckets go stale between sweeps by as much as the slack allows), one
    // frame every 2 ms from a random sender: airtimes never overlap, so
    // every radio within range_m of the sender decodes and nobody else does.
    // The expected set comes from position_at on the models alone.
    const PhyParams params;
    sim::Simulator sim;
    Channel channel(sim, params);
    util::Rng rng(2024);
    const mobility::Area area{3000.0, 3000.0};
    mobility::RandomWaypoint::Params mp;
    mp.min_speed_mps = 0.8 * params.grid_max_speed_mps;
    mp.max_speed_mps = params.grid_max_speed_mps;
    mp.pause = SimTime::zero();

    constexpr std::size_t kRadios = 200;
    std::vector<std::unique_ptr<mobility::RandomWaypoint>> models;
    std::vector<std::unique_ptr<Radio>> radios;
    std::vector<std::vector<std::uint32_t>> heard;  // per frame seq: receivers in on_rx order
    for (std::size_t i = 0; i < kRadios; ++i) {
        models.push_back(std::make_unique<mobility::RandomWaypoint>(
            area, area.random_point(rng), mp, rng.fork()));
        radios.push_back(std::make_unique<Radio>(sim, channel, *models.back()));
        radios.back()->set_mac_hooks(nullptr, nullptr, [&heard, i](const Frame& f) {
            heard[f.seq].push_back(static_cast<std::uint32_t>(i));
        });
    }

    constexpr std::uint32_t kFrames = 10000;
    const SimTime spacing = SimTime::millis(2);
    ASSERT_LT(params.airtime(100), spacing);
    std::vector<std::vector<std::uint32_t>> expected(kFrames);
    heard.resize(kFrames);
    for (std::uint32_t k = 0; k < kFrames; ++k) {
        const auto sender = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kRadios) - 1));
        sim.at(spacing * k, [&, k, sender] {
            const Vec2 from = models[sender]->position_at(sim.now());
            for (std::size_t j = 0; j < kRadios; ++j) {
                if (j == sender) continue;
                if (util::distance(from, models[j]->position_at(sim.now())) <= params.range_m)
                    expected[k].push_back(static_cast<std::uint32_t>(j));
            }
            Frame f;
            f.wire_bytes = 100;
            f.seq = k;
            radios[sender]->start_tx(f);
        });
    }
    sim.run();

    std::uint64_t deliveries = 0;
    for (std::uint32_t k = 0; k < kFrames; ++k) {
        ASSERT_EQ(heard[k], expected[k]) << "frame " << k << " at " << (spacing * k).ns() << " ns";
        deliveries += expected[k].size();
    }
    EXPECT_EQ(channel.stats().deliveries, deliveries);
    EXPECT_EQ(channel.stats().collisions, 0u);
    EXPECT_GT(deliveries, std::uint64_t{kFrames});  // a connected-enough field
}

}  // namespace
