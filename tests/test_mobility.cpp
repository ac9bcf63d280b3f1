#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "mobility/mobility.hpp"
#include "phy/engine_state.hpp"

namespace {

using namespace geoanon::mobility;
using geoanon::util::Rng;
using geoanon::util::SimTime;
using geoanon::util::Vec2;
using geoanon::phy::EngineState;

TEST(Area, ContainsAndCenter) {
    const Area area{1500, 300};
    EXPECT_TRUE(area.contains({0, 0}));
    EXPECT_TRUE(area.contains({1500, 300}));
    EXPECT_FALSE(area.contains({-1, 0}));
    EXPECT_FALSE(area.contains({0, 301}));
    EXPECT_EQ(area.center(), (Vec2{750, 150}));
}

TEST(Area, RandomPointInside) {
    const Area area{100, 50};
    Rng rng(3);
    for (int i = 0; i < 500; ++i) EXPECT_TRUE(area.contains(area.random_point(rng)));
}

TEST(Stationary, NeverMoves) {
    StationaryMobility m({10, 20});
    EXPECT_EQ(m.position_at(SimTime::zero()), (Vec2{10, 20}));
    EXPECT_EQ(m.position_at(SimTime::seconds(1000)), (Vec2{10, 20}));
    EXPECT_EQ(m.velocity_at(SimTime::seconds(5)), Vec2{});
}

class RwpTest : public ::testing::Test {
  protected:
    Area area_{1500, 300};
    RandomWaypoint::Params params_{};  // 1..20 m/s, 60 s pause
};

TEST_F(RwpTest, StartsAtGivenPosition) {
    RandomWaypoint m(area_, {100, 100}, params_, Rng(1));
    EXPECT_EQ(m.position_at(SimTime::zero()), (Vec2{100, 100}));
}

TEST_F(RwpTest, StaysInsideArea) {
    RandomWaypoint m(area_, {750, 150}, params_, Rng(2));
    for (int t = 0; t <= 2000; t += 13) {
        const Vec2 p = m.position_at(SimTime::seconds(t));
        EXPECT_TRUE(area_.contains(p)) << "t=" << t << " p=(" << p.x << "," << p.y << ")";
    }
}

TEST_F(RwpTest, SpeedWithinBounds) {
    RandomWaypoint m(area_, {10, 10}, params_, Rng(3));
    const double dt = 0.5;
    for (double t = 0; t < 1000; t += dt) {
        const Vec2 a = m.position_at(SimTime::seconds(t));
        const Vec2 b = m.position_at(SimTime::seconds(t + dt));
        const double speed = geoanon::util::distance(a, b) / dt;
        // Allow boundary effects when a leg ends mid-interval.
        EXPECT_LE(speed, params_.max_speed_mps + 1e-6);
    }
}

TEST_F(RwpTest, PausesAtWaypoints) {
    // With a 60 s pause, there must be windows where the node does not move.
    RandomWaypoint m(area_, {10, 10}, params_, Rng(4));
    int still_samples = 0;
    for (double t = 0; t < 3000; t += 1.0) {
        const Vec2 a = m.position_at(SimTime::seconds(t));
        const Vec2 b = m.position_at(SimTime::seconds(t + 0.5));
        if (geoanon::util::distance(a, b) < 1e-9) ++still_samples;
    }
    EXPECT_GT(still_samples, 50);
}

TEST_F(RwpTest, VelocityConsistentWithMotion) {
    RandomWaypoint m(area_, {10, 10}, params_, Rng(5));
    for (double t = 0.5; t < 500; t += 7.3) {
        const Vec2 v = m.velocity_at(SimTime::seconds(t));
        const double dt = 0.01;
        const Vec2 a = m.position_at(SimTime::seconds(t));
        const Vec2 b = m.position_at(SimTime::seconds(t + dt));
        const Vec2 numeric = (b - a) / dt;
        EXPECT_NEAR(v.x, numeric.x, 0.5);
        EXPECT_NEAR(v.y, numeric.y, 0.5);
    }
}

TEST_F(RwpTest, DeterministicForSeed) {
    RandomWaypoint m1(area_, {5, 5}, params_, Rng(42));
    RandomWaypoint m2(area_, {5, 5}, params_, Rng(42));
    for (double t = 0; t < 500; t += 11) {
        EXPECT_EQ(m1.position_at(SimTime::seconds(t)), m2.position_at(SimTime::seconds(t)));
    }
}

TEST_F(RwpTest, OutOfOrderQueriesConsistent) {
    RandomWaypoint m1(area_, {5, 5}, params_, Rng(43));
    RandomWaypoint m2(area_, {5, 5}, params_, Rng(43));
    // m1 queried forward, m2 queried backward: identical trajectory.
    std::vector<Vec2> fwd;
    for (double t = 0; t <= 300; t += 10) fwd.push_back(m1.position_at(SimTime::seconds(t)));
    std::vector<Vec2> bwd;
    for (double t = 300; t >= 0; t -= 10) bwd.push_back(m2.position_at(SimTime::seconds(t)));
    for (std::size_t i = 0; i < fwd.size(); ++i)
        EXPECT_EQ(fwd[i], bwd[bwd.size() - 1 - i]);
}

TEST_F(RwpTest, CoversTheAreaEventually) {
    RandomWaypoint m(area_, {0, 0}, params_, Rng(44));
    bool left = false, right = false;
    for (double t = 0; t < 20000; t += 5) {
        const Vec2 p = m.position_at(SimTime::seconds(t));
        if (p.x < 300) left = true;
        if (p.x > 1200) right = true;
    }
    EXPECT_TRUE(left);
    EXPECT_TRUE(right);
}

TEST(UniformPlacement, CountAndBounds) {
    const Area area{100, 100};
    Rng rng(9);
    const auto pts = uniform_placement(area, 50, rng);
    EXPECT_EQ(pts.size(), 50u);
    for (const auto& p : pts) EXPECT_TRUE(area.contains(p));
}

// ---------------------------------------------------------------------------
// EngineState motion legs vs the models. Every radio position in the
// simulator comes from EngineState rows evaluating cached motion_at legs;
// they must equal the model's own position_at/velocity_at bit for bit.

/// Assert row `row` of `state` matches `model` exactly at `t`.
void expect_row_matches(EngineState& state, EngineState::Index row, MobilityModel& model,
                        SimTime t) {
    const Vec2 p = state.position(row, t);
    const Vec2 v = state.velocity(row, t);
    const Vec2 mp = model.position_at(t);
    const Vec2 mv = model.velocity_at(t);
    ASSERT_EQ(p.x, mp.x) << "row " << row << " t=" << t.ns();
    ASSERT_EQ(p.y, mp.y) << "row " << row << " t=" << t.ns();
    ASSERT_EQ(v.x, mv.x) << "row " << row << " t=" << t.ns();
    ASSERT_EQ(v.y, mv.y) << "row " << row << " t=" << t.ns();
}

TEST(EngineStateLegs, RandomWaypointBitIdenticalAtRandomTimesInRandomOrder) {
    // Rows with and without pauses; each row's model is a twin (same seed)
    // of the reference queried directly, so the two share no cache.
    const Area area{1500, 300};
    const SimTime horizon = SimTime::seconds(900);
    std::vector<std::unique_ptr<RandomWaypoint>> rows, twins;
    EngineState state;
    for (std::uint64_t i = 0; i < 6; ++i) {
        RandomWaypoint::Params params;
        params.pause = SimTime::seconds(i % 2 == 0 ? 0.0 : 7.5);
        params.min_speed_mps = 1.0 + static_cast<double>(i);
        const Vec2 start{100.0 * static_cast<double>(i), 50.0};
        rows.push_back(std::make_unique<RandomWaypoint>(area, start, params, Rng(100 + i)));
        twins.push_back(std::make_unique<RandomWaypoint>(area, start, params, Rng(100 + i)));
        EXPECT_EQ(state.add_row(rows.back().get()), i);
    }
    Rng rng(77);
    for (int q = 0; q < 20000; ++q) {
        const auto row = static_cast<EngineState::Index>(rng.uniform_int(0, 5));
        const SimTime t = SimTime::nanos(rng.uniform_int(0, horizon.ns()));
        expect_row_matches(state, row, *twins[row], t);
    }
}

TEST(EngineStateLegs, RandomWaypointBitIdenticalAtEveryLegBoundary) {
    const Area area{1500, 300};
    RandomWaypoint::Params params;
    params.pause = SimTime::seconds(3.0);
    RandomWaypoint row_model(area, {10, 10}, params, Rng(5));
    RandomWaypoint twin(area, {10, 10}, params, Rng(5));
    RandomWaypoint walker(area, {10, 10}, params, Rng(5));
    EngineState state;
    const EngineState::Index row = state.add_row(&row_model);

    // Walk the legs in order, then query each boundary (and its
    // neighbours) out of order: backwards, which forces a refresh each time.
    std::vector<SimTime> times;
    SimTime t = SimTime::zero();
    for (int leg = 0; leg < 400; ++leg) {
        MotionSample s = walker.motion_at(t);
        // At the exact end of the generated trajectory the model may still
        // report the leg that ends there; the next leg starts at t.
        if (s.end <= t) s = walker.motion_at(t + SimTime::nanos(1));
        ASSERT_EQ(s.start, t);
        for (const SimTime b : {s.start, s.move_start, s.end}) {
            times.push_back(b);
            times.push_back(b + SimTime::nanos(1));
            if (b > SimTime::zero()) times.push_back(b - SimTime::nanos(1));
        }
        t = s.end;
    }
    std::reverse(times.begin(), times.end());
    for (const SimTime q : times) expect_row_matches(state, row, twin, q);
}

TEST(EngineStateLegs, StationaryBitIdentical) {
    StationaryMobility model({-3.25, 1e6});
    EngineState state;
    const EngineState::Index row = state.add_row(&model);
    for (const SimTime t : {SimTime::zero(), SimTime::nanos(1), SimTime::seconds(1e6),
                            SimTime::max() - SimTime::nanos(1), SimTime::max()}) {
        expect_row_matches(state, row, model, t);
    }
}

}  // namespace
