#pragma once

// Test-side mobility models whose position may change at any instant (a
// teleport, a scripted jump). motion_at reports a zero-length leg at the
// query time, so phy::EngineState asks the model again on every lookup.

#include "mobility/mobility.hpp"

namespace geoanon::test_support {

/// Subclasses define position_at; velocity is always zero.
class FreshLegMobility : public mobility::MobilityModel {
  public:
    util::Vec2 velocity_at(util::SimTime) override { return {}; }
    mobility::MotionSample motion_at(util::SimTime t) override {
        const util::Vec2 p = position_at(t);
        return mobility::MotionSample{t, t, t, p, p};
    }
};

/// Sits where the test last put it.
class TeleportMobility final : public FreshLegMobility {
  public:
    explicit TeleportMobility(util::Vec2 pos) : pos_(pos) {}
    void move_to(util::Vec2 pos) { pos_ = pos; }
    util::Vec2 position_at(util::SimTime) override { return pos_; }

  private:
    util::Vec2 pos_;
};

}  // namespace geoanon::test_support
