#pragma once

// Test-side mobility models whose position may change at any instant (a
// teleport, a scripted jump). motion_at reports a zero-length leg at the
// query time, so mobility::current_leg, and with it the channel, asks the
// model again on every lookup.

#include "mobility/mobility.hpp"

namespace geoanon::test_support {

/// Subclasses define where(t), the position at t; velocity is always zero.
class FreshLegMobility : public mobility::MobilityModel {
  public:
    virtual util::Vec2 where(util::SimTime t) = 0;
    mobility::MotionSample motion_at(util::SimTime t) override {
        const util::Vec2 p = where(t);
        return mobility::MotionSample{t, t, t, p, p};
    }
};

/// Sits where the test last put it.
class TeleportMobility final : public FreshLegMobility {
  public:
    explicit TeleportMobility(util::Vec2 pos) : pos_(pos) {}
    void move_to(util::Vec2 pos) { pos_ = pos; }
    util::Vec2 where(util::SimTime) override { return pos_; }

  private:
    util::Vec2 pos_;
};

}  // namespace geoanon::test_support
