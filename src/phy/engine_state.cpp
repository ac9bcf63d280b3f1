#include "phy/engine_state.hpp"

namespace geoanon::phy {

EngineState::Index EngineState::add_row(mobility::MobilityModel* model) {
    const auto idx = static_cast<Index>(model_.size());
    model_.push_back(model);
    // seg_end == seg_start == 0 marks the leg stale, so the first lookup
    // refreshes (every query time t satisfies t >= seg_end).
    seg_start_ns_.push_back(0);
    move_start_ns_.push_back(0);
    seg_end_ns_.push_back(0);
    from_x_.push_back(0.0);
    from_y_.push_back(0.0);
    to_x_.push_back(0.0);
    to_y_.push_back(0.0);
    up_.push_back(1);
    cell_x_.push_back(0);
    cell_y_.push_back(0);
    bucketed_.push_back(0);
    return idx;
}

void EngineState::refresh(Index i, SimTime t) {
    const mobility::MotionSample s = model_[i]->motion_at(t);
    seg_start_ns_[i] = s.start.ns();
    move_start_ns_[i] = s.move_start.ns();
    seg_end_ns_[i] = s.end.ns();
    from_x_[i] = s.from.x;
    from_y_[i] = s.from.y;
    to_x_[i] = s.to.x;
    to_y_[i] = s.to.y;
}

// geoanon: hot
Vec2 EngineState::position(Index i, SimTime t) {
    // Refresh once when the cached leg goes stale, then evaluate
    // unconditionally: a leg ending exactly at t (arrival instant) is handled
    // inside sample_position, matching position_at's own boundary behaviour.
    if (t.ns() < seg_start_ns_[i] || t.ns() >= seg_end_ns_[i]) refresh(i, t);
    return mobility::sample_position(sample_of(i), t);
}

// geoanon: hot
Vec2 EngineState::velocity(Index i, SimTime t) {
    if (t.ns() < seg_start_ns_[i] || t.ns() >= seg_end_ns_[i]) refresh(i, t);
    return mobility::sample_velocity(sample_of(i), t);
}

}  // namespace geoanon::phy
