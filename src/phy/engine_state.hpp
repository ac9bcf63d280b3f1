#pragma once

#include <cstdint>
#include <vector>

#include "mobility/mobility.hpp"
#include "util/time.hpp"
#include "util/vec2.hpp"

namespace geoanon::phy {

using util::SimTime;
using util::Vec2;

/// Structure-of-arrays hot state for every radio on a channel: positions
/// (cached piecewise-linear motion legs), radio up/down flags, and grid-cell
/// membership. The Channel's 9-cell query, its rebucket sweep, and every
/// per-frame position lookup read these contiguous arrays instead of chasing
/// a per-node closure -> unique_ptr -> virtual call -> segment binary search
/// chain, which is what makes 100k+-node sweeps cache-feasible.
///
/// Every row is backed by a mobility model. Positions are evaluated with
/// mobility::sample_position on legs fetched via MobilityModel::motion_at, so
/// values are bit-identical to calling model->position_at(t) directly (same
/// expressions, same operation order; test_mobility checks this for both
/// product models). Rows are append-only and indexed by registration order
/// — the same order as Channel::radios_ — so indices stay stable for the
/// lifetime of the run (FaultInjector, InvariantChecker and obs taps key off
/// them).
class EngineState {
  public:
    using Index = std::uint32_t;

    /// Row whose position comes from `model`, which must outlive the
    /// EngineState.
    Index add_row(mobility::MobilityModel* model);

    std::size_t size() const { return model_.size(); }

    /// True position of row `i` at time `t` (refreshes the cached leg when
    /// it has gone stale).
    Vec2 position(Index i, SimTime t);
    Vec2 velocity(Index i, SimTime t);

    // Radio power state (fault injection) ---------------------------------
    void set_up(Index i, bool up) { up_[i] = up ? 1 : 0; }
    bool up(Index i) const { return up_[i] != 0; }

    // Grid-cell membership, written by the Channel's rebucket sweep --------
    void set_cell(Index i, std::int32_t x, std::int32_t y) {
        cell_x_[i] = x;
        cell_y_[i] = y;
    }
    std::int32_t cell_x(Index i) const { return cell_x_[i]; }
    std::int32_t cell_y(Index i) const { return cell_y_[i]; }
    void set_bucketed(Index i, bool b) { bucketed_[i] = b ? 1 : 0; }
    bool bucketed(Index i) const { return bucketed_[i] != 0; }

  private:
    void refresh(Index i, SimTime t);
    mobility::MotionSample sample_of(Index i) const {
        return mobility::MotionSample{SimTime::nanos(seg_start_ns_[i]),
                                      SimTime::nanos(move_start_ns_[i]),
                                      SimTime::nanos(seg_end_ns_[i]),
                                      Vec2{from_x_[i], from_y_[i]},
                                      Vec2{to_x_[i], to_y_[i]}};
    }

    // One entry per row, all parallel (SoA).
    std::vector<mobility::MobilityModel*> model_;
    // Cached motion leg: valid for t in [seg_start, seg_end).
    std::vector<std::int64_t> seg_start_ns_;
    std::vector<std::int64_t> move_start_ns_;
    std::vector<std::int64_t> seg_end_ns_;
    std::vector<double> from_x_, from_y_, to_x_, to_y_;
    std::vector<std::uint8_t> up_;
    std::vector<std::int32_t> cell_x_, cell_y_;
    std::vector<std::uint8_t> bucketed_;
};

}  // namespace geoanon::phy
