#pragma once

// Reference channel configuration: the spatial grid with one infinite cell.
// Every radio lands in cell (0,0), so each transmission's candidates are all
// radios in registration order, the same visits a full O(N) scan makes. The
// default grid must produce byte-identical results against it
// (test_channel_grid, bench/scaling_grid). It is a correctness reference,
// not a speed baseline: it sorts all N candidates on every transmission.

#include <limits>

#include "phy/channel.hpp"

namespace geoanon::reference {

inline phy::PhyParams single_cell(phy::PhyParams params) {
    params.grid_max_speed_mps = std::numeric_limits<double>::infinity();
    return params;
}

}  // namespace geoanon::reference
