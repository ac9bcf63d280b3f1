#pragma once

#include <algorithm>
#include <cstdint>

#include "mobility/mobility.hpp"
#include "util/vec2.hpp"

namespace geoanon::routing {

using util::Vec2;

/// DLM-style partition of the area into square grids (Xue et al.). A node's
/// home grid — where its location servers live — is a public function of its
/// identity: ssa(id) = H(id) mod grid_count (§3.3).
class GridMap {
  public:
    GridMap(mobility::Area area, double cell_m)
        : area_(area),
          cell_(cell_m),
          cols_(static_cast<std::uint32_t>((area.width + cell_m - 1.0) / cell_m)),
          rows_(static_cast<std::uint32_t>((area.height + cell_m - 1.0) / cell_m)) {}

    std::uint32_t grid_count() const { return cols_ * rows_; }

    /// Grid index containing point `p` (clamped to the area).
    std::uint32_t grid_of(const Vec2& p) const {
        auto clamp = [](double v, double lo, double hi) {
            return v < lo ? lo : (v > hi ? hi : v);
        };
        const auto cx = static_cast<std::uint32_t>(
            clamp(p.x, 0.0, area_.width - 1e-9) / cell_);
        const auto cy = static_cast<std::uint32_t>(
            clamp(p.y, 0.0, area_.height - 1e-9) / cell_);
        return cy * cols_ + cx;
    }

    /// Geometric center of grid `g` (clamped inside the area for edge cells).
    Vec2 center_of(std::uint32_t g) const {
        const std::uint32_t cx = g % cols_;
        const std::uint32_t cy = g / cols_;
        const double x = std::min((cx + 0.5) * cell_, area_.width);
        const double y = std::min((cy + 0.5) * cell_, area_.height);
        return {x, y};
    }

    bool contains(std::uint32_t g, const Vec2& p) const { return grid_of(p) == g; }

    /// ssa(id): the home grid of identity `id` (§3.3). Public knowledge.
    std::uint32_t home_grid(std::uint64_t id) const {
        // Cheap integer mix is enough here; the privacy argument does not
        // rest on this mapping being secret.
        std::uint64_t z = id + 0x9E3779B97F4A7C15ULL;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return static_cast<std::uint32_t>((z ^ (z >> 31)) % grid_count());
    }

  private:
    mobility::Area area_;
    double cell_;
    std::uint32_t cols_;
    std::uint32_t rows_;
};

}  // namespace geoanon::routing
