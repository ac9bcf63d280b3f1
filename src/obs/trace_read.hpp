#pragma once

#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace geoanon::obs {

/// A Chrome-trace file decoded back into typed events.
struct LoadedTrace {
    TraceMeta meta;
    std::vector<Event> events;  ///< in file (= id) order
};

/// Decode and schema-check a Chrome trace produced by to_chrome_trace_json.
/// On any violation — missing key, wrong type, unknown event/cause name,
/// non-monotonic ids — returns false with a one-line diagnostic in `error`.
bool load_chrome_trace(const std::string& text, LoadedTrace& out, std::string& error);

}  // namespace geoanon::obs
