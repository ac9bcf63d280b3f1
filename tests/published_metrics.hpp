#pragma once

// Registry reads for assertions. MetricsSnapshot::counter() and gauge() read
// 0 for a name nobody published, so a misspelled name would pass an
// EXPECT_EQ(..., 0u); these fail the test instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace geoanon::test {

template <typename V>
V published(const std::vector<std::pair<std::string, V>>& values, std::string_view name) {
    const auto it = std::find_if(values.begin(), values.end(),
                                 [&](const auto& kv) { return kv.first == name; });
    if (it != values.end()) return it->second;
    ADD_FAILURE() << name << " was never published";
    return V{};
}

inline std::uint64_t published_counter(const obs::MetricsSnapshot& m, std::string_view name) {
    return published(m.counters, name);
}

inline double published_gauge(const obs::MetricsSnapshot& m, std::string_view name) {
    return published(m.gauges, name);
}

}  // namespace geoanon::test
