#pragma once

#include <cstdint>
#include <type_traits>

/// Declare a struct's counters once. A counter list is a macro taking one
/// argument X and expanding to one `X(field, "layer.metric")` entry per
/// counter; a per-counter note goes on its line as a /* ... */ comment (a
/// `//` comment before the line-continuation backslash would swallow the
/// next entry). Expanded inside a struct body, GEOANON_COUNTERS(LIST) gives
///  - one `std::uint64_t field{0};` member per entry, in list order, and
///  - `for_each(fn)`, which calls `fn("layer.metric", field)` in list order,
///  - `operator+=`, which adds another struct of the same type field by field.
/// obs::MetricsRegistry::add_all(s) publishes a struct through for_each, so
/// a counter is named once: in its list entry. Per-node layers sum their
/// structs with += and publish the total once.
///
/// For example (each entry on its own line in real lists):
///   #define GEOANON_MAC_COUNTERS(X) X(retries, "mac.retries") X(cts_sent, "mac.cts_sent")
///   struct MacStats { GEOANON_COUNTERS(GEOANON_MAC_COUNTERS) };
#define GEOANON_COUNTER_FIELD(field, name) std::uint64_t field{0};
#define GEOANON_COUNTER_VISIT(field, name) fn(name, field);
#define GEOANON_COUNTER_SUM(field, name) field += other.field;
#define GEOANON_COUNTERS(LIST)                                                      \
    LIST(GEOANON_COUNTER_FIELD)                                                     \
    template <typename Fn>                                                          \
    void for_each(Fn&& fn) const {                                                  \
        LIST(GEOANON_COUNTER_VISIT)                                                 \
    }                                                                               \
    template <typename Other>                                                       \
    auto operator+=(const Other& other) -> decltype(*this) {                        \
        static_assert(std::is_same_v<Other, std::remove_cvref_t<decltype(*this)>>); \
        LIST(GEOANON_COUNTER_SUM)                                                   \
        return *this;                                                               \
    }
