#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/seen_window.hpp"
#include "util/rng.hpp"

namespace {

using geoanon::core::SeenWindow;
using geoanon::util::Rng;
using geoanon::util::SimTime;

TEST(SeenWindow, EmptyUntilMarked) {
    SeenWindow w;
    EXPECT_FALSE(w.contains(0));
    EXPECT_FALSE(w.contains(42));
    EXPECT_EQ(w.size(), 0u);
    w.expire(SimTime::seconds(100.0), SimTime::seconds(10.0));
    EXPECT_EQ(w.size(), 0u);
}

TEST(SeenWindow, ExpiresStrictlyAfterTtl) {
    SeenWindow w;
    w.mark(7, SimTime::seconds(1.0));
    w.expire(SimTime::seconds(11.0), SimTime::seconds(10.0));
    EXPECT_TRUE(w.contains(7));  // exactly ttl old: kept
    w.expire(SimTime::seconds(11.0) + SimTime::nanos(1), SimTime::seconds(10.0));
    EXPECT_FALSE(w.contains(7));
    EXPECT_EQ(w.size(), 0u);
}

TEST(SeenWindow, RemarkExtendsLifetime) {
    SeenWindow w;
    w.mark(7, SimTime::seconds(1.0));
    w.mark(8, SimTime::seconds(2.0));
    w.mark(7, SimTime::seconds(5.0));
    EXPECT_EQ(w.size(), 2u);
    // The first mark of 7 expires, but its later mark keeps it.
    w.expire(SimTime::seconds(12.5), SimTime::seconds(10.0));
    EXPECT_TRUE(w.contains(7));
    EXPECT_FALSE(w.contains(8));
    w.expire(SimTime::seconds(15.5), SimTime::seconds(10.0));
    EXPECT_FALSE(w.contains(7));
    EXPECT_EQ(w.size(), 0u);
}

TEST(SeenWindow, ClearForgetsEverything) {
    SeenWindow w;
    for (std::uint64_t uid = 0; uid < 100; ++uid) w.mark(uid, SimTime::seconds(1.0));
    w.clear();
    EXPECT_EQ(w.size(), 0u);
    EXPECT_FALSE(w.contains(5));
    w.mark(5, SimTime::seconds(2.0));
    EXPECT_TRUE(w.contains(5));
}

TEST(SeenWindow, MatchesAFullScanAfterEveryOperation) {
    // Reference: the table as a hash map purged by a full scan, the
    // behaviour the window replaces. Small uid universes force re-marks,
    // probe-run collisions and backward-shift deletions; the large one grows
    // the ring to hundreds of entries.
    for (std::uint64_t universe : {5ull, 40ull, 1000ull}) {
        Rng rng(universe);
        SeenWindow w;
        std::unordered_map<std::uint64_t, SimTime> ref;
        const SimTime ttl = SimTime::millis(300);
        SimTime now = SimTime::zero();
        for (int op = 0; op < 20000; ++op) {
            now = now + SimTime::micros(static_cast<std::int64_t>(rng.uniform_int(0, 2000)));
            // Now and then a silence long enough to expire everything, so
            // the ring shrinks as well as grows.
            if (op % 5000 == 4999) now = now + SimTime::seconds(1.0);
            if (rng.uniform_int(0, 9) < 7) {
                const auto uid =
                    static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(universe)));
                w.mark(uid, now);
                ref[uid] = now;
            } else {
                w.expire(now, ttl);
                std::erase_if(ref, [&](const auto& kv) { return now - kv.second > ttl; });
            }
            ASSERT_EQ(w.size(), ref.size()) << "universe " << universe << " op " << op;
            for (std::uint64_t uid = 0; uid <= universe; ++uid)
                ASSERT_EQ(w.contains(uid), ref.contains(uid)) << "uid " << uid << " op " << op;
        }
    }
}

}  // namespace
