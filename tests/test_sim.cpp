#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "reference/heap_simulator.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace geoanon::sim;
using geoanon::reference::HeapSimulator;
using geoanon::util::Rng;
using geoanon::util::SimTime;
using namespace geoanon::util::literals;

/// Every kernel-behavior test runs against both event kernels: the timer
/// wheel (sim::Simulator, production) and the binary heap
/// (reference::HeapSimulator, the pre-wheel kernel kept in tests/reference/).
/// They must be observationally identical. Each body is a generic lambda, so
/// it is compiled once per kernel class.
enum class Kernel { kTimerWheel, kBinaryHeap };

template <typename Body>
void on_kernel(Kernel kernel, Body&& body) {
    if (kernel == Kernel::kTimerWheel) {
        Simulator sim;
        body(sim);
    } else {
        HeapSimulator sim;
        body(sim);
    }
}

class SimulatorKernels : public ::testing::TestWithParam<Kernel> {};

INSTANTIATE_TEST_SUITE_P(AllKernels, SimulatorKernels,
                         ::testing::Values(Kernel::kTimerWheel, Kernel::kBinaryHeap),
                         [](const auto& info) {
                             return info.param == Kernel::kTimerWheel ? "TimerWheel"
                                                                      : "BinaryHeap";
                         });

TEST_P(SimulatorKernels, RunsEventsInTimeOrder) {
    on_kernel(GetParam(), [](auto& sim) {
        std::vector<int> order;
        sim.at(3_s, [&] { order.push_back(3); });
        sim.at(1_s, [&] { order.push_back(1); });
        sim.at(2_s, [&] { order.push_back(2); });
        sim.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    });
}

TEST_P(SimulatorKernels, FifoTieBreakAtSameTime) {
    on_kernel(GetParam(), [](auto& sim) {
        std::vector<int> order;
        for (int i = 0; i < 10; ++i) sim.at(1_s, [&order, i] { order.push_back(i); });
        sim.run();
        for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    });
}

TEST_P(SimulatorKernels, ClockAdvancesToEventTime) {
    on_kernel(GetParam(), [](auto& sim) {
        SimTime seen{};
        sim.at(5_s, [&] { seen = sim.now(); });
        sim.run();
        EXPECT_EQ(seen, 5_s);
    });
}

TEST_P(SimulatorKernels, AfterIsRelative) {
    on_kernel(GetParam(), [](auto& sim) {
        SimTime seen{};
        sim.at(2_s, [&] { sim.after(3_s, [&] { seen = sim.now(); }); });
        sim.run();
        EXPECT_EQ(seen, 5_s);
    });
}

TEST_P(SimulatorKernels, RunUntilStopsAtHorizonAndAdvancesClock) {
    on_kernel(GetParam(), [](auto& sim) {
        int fired = 0;
        sim.at(1_s, [&] { ++fired; });
        sim.at(10_s, [&] { ++fired; });
        sim.run_until(5_s);
        EXPECT_EQ(fired, 1);
        EXPECT_EQ(sim.now(), 5_s);
        sim.run_until(20_s);
        EXPECT_EQ(fired, 2);
    });
}

TEST_P(SimulatorKernels, CancelPreventsExecution) {
    on_kernel(GetParam(), [](auto& sim) {
        bool ran = false;
        const EventId id = sim.at(1_s, [&] { ran = true; });
        sim.cancel(id);
        sim.run();
        EXPECT_FALSE(ran);
    });
}

TEST_P(SimulatorKernels, CancelIsIdempotentAndSafeAfterFire) {
    on_kernel(GetParam(), [](auto& sim) {
        int runs = 0;
        const EventId id = sim.at(1_s, [&] { ++runs; });
        sim.run();
        sim.cancel(id);  // already fired: harmless
        sim.cancel(kInvalidEvent);
        sim.at(2_s, [&] { ++runs; });
        sim.run();
        EXPECT_EQ(runs, 2);
    });
}

TEST_P(SimulatorKernels, PendingEventsSurvivesCancelOfFiredId) {
    on_kernel(GetParam(), [](auto& sim) {
        // Regression: cancelling an id that has already fired used to leave it in
        // the cancelled set forever, so pending_events() (heap minus cancelled)
        // underflowed as soon as the queue refilled.
        const EventId id = sim.at(1_s, [] {});
        EXPECT_EQ(sim.pending_events(), 1u);
        sim.run();
        EXPECT_EQ(sim.pending_events(), 0u);
        sim.cancel(id);  // fired long ago: must not count
        EXPECT_EQ(sim.pending_events(), 0u);
        sim.at(2_s, [] {});
        EXPECT_EQ(sim.pending_events(), 1u);
        sim.run();
        EXPECT_EQ(sim.pending_events(), 0u);
    });
}

TEST_P(SimulatorKernels, DoubleCancelCountsOnce) {
    on_kernel(GetParam(), [](auto& sim) {
        const EventId id = sim.at(1_s, [] {});
        sim.at(2_s, [] {});
        sim.cancel(id);
        sim.cancel(id);  // idempotent: the event is only discounted once
        EXPECT_EQ(sim.pending_events(), 1u);
        sim.run();
        EXPECT_EQ(sim.events_processed(), 1u);
        EXPECT_EQ(sim.pending_events(), 0u);
    });
}

TEST_P(SimulatorKernels, CancelledEventLeavesAccountingCleanAfterSkip) {
    on_kernel(GetParam(), [](auto& sim) {
        const EventId id = sim.at(1_s, [] {});
        sim.cancel(id);
        sim.run();  // the cancelled event is skipped and fully retired
        sim.cancel(id);  // cancelling the skipped id again: no-op
        sim.at(2_s, [] {});
        EXPECT_EQ(sim.pending_events(), 1u);
    });
}

TEST_P(SimulatorKernels, PeakPendingTracksHighWaterMark) {
    on_kernel(GetParam(), [](auto& sim) {
        EXPECT_EQ(sim.peak_pending(), 0u);
        for (int i = 1; i <= 5; ++i) sim.at(SimTime::seconds(i), [] {});
        EXPECT_EQ(sim.peak_pending(), 5u);
        sim.run();
        EXPECT_EQ(sim.pending_events(), 0u);
        EXPECT_EQ(sim.peak_pending(), 5u);  // high-water mark is sticky
    });
}

TEST_P(SimulatorKernels, PastEventsClampToNow) {
    on_kernel(GetParam(), [](auto& sim) {
        SimTime when{};
        sim.at(5_s, [&] { sim.at(1_s, [&] { when = sim.now(); }); });
        sim.run();
        EXPECT_EQ(when, 5_s);  // the "past" event ran at the current time
    });
}

TEST_P(SimulatorKernels, StopExitsRunLoop) {
    on_kernel(GetParam(), [](auto& sim) {
        int fired = 0;
        sim.at(1_s, [&] {
            ++fired;
            sim.stop();
        });
        sim.at(2_s, [&] { ++fired; });
        sim.run();
        EXPECT_EQ(fired, 1);
        sim.run();  // resumes with remaining events
        EXPECT_EQ(fired, 2);
    });
}

TEST_P(SimulatorKernels, EventsProcessedCount) {
    on_kernel(GetParam(), [](auto& sim) {
        for (int i = 0; i < 7; ++i) sim.at(SimTime::millis(i), [] {});
        sim.run();
        EXPECT_EQ(sim.events_processed(), 7u);
    });
}

TEST_P(SimulatorKernels, CallbackCanScheduleAtCurrentTime) {
    on_kernel(GetParam(), [](auto& sim) {
        std::vector<int> order;
        sim.at(1_s, [&] {
            order.push_back(1);
            sim.after(SimTime::zero(), [&] { order.push_back(2); });
        });
        sim.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2}));
    });
}

TEST_P(SimulatorKernels, MoveOnlyCallbackRunsExactlyOnce) {
    on_kernel(GetParam(), [](auto& sim) {
        // Regression for the pre-arena kernel, which moved the callback out of a
        // const priority_queue top via const_cast — easy to accidentally invoke a
        // moved-from or doubly-moved closure. A move-only capture makes any
        // double-invoke or copy a compile- or run-time error.
        int runs = 0;
        bool token_intact = false;
        auto token = std::make_unique<int>(7);
        sim.at(1_s, [t = std::move(token), &runs, &token_intact] {
            ++runs;
            // A doubly-moved or replayed closure would hold a null unique_ptr.
            token_intact = t != nullptr && *t == 7;
        });
        sim.run();
        EXPECT_EQ(runs, 1);
        EXPECT_TRUE(token_intact);
        sim.run();  // queue is empty; the event must not replay
        EXPECT_EQ(runs, 1);
    });
}

TEST_P(SimulatorKernels, AfterSaturatesAtSimTimeMax) {
    on_kernel(GetParam(), [](auto& sim) {
        // after(huge) from a nonzero now must clamp to SimTime::max(), not
        // overflow. The sentinel lands in the wheel's overflow bucket and still
        // fires, exactly once, when the clock is run all the way out.
        int fired_at_max = 0;
        SimTime seen{};
        sim.at(5_s, [&] {
            sim.after(SimTime::max(), [&] {
                ++fired_at_max;
                seen = sim.now();
            });
        });
        sim.run_until(10_s);
        EXPECT_EQ(fired_at_max, 0);  // horizon short of the sentinel
        EXPECT_EQ(sim.pending_events(), 1u);
        sim.run();
        EXPECT_EQ(fired_at_max, 1);
        EXPECT_EQ(seen, SimTime::max());
    });
}

TEST_P(SimulatorKernels, FarFutureEventsBeyondWheelHorizonStayOrdered) {
    on_kernel(GetParam(), [](auto& sim) {
        // Events farther than the wheel's 2^57 ns span (~4 years) from the
        // cursor go through the overflow bucket; they must still fire in time
        // order, interleaved correctly with near events.
        const double year_s = 365.0 * 24 * 3600;
        std::vector<int> order;
        sim.at(SimTime::seconds(10 * year_s), [&] { order.push_back(3); });
        sim.at(SimTime::seconds(6 * year_s), [&] { order.push_back(2); });
        sim.at(1_s, [&] { order.push_back(1); });
        sim.at(SimTime::seconds(20 * year_s), [&] { order.push_back(4); });
        sim.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    });
}

/// Deterministic schedule/cancel storm replayed on both kernels: the exact
/// firing sequences must match event for event. Flat (no nested
/// scheduling) and short-range (delays up to 5 ms); the randomized scripts
/// below cover the rest.
template <typename Sim>
std::vector<std::pair<std::int64_t, int>> storm() {
    Sim sim;
    Rng rng(1234);
    std::vector<std::pair<std::int64_t, int>> fired;
    std::vector<EventId> open;
    for (int i = 0; i < 2000; ++i) {
        const auto delay = SimTime::nanos(rng.uniform_int(0, 5'000'000));
        open.push_back(sim.at(delay, [&fired, &sim, i] {
            fired.emplace_back(sim.now().ns(), i);
        }));
        // Cancel a pseudo-random earlier event every few schedules.
        if (i % 3 == 0 && !open.empty()) {
            const auto victim = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1));
            sim.cancel(open[victim]);
        }
    }
    sim.run();
    return fired;
}

TEST(SimulatorKernelEquivalence, ScheduleCancelStormMatchesAcrossKernels) {
    const auto wheel = storm<Simulator>();
    const auto heap = storm<HeapSimulator>();
    EXPECT_EQ(wheel, heap);
    EXPECT_FALSE(wheel.empty());
}

// ---------------------------------------------------------------------------
// Randomized kernel differential: one seeded script of schedules, cancels,
// horizons and stops driven through both kernels at the public API. Every
// firing (time, id, pending count) and the counters after every run call
// must match. The script reaches every wheel level, the overflow bucket and
// the SimTime::max() sentinel, and callbacks schedule and cancel (including
// at now()), so the wheel's cascade, refill and redistribution paths all
// run against the heap's plain (time, id) order.

struct Firing {
    std::int64_t now_ns;
    EventId id;
    std::size_t pending;
    bool operator==(const Firing&) const = default;
};

struct Checkpoint {
    std::int64_t now_ns;
    std::uint64_t processed;
    std::size_t pending;
    std::size_t peak;
    bool operator==(const Checkpoint&) const = default;
};

template <typename Sim>
class KernelScript {
  public:
    explicit KernelScript(std::uint64_t seed) : rng_(seed) {}

    void run() {
        for (int i = 0; i < 200; ++i) schedule_one();
        for (int round = 0; round < 80; ++round) {
            switch (rng_.uniform_int(0, 5)) {
                case 0:  // horizon behind the clock: nothing may fire
                    sim_.run_until(SimTime::nanos(std::max<std::int64_t>(
                        0, sim_.now().ns() - rng_.uniform_int(1, 1'000'000))));
                    break;
                case 1:  // horizon exactly at the clock: only same-time events
                    sim_.run_until(sim_.now());
                    break;
                default:  // horizon ahead, often short of the next event
                    sim_.run_until(saturating_after(random_delay()));
                    break;
            }
            checkpoint();
            const auto extra = rng_.uniform_int(0, 4);
            for (std::int64_t i = 0; i < extra; ++i) schedule_one();
            if (rng_.bernoulli(0.5)) random_cancel();
        }
        // Drain everything, including the SimTime::max() sentinels; a
        // callback's stop() ends a run() early, so resume until empty. A
        // run() that fires nothing with events pending is a stalled kernel:
        // stop, and let the comparison report it.
        while (sim_.pending_events() > 0) {
            const std::uint64_t before = sim_.events_processed();
            sim_.run();
            checkpoint();
            if (sim_.events_processed() == before) break;
        }
        sim_.run();  // idempotent on an empty queue
        checkpoint();
    }

    std::vector<Firing> firings;
    std::vector<Checkpoint> checkpoints;

  private:
    /// Delay classes: zero, inside the current 2^9 ns tick, one per wheel
    /// level (level l spans [2^(9+8l), 2^(17+8l)) ns), past the 2^57 ns
    /// wheel horizon into the overflow bucket, and the SimTime::max()
    /// saturation sentinel.
    SimTime random_delay() {
        const auto cls = rng_.uniform_int(0, 9);
        if (cls == 0) return SimTime::zero();
        if (cls == 1) return SimTime::nanos(rng_.uniform_int(0, 511));
        if (cls <= 7) {
            const int level = static_cast<int>(cls - 2);
            const std::int64_t lo = std::int64_t{1} << (9 + 8 * level);
            return SimTime::nanos(rng_.uniform_int(lo, (lo << 8) - 1));
        }
        if (cls == 8)
            return SimTime::nanos(rng_.uniform_int(std::int64_t{1} << 57, std::int64_t{1} << 62));
        return SimTime::max();
    }

    SimTime saturating_after(SimTime d) const {
        return SimTime::max() - sim_.now() < d ? SimTime::max() : sim_.now() + d;
    }

    void schedule_one() {
        if (budget_ == 0) return;
        --budget_;
        const EventId expect = ++scheduled_;
        auto cb = [this, expect] { fire(expect); };
        EventId id = kInvalidEvent;
        switch (rng_.uniform_int(0, 3)) {
            case 0:
                id = sim_.after(random_delay(), cb);
                break;
            case 1:  // absolute time in the past: clamps to now()
                id = sim_.at(SimTime::nanos(std::max<std::int64_t>(
                                 0, sim_.now().ns() - rng_.uniform_int(1, 1'000'000'000))),
                             cb);
                break;
            default:
                id = sim_.at(saturating_after(random_delay()), cb);
                break;
        }
        // Both kernels issue ids sequentially from 1.
        ASSERT_EQ(id, expect);
    }

    /// Cancel a pending, fired or already-cancelled id (any issued id), or
    /// an invalid one (0, or not issued yet).
    void random_cancel() {
        if (rng_.bernoulli(0.1) || scheduled_ == 0) {
            sim_.cancel(rng_.bernoulli(0.5)
                            ? kInvalidEvent
                            : scheduled_ + 1 + static_cast<EventId>(rng_.uniform_int(0, 100)));
            return;
        }
        sim_.cancel(static_cast<EventId>(
            rng_.uniform_int(1, static_cast<std::int64_t>(scheduled_))));
    }

    void fire(EventId id) {
        firings.push_back({sim_.now().ns(), id, sim_.pending_events()});
        const auto children = rng_.uniform_int(0, 2);
        for (std::int64_t i = 0; i < children; ++i) schedule_one();
        if (rng_.bernoulli(0.3)) random_cancel();
        if (rng_.bernoulli(0.02)) sim_.stop();
    }

    void checkpoint() {
        checkpoints.push_back({sim_.now().ns(), sim_.events_processed(),
                               sim_.pending_events(), sim_.peak_pending()});
    }

    Sim sim_;
    Rng rng_;
    EventId scheduled_{0};
    int budget_{4000};
};

/// Index of the first differing element, or the shorter size if one is a
/// prefix of the other; npos when equal.
template <typename T>
std::size_t first_divergence(const std::vector<T>& a, const std::vector<T>& b) {
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        if (!(a[i] == b[i])) return i;
    return a.size() == b.size() ? std::string::npos : n;
}

TEST(SimulatorKernelEquivalence, RandomizedScriptsMatchAcrossKernels) {
    const SimTime far = SimTime::nanos(std::int64_t{1} << 57);
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        KernelScript<Simulator> wheel(seed);
        KernelScript<HeapSimulator> heap(seed);
        wheel.run();
        heap.run();

        const auto describe = [](const std::vector<Firing>& v, std::size_t i) {
            if (i >= v.size()) return std::string("(none)");
            return "t=" + std::to_string(v[i].now_ns) + " id=" + std::to_string(v[i].id);
        };
        const std::size_t f = first_divergence(wheel.firings, heap.firings);
        ASSERT_EQ(f, std::string::npos) << "firing #" << f << ": wheel "
                                        << describe(wheel.firings, f) << ", heap "
                                        << describe(heap.firings, f);
        EXPECT_EQ(first_divergence(wheel.checkpoints, heap.checkpoints), std::string::npos);

        // The script must actually reach what it claims to cover.
        std::size_t ties = 0, beyond_horizon = 0, at_max = 0;
        for (std::size_t i = 0; i < wheel.firings.size(); ++i) {
            const Firing& e = wheel.firings[i];
            if (i > 0 && wheel.firings[i - 1].now_ns == e.now_ns) ++ties;
            if (e.now_ns >= far.ns()) ++beyond_horizon;
            if (e.now_ns == SimTime::max().ns()) ++at_max;
        }
        EXPECT_GT(wheel.firings.size(), 1000u);
        EXPECT_GT(ties, 0u);
        EXPECT_GT(beyond_horizon, 0u);
        EXPECT_GT(at_max, 0u);
        EXPECT_EQ(wheel.checkpoints.back().pending, 0u);
    }
}

TEST(PeriodicTimer, TicksAtPeriod) {
    Simulator sim;
    PeriodicTimer timer;
    std::vector<SimTime> ticks;
    timer.start(sim, 1_s, 500_ms, [&] { ticks.push_back(sim.now()); });
    sim.run_until(3600_ms);
    ASSERT_EQ(ticks.size(), 4u);  // 0.5, 1.5, 2.5, 3.5
    EXPECT_EQ(ticks[0], 500_ms);
    EXPECT_EQ(ticks[3], 3500_ms);
}

TEST(PeriodicTimer, StopHaltsTicks) {
    Simulator sim;
    PeriodicTimer timer;
    int ticks = 0;
    timer.start(sim, 1_s, 1_s, [&] {
        if (++ticks == 2) timer.stop();
    });
    sim.run_until(10_s);
    EXPECT_EQ(ticks, 2);
    EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, DestructorCancels) {
    Simulator sim;
    int ticks = 0;
    {
        PeriodicTimer timer;
        timer.start(sim, 1_s, 1_s, [&] { ++ticks; });
    }
    sim.run_until(5_s);
    EXPECT_EQ(ticks, 0);
}

TEST(PeriodicTimer, RestartReplacesSchedule) {
    Simulator sim;
    PeriodicTimer timer;
    int a = 0, b = 0;
    timer.start(sim, 1_s, 1_s, [&] { ++a; });
    timer.start(sim, 2_s, 2_s, [&] { ++b; });  // restart with new cadence
    sim.run_until(6500_ms);
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 3);  // 2, 4, 6
}

TEST(PeriodicTimer, StopThenRestartTicksAgain) {
    Simulator sim;
    PeriodicTimer timer;
    int first = 0, second = 0;
    timer.start(sim, 1_s, 1_s, [&] { ++first; });
    sim.run_until(2500_ms);
    timer.stop();
    EXPECT_FALSE(timer.running());
    sim.run_until(5_s);
    EXPECT_EQ(first, 2);  // no ticks while stopped
    timer.start(sim, 1_s, 1_s, [&] { ++second; });
    EXPECT_TRUE(timer.running());
    sim.run_until(8500_ms);
    EXPECT_EQ(first, 2);
    EXPECT_EQ(second, 3);  // 6, 7, 8
}

}  // namespace
