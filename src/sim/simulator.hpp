#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/callback.hpp"
#include "util/time.hpp"

namespace geoanon::obs {
class TraceRecorder;
}  // namespace geoanon::obs

namespace geoanon::sim {

using util::SimTime;

/// Handle for a scheduled event; usable with Simulator::cancel().
/// Value 0 is never issued and acts as "no event".
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Single-threaded discrete-event simulator.
///
/// Events scheduled for the same timestamp run in FIFO order of scheduling,
/// which (together with the integer SimTime clock and seeded RNGs) makes every
/// run bit-reproducible. Callbacks may freely schedule and cancel further
/// events, including at the current time.
///
/// Internally events live in a slab arena with freelist reuse (steady-state
/// scheduling performs zero heap allocations), ordered by a hierarchical
/// timer wheel: 6 levels of 256 slots over 2^9 ns ticks cover ~4 simulated
/// years; anything farther (e.g. the SimTime::max() saturation sentinel)
/// waits in an overflow bucket that is redistributed when the wheel drains
/// down to it. FIFO among same-time events falls out of the (time, id)
/// ordering: ids are issued sequentially, so the id doubles as the legacy
/// `seq` tie-break counter. tests/reference/heap_simulator.hpp keeps the
/// pre-wheel binary-heap kernel as the reference test_sim compares against;
/// tests/reference/heap_kernel.cpp defines this class's members with the
/// same heap, linked in place of simulator.cpp so a whole scenario can run
/// on it (PeriodicTimer lives in periodic_timer.cpp for that reason).
class Simulator {
  public:
    using Callback = sim::Callback;

    Simulator();

    /// Current simulation time. Monotonically non-decreasing.
    SimTime now() const { return now_; }

    /// Schedule `f` at absolute time `t` (clamped to now if in the past).
    /// Perfect-forwarded so the Callback materializes directly in the
    /// schedule() parameter — no intermediate moves on the hot path.
    template <typename F>
    EventId at(SimTime t, F&& f) {
        return schedule(t, Callback(std::forward<F>(f)));
    }

    /// Schedule `f` after relative delay `d` from now. Saturates at
    /// SimTime::max(): after run() drains the queue the clock sits at the
    /// "infinitely far" sentinel, and now_ + d must not overflow (UB).
    template <typename F>
    EventId after(SimTime d, F&& f) {
        const SimTime t =
            SimTime::max() - now_ < d ? SimTime::max() : now_ + d;
        return schedule(t, Callback(std::forward<F>(f)));
    }

    /// Cancel a pending event. Cancelling an already-fired or invalid id is a
    /// harmless no-op (common when a timer races its own completion) and does
    /// not perturb pending-event accounting.
    void cancel(EventId id);

    /// Run until the queue drains or `end` is reached; the clock is advanced
    /// to `end` even if the queue drains earlier (so periodic measurements
    /// relative to now() behave intuitively).
    void run_until(SimTime end);

    /// Run until the queue drains or stop() is called.
    void run();

    /// Request that the run loop exits after the current callback.
    void stop() { stopped_ = true; }

    /// Observability hook: when non-null, every layer holding this simulator
    /// records typed events through the GEOANON_TRACE macro (src/obs/). Left
    /// null (the default), tracing costs one pointer load + branch per site.
    /// The recorder is owned by the caller and must outlive the run.
    obs::TraceRecorder* trace() const { return trace_; }
    void set_trace(obs::TraceRecorder* recorder) { trace_ = recorder; }

    std::uint64_t events_processed() const { return processed_; }
    /// Events scheduled and neither fired nor cancelled. Maintained as a
    /// single counter: at() increments, firing decrements, and cancel()
    /// decrements exactly once per live event (liveness is the dense live_
    /// bitmap, so double cancels and cancels of fired ids are no-ops).
    std::size_t pending_events() const { return pending_; }
    /// High-water mark of pending_events() over the simulator's lifetime.
    std::size_t peak_pending() const { return peak_pending_; }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;
    /// Wheel geometry: tick = 2^9 ns (~0.5 us), 256 slots per level, 6
    /// levels. Level l slots are 2^(9 + 8l) ns wide; together the levels
    /// span 2^57 ns. Events farther out than that from the wheel's current
    /// position go to the overflow bucket. The granularity was swept
    /// empirically (8..12 bits) on the 10k-timer churn bench: finer ticks
    /// shrink the per-tick active list (cheaper sorts) until refill overhead
    /// dominates; 9 was the plateau.
    static constexpr int kGranularityBits = 9;
    static constexpr int kLevelBits = 8;
    static constexpr int kSlots = 1 << kLevelBits;
    static constexpr int kLevels = 6;

    /// Arena-allocated event record. `next` chains wheel-slot freelists and
    /// bucket lists; list order is irrelevant because (time_ns, id) is a
    /// total order.
    struct Record {
        std::int64_t time_ns{0};
        EventId id{0};
        std::uint32_t next{kNil};
        Callback cb;
    };

    struct Level {
        std::array<std::uint32_t, kSlots> head;
        std::array<std::uint64_t, kSlots / 64> bits;
    };

    /// Active-list entry with the ordering key inlined so sorts and ordered
    /// inserts compare contiguous 24-byte entries instead of dereferencing
    /// scattered slab records.
    struct QEntry {
        std::int64_t time_ns;
        EventId id;
        std::uint32_t idx;
    };
    /// Strict (time, id) "a fires after b": sorting with it puts the latest
    /// event first and the next event to fire at the back.
    struct LaterOnTop {
        bool operator()(const QEntry& a, const QEntry& b) const {
            if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
            return a.id > b.id;
        }
    };

    EventId schedule(SimTime t, Callback cb);
    std::uint32_t allocate_record();
    std::uint32_t grow_slab();
    void free_record(std::uint32_t idx);
    bool earlier(std::uint32_t a, std::uint32_t b) const {
        const Record& ra = slab_[a];
        const Record& rb = slab_[b];
        if (ra.time_ns != rb.time_ns) return ra.time_ns < rb.time_ns;
        return ra.id < rb.id;
    }

    /// `bulk` marks inserts made inside wheel_refill: events landing in
    /// active_ are appended unsorted and sorted once before the refill
    /// returns, instead of paying an ordered insert each.
    void wheel_insert(std::uint32_t idx, bool bulk = false);
    void wheel_place(int level, int slot, std::uint32_t idx);
    bool wheel_refill();
    void active_push(std::uint32_t idx, bool bulk);
    /// Sort bulk-appended entries (no-op when none were).
    void active_commit();
    std::uint32_t active_pop();

    /// Pop the next runnable event with time <= end into (t, cb); retires
    /// cancelled records along the way. Returns false when drained past end.
    bool next_event(SimTime end, SimTime& t, Callback& cb);

    // Arena ---------------------------------------------------------------
    std::vector<Record> slab_;
    std::uint32_t free_head_{kNil};

    // Timer-wheel kernel --------------------------------------------------
    std::array<Level, kLevels> wheel_;
    /// Events at the wheel's current position, sorted descending by
    /// (time, id): the next event to fire is always at the back, so a pop
    /// is pop_back(). Refills append the drained slot unsorted and sort
    /// once (active_dirty_); live schedules into the current tick do an
    /// ordered insert. Both beat a binary heap here because the list is
    /// small (one tick's worth of events) and contiguous.
    std::vector<QEntry> active_;
    bool active_dirty_{false};
    /// Beyond-horizon events (notably SimTime::max() sentinels), unsorted;
    /// redistributed when the wheel drains down to them.
    std::vector<std::uint32_t> overflow_;
    std::int64_t wheel_tick_{0};
    std::size_t wheel_count_{0};

    /// live_[id - 1] is true while event `id` is scheduled and not
    /// cancelled. Ids are issued sequentially, so this is a dense bitmap,
    /// not a hash set; cancel() flips the bit and the pop path lazily
    /// retires the record.
    std::vector<bool> live_;
    SimTime now_{SimTime::zero()};
    EventId next_id_{1};
    std::uint64_t processed_{0};
    std::size_t pending_{0};
    std::size_t peak_pending_{0};
    bool stopped_{false};
    obs::TraceRecorder* trace_{nullptr};
};

/// Repeating timer bound to a Simulator. Calls `tick` every `period` until
/// stopped or destroyed.
class PeriodicTimer {
  public:
    PeriodicTimer() = default;
    PeriodicTimer(const PeriodicTimer&) = delete;
    PeriodicTimer& operator=(const PeriodicTimer&) = delete;
    ~PeriodicTimer() { stop(); }

    /// Start ticking. `first_delay` offsets the initial tick (use a random
    /// phase to desynchronize beacons across nodes).
    void start(Simulator& sim, SimTime period, SimTime first_delay,
               std::function<void()> tick);

    void stop();
    bool running() const { return sim_ != nullptr; }

  private:
    void arm(SimTime delay);

    Simulator* sim_{nullptr};
    SimTime period_{};
    std::function<void()> tick_;
    EventId pending_{kInvalidEvent};
};

}  // namespace geoanon::sim
