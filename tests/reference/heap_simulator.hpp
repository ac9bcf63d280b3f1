#pragma once

// Reference event kernel: the binary-heap queue sim::Simulator ran on before
// the timer wheel, kept outside the product as a differential oracle. It has
// the kernel's public scheduling API and the same contract — events fire in
// exactly (time, id) order, ids are sequential so same-time events run FIFO,
// past times clamp to now(), cancels are lazy and idempotent — so any
// observable difference from sim::Simulator is a wheel bug. test_sim runs
// every kernel test and a randomized differential over both classes;
// bench/scaling_grid times it as the kernel row's baseline.
//
// The algorithm is the pre-wheel one unchanged: slab records with freelist
// reuse, push_heap/pop_heap over record indices, and a dense live bitmap for
// lazy cancellation.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace geoanon::reference {

class HeapSimulator {
  public:
    using Callback = sim::Callback;
    using EventId = sim::EventId;
    using SimTime = util::SimTime;

    SimTime now() const { return now_; }

    template <typename F>
    EventId at(SimTime t, F&& f) {
        return schedule(t, Callback(std::forward<F>(f)));
    }

    /// Saturates at SimTime::max(), like sim::Simulator::after.
    template <typename F>
    EventId after(SimTime d, F&& f) {
        const SimTime t = SimTime::max() - now_ < d ? SimTime::max() : now_ + d;
        return schedule(t, Callback(std::forward<F>(f)));
    }

    void cancel(EventId id) {
        if (id == sim::kInvalidEvent || id - 1 >= live_.size() || !live_[id - 1]) return;
        live_[id - 1] = false;
        --pending_;
    }

    void run_until(SimTime end) {
        stopped_ = false;
        SimTime t;
        Callback cb;
        while (!stopped_ && next_event(end, t, cb)) {
            now_ = t;
            --pending_;
            ++processed_;
            cb();
            cb.reset();
        }
        if (!stopped_ && now_ < end) now_ = end;
    }

    void run() { run_until(SimTime::max()); }
    void stop() { stopped_ = true; }

    std::uint64_t events_processed() const { return processed_; }
    std::size_t pending_events() const { return pending_; }
    std::size_t peak_pending() const { return peak_pending_; }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    struct Record {
        std::int64_t time_ns{0};
        EventId id{0};
        std::uint32_t next{kNil};
        Callback cb;
    };

    bool earlier(std::uint32_t a, std::uint32_t b) const {
        const Record& ra = slab_[a];
        const Record& rb = slab_[b];
        if (ra.time_ns != rb.time_ns) return ra.time_ns < rb.time_ns;
        return ra.id < rb.id;
    }
    /// Heap order: the earliest (time, id) on top.
    auto later() const {
        return [this](std::uint32_t a, std::uint32_t b) { return earlier(b, a); };
    }

    EventId schedule(SimTime t, Callback cb) {
        const EventId id = next_id_++;
        if (t < now_) t = now_;
        std::uint32_t idx = free_head_;
        if (idx == kNil) {
            slab_.emplace_back();
            idx = static_cast<std::uint32_t>(slab_.size() - 1);
        } else {
            free_head_ = slab_[idx].next;
        }
        Record& rec = slab_[idx];
        rec.time_ns = t.ns();
        rec.id = id;
        rec.cb = std::move(cb);
        live_.push_back(true);
        heap_.push_back(idx);
        std::push_heap(heap_.begin(), heap_.end(), later());
        ++pending_;
        peak_pending_ = std::max(peak_pending_, pending_);
        return id;
    }

    void free_record(std::uint32_t idx) {
        Record& rec = slab_[idx];
        rec.cb.reset();
        rec.next = free_head_;
        free_head_ = idx;
    }

    bool next_event(SimTime end, SimTime& t, Callback& cb) {
        while (true) {
            if (heap_.empty()) return false;
            if (slab_[heap_.front()].time_ns > end.ns()) return false;
            std::pop_heap(heap_.begin(), heap_.end(), later());
            const std::uint32_t idx = heap_.back();
            heap_.pop_back();
            Record& rec = slab_[idx];
            if (!live_[rec.id - 1]) {
                free_record(idx);
                continue;
            }
            live_[rec.id - 1] = false;
            t = SimTime::nanos(rec.time_ns);
            // Move out and free before invoking: the callback may schedule.
            cb = std::move(rec.cb);
            free_record(idx);
            return true;
        }
    }

    std::vector<Record> slab_;
    std::uint32_t free_head_{kNil};
    std::vector<std::uint32_t> heap_;
    std::vector<bool> live_;
    SimTime now_{SimTime::zero()};
    EventId next_id_{1};
    std::uint64_t processed_{0};
    std::size_t pending_{0};
    std::size_t peak_pending_{0};
    bool stopped_{false};
};

}  // namespace geoanon::reference
