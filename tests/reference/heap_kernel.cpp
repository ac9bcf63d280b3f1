// Reference event kernel, link-time form: defines sim::Simulator's members
// with the binary heap of reference::HeapSimulator instead of the timer
// wheel. A test executable that compiles this file links it in place of
// src/sim/simulator.cpp (the static archive member is never pulled, since
// every symbol it would provide is already defined here; if one were
// missing the link would fail on duplicates), so the whole product — every
// layer's at()/after()/cancel() — runs on the heap with no branch or hook in
// the product. test_kernel_equivalence uses it to compare full-scenario
// output against the same scenario on the wheel.
//
// The class layout is sim::Simulator's own: the algorithm is HeapSimulator's
// (slab records with freelist reuse, push_heap/pop_heap over record indices
// in (time, id) order, lazy cancel through the dense live bitmap), with the
// wheel's `overflow_` index vector serving as the heap. The wheel members
// are left unused.

#include <algorithm>
#include <cstdint>
#include <utility>

#include "sim/simulator.hpp"

namespace geoanon::reference {
/// Schedules made through the heap kernel in this process; lets a test
/// confirm the substitution really took effect.
std::uint64_t heap_kernel_schedules = 0;
}  // namespace geoanon::reference

namespace geoanon::sim {

Simulator::Simulator() = default;

std::uint32_t Simulator::allocate_record() {
    const std::uint32_t idx = free_head_;
    if (idx == kNil) return grow_slab();
    free_head_ = slab_[idx].next;
    return idx;
}

std::uint32_t Simulator::grow_slab() {
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Simulator::free_record(std::uint32_t idx) {
    Record& rec = slab_[idx];
    rec.cb.reset();
    rec.next = free_head_;
    free_head_ = idx;
}

EventId Simulator::schedule(SimTime t, Callback cb) {
    ++reference::heap_kernel_schedules;
    const EventId id = next_id_++;
    if (t < now_) t = now_;
    const std::uint32_t idx = allocate_record();
    Record& rec = slab_[idx];
    rec.time_ns = t.ns();
    rec.id = id;
    rec.cb = std::move(cb);
    live_.push_back(true);
    overflow_.push_back(idx);
    // Heap order: the earliest (time, id) on top.
    std::push_heap(overflow_.begin(), overflow_.end(),
                   [this](std::uint32_t a, std::uint32_t b) { return earlier(b, a); });
    ++pending_;
    peak_pending_ = std::max(peak_pending_, pending_);
    return id;
}

void Simulator::cancel(EventId id) {
    if (id == kInvalidEvent || id - 1 >= live_.size() || !live_[id - 1]) return;
    live_[id - 1] = false;
    --pending_;
}

bool Simulator::next_event(SimTime end, SimTime& t, Callback& cb) {
    while (true) {
        if (overflow_.empty()) return false;
        if (slab_[overflow_.front()].time_ns > end.ns()) return false;
        std::pop_heap(overflow_.begin(), overflow_.end(),
                      [this](std::uint32_t a, std::uint32_t b) { return earlier(b, a); });
        const std::uint32_t idx = overflow_.back();
        overflow_.pop_back();
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

void Simulator::run_until(SimTime end) {
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

void Simulator::run() { run_until(SimTime::max()); }

}  // namespace geoanon::sim
