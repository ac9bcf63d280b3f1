#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace geoanon::sim {

Simulator::Simulator() {
    for (Level& level : wheel_) {
        level.head.fill(kNil);
        level.bits.fill(0);
    }
}

// geoanon: hot
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

// geoanon: hot
void Simulator::free_record(std::uint32_t idx) {
    Record& rec = slab_[idx];
    rec.cb.reset();
    rec.next = free_head_;
    free_head_ = idx;
}

// geoanon: hot
EventId Simulator::schedule(SimTime t, Callback cb) {
    const EventId id = next_id_++;
    if (t < now_) t = now_;
    const std::uint32_t idx = allocate_record();
    Record& rec = slab_[idx];
    rec.time_ns = t.ns();
    rec.id = id;
    rec.cb = std::move(cb);
    live_.push_back(true);  // ids are sequential: live_[id - 1]
    wheel_insert(idx);
    ++pending_;
    peak_pending_ = std::max(peak_pending_, pending_);
    return id;
}

void Simulator::cancel(EventId id) {
    if (id == kInvalidEvent || id - 1 >= live_.size() || !live_[id - 1]) return;
    live_[id - 1] = false;
    --pending_;
    // The record itself stays queued as a zombie and is retired (freed
    // without firing) when the pop path reaches it.
}

// geoanon: hot
void Simulator::wheel_insert(std::uint32_t idx, bool bulk) {
    const std::int64_t tick = slab_[idx].time_ns >> kGranularityBits;
    // At or behind the wheel cursor (same tick as the cursor, or earlier:
    // run_until can clamp now_ behind an already-advanced cursor): the event
    // belongs to the active list, ahead of everything still in the wheel.
    if (tick <= wheel_tick_) {
        active_push(idx, bulk);
        return;
    }
    // Absolute-time slot indexing: the level is the highest byte in which
    // the event's tick differs from the cursor's. Everything at that level
    // shares the higher bytes with the cursor, so the slot is strictly ahead
    // of the cursor's position in that level and will be found by the
    // forward scan — no modular wrap to reason about.
    const auto diff = static_cast<std::uint64_t>(tick ^ wheel_tick_);
    const int level = (63 - std::countl_zero(diff)) / kLevelBits;
    if (level >= kLevels) {
        overflow_.push_back(idx);  // geoanon-lint: allow(hot-alloc) -- rare far-future events; amortized by vector growth
        return;
    }
    wheel_place(level, static_cast<int>((tick >> (level * kLevelBits)) & (kSlots - 1)), idx);
}

// geoanon: hot
void Simulator::wheel_place(int level, int slot, std::uint32_t idx) {
    Level& lv = wheel_[static_cast<std::size_t>(level)];
    slab_[idx].next = lv.head[static_cast<std::size_t>(slot)];
    lv.head[static_cast<std::size_t>(slot)] = idx;
    lv.bits[static_cast<std::size_t>(slot >> 6)] |= std::uint64_t{1} << (slot & 63);
    ++wheel_count_;
}

// geoanon: hot
void Simulator::active_push(std::uint32_t idx, bool bulk) {
    const Record& rec = slab_[idx];
    const QEntry e{rec.time_ns, rec.id, idx};
    if (bulk) {
        // Refill path: append now, sort once in active_commit().
        active_.push_back(e);  // geoanon-lint: allow(hot-alloc) -- capacity reached at peak concurrency, then reused
        active_dirty_ = true;
        return;
    }
    // Live schedule into the current tick (rare relative to refills): ordered
    // insert keeps the descending sort so pops stay pop_back().
    active_.insert(std::upper_bound(active_.begin(), active_.end(), e, LaterOnTop{}),
                   e);  // geoanon-lint: allow(hot-alloc) -- capacity reached at peak concurrency, then reused
}

// geoanon: hot
void Simulator::active_commit() {
    if (!active_dirty_) return;
    std::sort(active_.begin(), active_.end(), LaterOnTop{});
    active_dirty_ = false;
}

// geoanon: hot
std::uint32_t Simulator::active_pop() {
    const std::uint32_t idx = active_.back().idx;
    active_.pop_back();
    return idx;
}

namespace {
/// First set bit at position >= from in a 256-bit occupancy map, or -1.
int find_bit(const std::array<std::uint64_t, 4>& bits, int from) {
    int word = from >> 6;
    std::uint64_t w = bits[static_cast<std::size_t>(word)] & (~std::uint64_t{0} << (from & 63));
    while (true) {
        if (w != 0) return word * 64 + std::countr_zero(w);
        if (++word == 4) return -1;
        w = bits[static_cast<std::size_t>(word)];
    }
}
}  // namespace

// Advance the wheel cursor to the next occupied slot and move its events
// into the active list (directly for level 0; by cascading re-insertion for
// higher levels). Returns false when wheel and overflow are both empty.
// All inserts below are bulk (unsorted appends); active_commit() sorts once
// on every path that returns true, restoring the descending invariant.
// geoanon: hot
bool Simulator::wheel_refill() {
    while (true) {
        // A cascade (or overflow redistribution) may have fed events whose
        // tick equals the new cursor straight into active_ — done if so.
        if (!active_.empty()) {
            active_commit();
            return true;
        }
        bool cascaded = false;
        for (int level = 0; level < kLevels; ++level) {
            const int base =
                static_cast<int>((wheel_tick_ >> (level * kLevelBits)) & (kSlots - 1));
            // Level 0's own slot is always drained into active_ already
            // (inserts at the cursor tick go straight there), so scanning
            // from `base` inclusive is safe; higher levels scan strictly
            // ahead because the cursor's slot there holds the lower levels.
            const int from = level == 0 ? base : base + 1;
            if (from >= kSlots) continue;
            Level& lv = wheel_[static_cast<std::size_t>(level)];
            const int slot = find_bit(lv.bits, from);
            if (slot < 0) continue;
            std::uint32_t head = lv.head[static_cast<std::size_t>(slot)];
            lv.head[static_cast<std::size_t>(slot)] = kNil;
            lv.bits[static_cast<std::size_t>(slot >> 6)] &=
                ~(std::uint64_t{1} << (slot & 63));
            if (level == 0) {
                wheel_tick_ = (wheel_tick_ & ~std::int64_t{kSlots - 1}) | slot;
            } else {
                // Jump the cursor to the start of this higher-level slot
                // (lower digits zeroed) and cascade its list: each event
                // re-inserts at a lower level, or into active_ if it sits
                // exactly at the new cursor tick.
                const int shift = (level + 1) * kLevelBits;
                wheel_tick_ = ((wheel_tick_ >> shift) << shift) |
                              (static_cast<std::int64_t>(slot) << (level * kLevelBits));
            }
            while (head != kNil) {
                const std::uint32_t next = slab_[head].next;
                // The list hops across the slab; overlap the next record's
                // (likely cold) line with this one's re-insert.
                if (next != kNil) __builtin_prefetch(&slab_[next]);
                --wheel_count_;
                wheel_insert(head, /*bulk=*/true);
                head = next;
            }
            if (level == 0) {
                active_commit();
                return true;
            }
            cascaded = true;
            break;  // restart the scan at level 0 from the advanced cursor
        }
        if (cascaded) continue;
        // Wheel fully drained: redistribute the overflow bucket (if any)
        // with the cursor jumped to its earliest event, which then lands at
        // level 0 or directly in active_ — guaranteed progress.
        if (overflow_.empty()) return false;
        std::size_t min_at = 0;
        for (std::size_t i = 1; i < overflow_.size(); ++i) {
            if (earlier(overflow_[i], overflow_[min_at])) min_at = i;
        }
        wheel_tick_ = slab_[overflow_[min_at]].time_ns >> kGranularityBits;
        // Compact in place: events still beyond the horizon keep their slot,
        // now-representable ones move into the wheel (or active_).
        std::size_t keep = 0;
        for (const std::uint32_t idx : overflow_) {
            const std::int64_t tick = slab_[idx].time_ns >> kGranularityBits;
            const auto diff = static_cast<std::uint64_t>(tick ^ wheel_tick_);
            if (diff != 0 && (63 - std::countl_zero(diff)) / kLevelBits >= kLevels) {
                overflow_[keep++] = idx;
            } else {
                wheel_insert(idx, /*bulk=*/true);
            }
        }
        overflow_.resize(keep);
    }
}

// geoanon: hot
bool Simulator::next_event(SimTime end, SimTime& t, Callback& cb) {
    while (true) {
        if (active_.empty() && !wheel_refill()) return false;
        if (active_.back().time_ns > end.ns()) return false;
        const std::uint32_t idx = active_pop();
        // Start pulling the next event's record in while this one runs; the
        // slab is large enough at 10k+ nodes that the dependent load would
        // otherwise miss.
        if (!active_.empty()) __builtin_prefetch(&slab_[active_.back().idx]);
        Record& rec = slab_[idx];
        if (!live_[rec.id - 1]) {
            free_record(idx);  // cancelled: retire the zombie and keep looking
            continue;
        }
        live_[rec.id - 1] = false;
        t = SimTime::nanos(rec.time_ns);
        // Move the callback out and free the record BEFORE invoking: the
        // callback may schedule new events, growing the slab.
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
