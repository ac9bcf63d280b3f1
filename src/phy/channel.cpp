#include "phy/channel.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "obs/trace.hpp"

namespace geoanon::phy {

namespace {
std::uint64_t frame_uid(const Frame& f) { return f.payload ? f.payload->uid : 0; }
}  // namespace

Radio::Radio(sim::Simulator& sim, Channel& channel, mobility::MobilityModel& model)
    : sim_(sim), channel_(channel) {
    index_ = channel_.register_radio(this, &model);
}

const PhyParams& Radio::phy_params() const { return channel_.params(); }

Vec2 Radio::position() const { return channel_.position(index_, sim_.now()); }

Vec2 Radio::velocity() const {
    Channel::Row& row = channel_.rows_[index_];
    const SimTime now = sim_.now();
    return mobility::sample_velocity(mobility::current_leg(row.leg, *row.model, now), now);
}

void Radio::set_enabled(bool enabled) { channel_.rows_[index_].up = enabled; }

bool Radio::enabled() const { return channel_.rows_[index_].up; }

void Radio::set_mac_hooks(std::function<void()> on_busy, std::function<void()> on_idle,
                          std::function<void(const Frame&)> on_rx) {
    on_busy_ = std::move(on_busy);
    on_idle_ = std::move(on_idle);
    on_rx_ = std::move(on_rx);
    refresh_quiet();
}

void Radio::start_tx(const Frame& frame) {
    assert(!transmitting_ && "half-duplex radio already transmitting");
    ++stats_.frames_sent;
    channel_.start_tx(this, frame);
}

void Radio::begin_own_tx() {
    transmitting_ = true;
    // Half-duplex: transmitting corrupts everything we were receiving.
    for (Reception& rx : receptions_) {
        if (!rx.corrupted) {
            rx.corrupted = true;
            channel_.note_collision();
            ++stats_.frames_corrupted;
        }
    }
    if (++energy_count() == 1 && wants_edges_ && on_busy_) on_busy_();
}

void Radio::end_own_tx() {
    transmitting_ = false;
    if (--energy_count() == 0 && wants_edges_ && on_idle_) on_idle_();
}

void Radio::energy_start(std::uint64_t tx_id, bool decodable, const Frame& frame) {
    // New energy corrupts every ongoing reception here.
    for (Reception& rx : receptions_) {
        if (!rx.corrupted) {
            rx.corrupted = true;
            channel_.note_collision();
            ++stats_.frames_corrupted;
        }
    }
    std::int32_t& energy = energy_count();
    const bool clear = energy == 0 && !transmitting_;
    ++energy;
    if (decodable) {
        if (!clear) {
            channel_.note_collision();
            ++stats_.frames_corrupted;
        }
        receptions_.push_back(Reception{tx_id, &frame, !clear});
        refresh_quiet();
    }
    if (energy == 1 && wants_edges_ && on_busy_) on_busy_();
}

void Radio::energy_end(std::uint64_t tx_id) {
    --energy_count();
    auto it = std::find_if(receptions_.begin(), receptions_.end(),
                           [tx_id](const Reception& rx) { return rx.tx_id == tx_id; });
    if (it != receptions_.end()) {
        const bool ok = !it->corrupted && !transmitting_;
        const Frame& frame = *it->frame;
        receptions_.erase(it);
        // Before on_rx: a transmission it starts reads this radio's flag.
        refresh_quiet();
        if (ok) {
            if (!enabled()) {
                ++stats_.frames_missed_down;
                GEOANON_TRACE(sim_, .type = obs::EventType::kPhyDrop,
                              .cause = obs::DropCause::kNodeDown, .node = trace_node_,
                              .uid = frame_uid(frame), .bytes = frame.wire_bytes,
                              .detail = static_cast<std::uint64_t>(frame.type));
            } else {
                ++stats_.frames_delivered;
                channel_.note_delivery();
                GEOANON_TRACE(sim_, .type = obs::EventType::kPhyRx, .node = trace_node_,
                              .uid = frame_uid(frame), .bytes = frame.wire_bytes,
                              .detail = static_cast<std::uint64_t>(frame.type));
                if (on_rx_) on_rx_(frame);
            }
        } else {
            GEOANON_TRACE(sim_, .type = obs::EventType::kPhyDrop,
                          .cause = obs::DropCause::kCollision, .node = trace_node_,
                          .uid = frame_uid(frame), .bytes = frame.wire_bytes,
                          .detail = static_cast<std::uint64_t>(frame.type));
        }
    }
    if (energy_count() == 0 && wants_edges_ && on_idle_) on_idle_();
}

Channel::Channel(sim::Simulator& sim, PhyParams params) : sim_(sim), params_(params) {
    const double slack_m =
        params_.grid_max_speed_mps * params_.grid_rebucket_interval.to_seconds();
    cell_m_ = std::max(1.0, params_.cs_range_m + slack_m);
}

Channel::Cell Channel::cell_of(const Vec2& p) const {
    return Cell{static_cast<std::int32_t>(std::floor(p.x / cell_m_)),
                static_cast<std::int32_t>(std::floor(p.y / cell_m_))};
}

std::uint64_t Channel::cell_key(Cell c) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.x)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.y));
}

std::uint32_t Channel::register_radio(Radio* radio, mobility::MobilityModel* model) {
    rows_.push_back(Row{.radio = radio, .model = model});
    // The next transmission sweeps and buckets the new row. Scenarios
    // register every radio before the first transmission, so this adds no
    // sweeps to a run.
    swept_once_ = false;
    return static_cast<std::uint32_t>(rows_.size() - 1);
}

// geoanon: hot
Vec2 Channel::position(std::uint32_t idx, SimTime t) {
    Row& row = rows_[idx];
    return mobility::sample_position(mobility::current_leg(row.leg, *row.model, t), t);
}

void Channel::rebucket_if_stale() {
    const SimTime now = sim_.now();
    if (swept_once_ && now - last_sweep_ < params_.grid_rebucket_interval) return;
    swept_once_ = true;
    last_sweep_ = now;
    // One linear sweep over the rows: leg, cell and bucketed flag sit in
    // the same row.
    for (std::uint32_t idx = 0; idx < rows_.size(); ++idx) {
        Row& row = rows_[idx];
        const Cell c = cell_of(position(idx, now));
        // Buckets stay sorted, so a transmission merges them instead of
        // sorting its candidates.
        if (row.bucketed) {
            if (c == row.cell) continue;
            auto& old_bucket = buckets_[cell_key(row.cell)];
            old_bucket.erase(std::lower_bound(old_bucket.begin(), old_bucket.end(), idx));
        }
        row.cell = c;
        row.bucketed = true;
        auto& bucket = buckets_[cell_key(c)];
        bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), idx), idx);
    }
}

// geoanon: hot
void Channel::deliver_from(TxSlot& tx, const Vec2& sender_pos, std::uint64_t tx_id, InRange rx,
                           SimTime now) {
    const Frame& frame = tx.frame;
    Row& row = rows_[rx.idx];
    bool decodable = rx.d <= params_.range_m;
    if (decodable && drop_ && drop_(frame, sender_pos, position(rx.idx, now))) {
        decodable = false;
        ++stats_.impaired;
        GEOANON_TRACE(sim_, .type = obs::EventType::kPhyDrop,
                      .cause = obs::DropCause::kImpaired, .node = row.radio->trace_node_,
                      .uid = frame_uid(frame), .bytes = frame.wire_bytes,
                      .detail = static_cast<std::uint64_t>(frame.type));
    }
    tx.affected.push_back(rx.idx);
    // A quiet radio has no reception to corrupt and no edge hook to run, so
    // a frame it cannot decode changes only its energy count.
    if (!decodable && row.quiet) {
        ++row.energy;
    } else {
        row.radio->energy_start(tx_id, decodable, frame);
    }
}

// geoanon: hot
std::uint32_t Channel::acquire_tx_slot() {
    if (tx_free_ != kNilSlot) {
        const std::uint32_t slot = tx_free_;
        tx_free_ = tx_slots_[slot].next_free;
        return slot;
    }
    return grow_tx_slots();
}

std::uint32_t Channel::grow_tx_slots() {
    // Cold path: only as many slots exist as the peak number of concurrent
    // transmissions ever reached; after warm-up every tx reuses one.
    tx_slots_.emplace_back();
    return static_cast<std::uint32_t>(tx_slots_.size() - 1);
}

// geoanon: hot
void Channel::release_tx_slot(std::uint32_t slot) {
    TxSlot& tx = tx_slots_[slot];
    tx.frame.payload.reset();  // the packet's lifetime is not the slot's
    tx.affected.clear();       // keeps capacity for the next reuse
    tx.next_free = tx_free_;
    tx_free_ = slot;
}

// geoanon: hot
std::span<const Channel::InRange> Channel::gather_in_range(std::uint32_t sender,
                                                           const Vec2& sender_pos, SimTime now) {
    const Cell center = cell_of(sender_pos);
    std::array<const std::vector<std::uint32_t>*, 9> buckets{};
    std::size_t k = 0;
    std::size_t total = 0;
    for (std::int32_t dx = -1; dx <= 1; ++dx) {
        for (std::int32_t dy = -1; dy <= 1; ++dy) {
            const auto it = buckets_.find(cell_key({center.x + dx, center.y + dy}));
            if (it == buckets_.end() || it->second.empty()) continue;
            buckets[k++] = &it->second;
            total += it->second.size();
        }
    }
    // Filter each bucket by the exact distance first, so the merge orders
    // only the radios in range. Filtering keeps each run sorted. The scratch
    // vectors keep their capacity across calls, so after warm-up this
    // allocates nothing.
    runs_.resize(total);
    std::array<std::size_t, 10> run_end{};
    std::size_t n_runs = 0;
    std::size_t n = 0;
    for (std::size_t j = 0; j < k; ++j) {
        const std::size_t start = n;
        for (const std::uint32_t idx : *buckets[j]) {
            if (idx == sender) continue;
            const double d = util::distance(sender_pos, position(idx, now));
            if (d <= params_.cs_range_m) runs_[n++] = InRange{idx, d};
        }
        if (n > start) run_end[++n_runs] = n;
    }
    if (n_runs <= 1) return {runs_.data(), n};
    // Merging each run into the sorted prefix beats one sort of the
    // survivors for few large runs (dense fields) and matches it for many
    // one-radio runs (sparse fields).
    const auto by_index = [](const InRange& a, const InRange& b) { return a.idx < b.idx; };
    merged_.resize(n);
    merge_buf_.resize(n);
    const InRange* const run = runs_.data();  // run j is [run_end[j], run_end[j + 1])
    std::merge(run, run + run_end[1], run + run_end[1], run + run_end[2], merged_.data(), by_index);
    for (std::size_t j = 2; j < n_runs; ++j) {
        std::merge(merged_.data(), merged_.data() + run_end[j], run + run_end[j],
                   run + run_end[j + 1], merge_buf_.data(), by_index);
        merged_.swap(merge_buf_);
    }
    return {merged_.data(), n};
}

// geoanon: hot
void Channel::start_tx(Radio* sender, const Frame& frame) {
    ++stats_.transmissions;
    const std::uint64_t tx_id = next_tx_id_++;
    const SimTime now = sim_.now();
    const Vec2 sender_pos = position(sender->index_, now);
    GEOANON_TRACE(sim_, .type = obs::EventType::kPhyTx, .node = sender->trace_node_,
                  .uid = frame_uid(frame), .bytes = frame.wire_bytes,
                  .detail = static_cast<std::uint64_t>(frame.type));
    for (const auto& tap : taps_) tap(frame, sender_pos);
    for (const auto& tap : audit_taps_) tap(frame, sender_pos, sender->trace_node_);
    const SimTime airtime = params_.airtime(frame.wire_bytes);

    sender->begin_own_tx();

    // Reception membership is decided at transmission start. Candidates
    // are visited in registration order, so MAC callbacks (and the events
    // they schedule) fire in an order that does not depend on the cell
    // size. The slot holds the one copy of the frame every reception
    // refers to, so the end-of-airtime closure captures 28 bytes (inline
    // in sim::Callback) and steady-state transmissions allocate nothing.
    const std::uint32_t slot = acquire_tx_slot();
    TxSlot& tx = tx_slots_[slot];
    tx.frame = frame;
    rebucket_if_stale();
    const std::span<const InRange> in_range = gather_in_range(sender->index_, sender_pos, now);
    tx.affected.reserve(in_range.size());
    for (const InRange& rx : in_range) deliver_from(tx, sender_pos, tx_id, rx, now);

    sim_.after(airtime, [this, sender, tx_id, slot] {
        sender->end_own_tx();
        // energy_end (via on_rx or the MAC's on_idle hook) can start a new
        // transmission, which may grow the pool; the deque keeps this slot,
        // its frame and its reception set where they are. That transmission
        // may also change a later radio's quiet flag, so the flag is read at
        // each radio's turn: quiet then means energy_end would only count
        // down.
        for (const std::uint32_t idx : tx_slots_[slot].affected) {
            Row& row = rows_[idx];
            if (row.quiet) {
                --row.energy;
            } else {
                row.radio->energy_end(tx_id);
            }
        }
        release_tx_slot(slot);
    });
}

}  // namespace geoanon::phy
