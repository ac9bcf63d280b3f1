#include "core/seen_window.hpp"

#include <bit>

namespace geoanon::core {

namespace {
constexpr std::size_t kInitialCapacity = 4;
/// 2^64 / golden ratio: multiplicative hashing spreads any uid pattern
/// (random PRP outputs and counters alike) over the index's top bits.
constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;
}  // namespace

std::size_t SeenWindow::find(std::uint64_t uid) const {
    const std::size_t mask = index_.size() - 1;
    auto pos = static_cast<std::size_t>((uid * kFibonacci) >> index_shift_);
    while (index_[pos] != 0 && ring_[index_[pos] - 1].uid != uid) pos = (pos + 1) & mask;
    return pos;
}

bool SeenWindow::contains(std::uint64_t uid) const {
    return !index_.empty() && index_[find(uid)] != 0;
}

void SeenWindow::mark(std::uint64_t uid, util::SimTime now) {
    if (count_ == ring_.size()) resize(ring_.empty() ? kInitialCapacity : 2 * ring_.size());
    const std::size_t slot = (head_ + count_++) & (ring_.size() - 1);
    ring_[slot] = {now, uid};
    // No index cell points at `slot` yet: it was outside the live range.
    std::uint32_t& cell = index_[find(uid)];
    if (cell == 0) ++live_;
    cell = static_cast<std::uint32_t>(slot + 1);
}

void SeenWindow::expire(util::SimTime now, util::SimTime ttl) {
    while (count_ > 0 && now - ring_[head_].at > ttl) {
        const std::size_t pos = find(ring_[head_].uid);
        if (index_[pos] == head_ + 1) {  // else a later mark superseded this one
            erase_index(pos);
            --live_;
        }
        head_ = (head_ + 1) & (ring_.size() - 1);
        --count_;
    }
    // Give memory back once a quarter full, so a burst does not pin its
    // peak in every node that saw it.
    if (ring_.size() > kInitialCapacity && count_ <= ring_.size() / 4) resize(ring_.size() / 2);
}

void SeenWindow::erase_index(std::size_t hole) {
    // Linear-probing deletion by backward shift: pull each later entry of
    // the probe run into the hole unless its home slot lies after the hole.
    const std::size_t mask = index_.size() - 1;
    for (std::size_t pos = (hole + 1) & mask; index_[pos] != 0; pos = (pos + 1) & mask) {
        const auto home =
            static_cast<std::size_t>((ring_[index_[pos] - 1].uid * kFibonacci) >> index_shift_);
        if (((pos - home) & mask) >= ((pos - hole) & mask)) {
            index_[hole] = index_[pos];
            hole = pos;
        }
    }
    index_[hole] = 0;
}

void SeenWindow::resize(std::size_t capacity) {
    std::vector<Entry> ring(capacity);
    for (std::size_t i = 0; i < count_; ++i) ring[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    ring_ = std::move(ring);
    head_ = 0;
    index_ = std::vector<std::uint32_t>(2 * capacity, 0);
    index_shift_ = 64 - std::countr_zero(index_.size());
    // In mark order, so each uid's cell ends on its latest mark.
    for (std::size_t i = 0; i < count_; ++i)
        index_[find(ring_[i].uid)] = static_cast<std::uint32_t>(i + 1);
}

void SeenWindow::clear() { *this = SeenWindow(); }

}  // namespace geoanon::core
