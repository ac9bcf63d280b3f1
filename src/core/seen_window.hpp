#pragma once

#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace geoanon::core {

/// AGFW's duplicate table: the uids a node marked within the last ttl.
///
/// Marks arrive in time order, so they are kept as a FIFO ring of
/// (time, uid) and expire from its head in O(expired) instead of a scan of
/// the whole table on every hello. An open-addressing index (uid -> ring
/// slot of the uid's latest mark) answers contains(); a ring entry that a
/// later mark of the same uid superseded is skipped when it expires. Both
/// arrays stay empty until the first mark, double when the ring fills and
/// halve when it is a quarter full: 24-96 B per live uid, against ~45 B and
/// one allocation per mark in a node-based hash map.
class SeenWindow {
  public:
    bool contains(std::uint64_t uid) const;
    /// Marks `uid` as seen at `now`. `now` must not precede an earlier mark.
    void mark(std::uint64_t uid, util::SimTime now);
    /// Forgets every uid whose latest mark is more than `ttl` before `now`.
    void expire(util::SimTime now, util::SimTime ttl);
    /// Drops everything and releases the memory.
    void clear();
    /// Distinct uids currently marked.
    std::size_t size() const { return live_; }

  private:
    struct Entry {
        util::SimTime at;
        std::uint64_t uid;
    };

    /// Index position holding `uid`, or the empty position where it belongs.
    std::size_t find(std::uint64_t uid) const;
    void erase_index(std::size_t pos);
    /// Moves the live entries into a ring of `capacity` (a power of two
    /// >= count_) and rebuilds the index at twice that.
    void resize(std::size_t capacity);

    /// Power-of-two capacity; entries [head_, head_ + count_) are live.
    std::vector<Entry> ring_;
    std::size_t head_{0};
    std::size_t count_{0};
    /// Ring slot + 1 of each distinct uid's latest mark; 0 is empty. Twice
    /// the ring's size, so the load never exceeds one half.
    std::vector<std::uint32_t> index_;
    int index_shift_{64};
    std::size_t live_{0};
};

}  // namespace geoanon::core
