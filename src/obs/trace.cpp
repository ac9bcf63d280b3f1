#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>

namespace geoanon::obs {

#define GEOANON_EVENT_TYPE_CASE(e, name) case EventType::e: return name;
const char* event_type_name(EventType t) {
    switch (t) { GEOANON_EVENT_TYPES(GEOANON_EVENT_TYPE_CASE) }
    return "?";
}
#undef GEOANON_EVENT_TYPE_CASE

#define GEOANON_DROP_CAUSE_CASE(e, name) case DropCause::e: return name;
const char* drop_cause_name(DropCause c) {
    switch (c) { GEOANON_DROP_CAUSES(GEOANON_DROP_CAUSE_CASE) }
    return "?";
}
#undef GEOANON_DROP_CAUSE_CASE

bool event_type_from_name(const char* name, EventType& out) {
    for (const EventType t : kAllEventTypes) {
        if (std::strcmp(name, event_type_name(t)) == 0) {
            out = t;
            return true;
        }
    }
    return false;
}

bool drop_cause_from_name(const char* name, DropCause& out) {
    for (const DropCause c : kAllDropCauses) {
        if (std::strcmp(name, drop_cause_name(c)) == 0) {
            out = c;
            return true;
        }
    }
    return false;
}

TraceRecorder::TraceRecorder(TraceParams params) : params_(params) {
    if (params_.shard_capacity == 0) params_.shard_capacity = 1;
}

void TraceRecorder::record(SimTime now, Event e) {
    const util::MutexLock lock(mu_);
    e.t = now;
    e.id = next_id_++;

    const std::size_t shard_idx =
        e.node == net::kInvalidNode ? 0 : static_cast<std::size_t>(e.node) + 1;
    if (shard_idx >= shards_.size()) shards_.resize(shard_idx + 1);
    Shard& shard = shards_[shard_idx];

    if (shard.ring.size() < params_.shard_capacity) {
        shard.ring.push_back(e);
    } else {
        shard.ring[shard.head] = e;
        shard.head = (shard.head + 1) % params_.shard_capacity;
        ++evicted_;
    }
}

std::vector<Event> TraceRecorder::events() const {
    const util::MutexLock lock(mu_);
    std::vector<Event> out;
    std::size_t total = 0;
    for (const Shard& s : shards_) total += s.ring.size();
    out.reserve(total);
    for (const Shard& s : shards_) out.insert(out.end(), s.ring.begin(), s.ring.end());
    std::sort(out.begin(), out.end(),
              [](const Event& a, const Event& b) { return a.id < b.id; });
    return out;
}

}  // namespace geoanon::obs
