#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>

namespace geoanon::obs {

const char* event_type_name(EventType t) {
    switch (t) {
        case EventType::kAppSend: return "app_send";
        case EventType::kMacEnqueue: return "mac_enqueue";
        case EventType::kMacDrop: return "mac_drop";
        case EventType::kPhyTx: return "phy_tx";
        case EventType::kPhyRx: return "phy_rx";
        case EventType::kPhyDrop: return "phy_drop";
        case EventType::kNetForward: return "net_forward";
        case EventType::kNetRetransmit: return "net_retransmit";
        case EventType::kLastAttempt: return "last_attempt";
        case EventType::kNetStuck: return "net_stuck";
        case EventType::kNetDrop: return "net_drop";
        case EventType::kNetDeliver: return "net_deliver";
        case EventType::kTrapdoorAttempt: return "trapdoor_attempt";
        case EventType::kTrapdoorOpen: return "trapdoor_open";
        case EventType::kAckSent: return "ack_sent";
        case EventType::kAckReceived: return "ack_received";
        case EventType::kHelloSent: return "hello_sent";
        case EventType::kPseudonymRotated: return "pseudonym_rotated";
        case EventType::kLsQuery: return "ls_query";
        case EventType::kLsReply: return "ls_reply";
        case EventType::kLsHandoff: return "ls_handoff";
        case EventType::kLsReadRepair: return "ls_read_repair";
        case EventType::kFaultFired: return "fault_fired";
    }
    return "?";
}

const char* drop_cause_name(DropCause c) {
    switch (c) {
        case DropCause::kNone: return "none";
        case DropCause::kNoRoute: return "no_route";
        case DropCause::kUnreachable: return "unreachable";
        case DropCause::kNoLocation: return "no_location";
        case DropCause::kMacRetry: return "mac_retry";
        case DropCause::kQueueFull: return "queue_full";
        case DropCause::kCollision: return "collision";
        case DropCause::kImpaired: return "impaired";
        case DropCause::kNodeDown: return "node_down";
        case DropCause::kLastAttemptUnanswered: return "last_attempt_unanswered";
        case DropCause::kNextHopSilent: return "next_hop_silent";
        case DropCause::kRelayStuck: return "relay_stuck";
    }
    return "?";
}

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
    if (!enabled_) return;
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
