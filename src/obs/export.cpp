#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/json.hpp"

namespace geoanon::obs {

namespace {
/// Chrome trace "cat" — lets Perfetto filter by layer.
const char* category(EventType t) {
    switch (t) {
        case EventType::kPhyTx:
        case EventType::kPhyRx:
        case EventType::kPhyDrop:
            return "phy";
        case EventType::kMacEnqueue:
        case EventType::kMacDrop:
            return "mac";
        case EventType::kAppSend:
        case EventType::kNetForward:
        case EventType::kNetRetransmit:
        case EventType::kNetStuck:
        case EventType::kNetDrop:
        case EventType::kNetDeliver:
            return "net";
        case EventType::kHelloSent:
        case EventType::kPseudonymRotated:
            return "ant";
        case EventType::kLastAttempt:
        case EventType::kTrapdoorAttempt:
        case EventType::kTrapdoorOpen:
        case EventType::kAckSent:
        case EventType::kAckReceived:
            return "agfw";
        case EventType::kLsQuery:
        case EventType::kLsReply:
        case EventType::kLsHandoff:
        case EventType::kLsReadRepair:
            return "ls";
        case EventType::kFaultFired:
            return "fault";
    }
    return "?";
}

std::string hex64(std::uint64_t v) {
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, v);
    return buf;
}
}  // namespace

std::string to_chrome_trace_json(const std::vector<Event>& events, const TraceMeta& meta) {
    util::JsonWriter w;
    w.begin_object();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").begin_object();
    w.key("scheme").value(meta.scheme);
    w.key("seed").value(meta.seed);
    w.key("num_nodes").value(static_cast<std::uint64_t>(meta.num_nodes));
    w.key("sim_seconds").value(meta.sim_seconds);
    w.key("recorded").value(static_cast<std::uint64_t>(events.size()));
    w.key("evicted").value(meta.evicted);
    w.end_object();
    w.key("traceEvents").begin_array();
    for (const Event& e : events) {
        w.begin_object();
        w.key("name").value(event_type_name(e.type));
        w.key("cat").value(category(e.type));
        w.key("ph").value("i");
        // Chrome trace ts is microseconds; SimTime is integer ns, so ns/1e3
        // is exact in double for any plausible run length.
        w.key("ts").value(static_cast<double>(e.t.ns()) / 1000.0);
        w.key("pid").value(static_cast<std::uint64_t>(0));
        w.key("tid").value(e.node == net::kInvalidNode
                               ? static_cast<std::int64_t>(-1)
                               : static_cast<std::int64_t>(e.node));
        w.key("s").value("t");
        w.key("args").begin_object();
        w.key("id").value(e.id);
        w.key("uid").value(e.uid);
        w.key("flow").value(static_cast<std::uint64_t>(e.flow));
        w.key("seq").value(static_cast<std::uint64_t>(e.seq));
        w.key("bytes").value(static_cast<std::uint64_t>(e.bytes));
        w.key("cause").value(drop_cause_name(e.cause));
        w.key("detail").value(hex64(e.detail));
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

}  // namespace geoanon::obs
