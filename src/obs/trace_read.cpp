#include "obs/trace_read.hpp"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "util/json.hpp"

namespace geoanon::obs {

using util::JsonValue;

namespace {

bool schema_fail(std::string& error, std::size_t index, const char* msg) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "traceEvents[%zu]: %s", index, msg);
    error = buf;
    return false;
}

/// Fetch a numeric member as uint64; false if absent / not a number /
/// negative / fractional.
bool get_u64(const JsonValue& obj, const char* key, std::uint64_t& out) {
    const JsonValue* v = obj.find(key);
    if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return false;
    // Exact path: a plain unsigned integer token is re-parsed from source so
    // values above 2^53 (full 64-bit uids) survive the double in `number`.
    const std::string& raw = v->number_raw;
    if (!raw.empty() &&
        raw.find_first_not_of("0123456789") == std::string::npos) {
        errno = 0;
        char* end = nullptr;
        const unsigned long long u = std::strtoull(raw.c_str(), &end, 10);
        if (errno != 0 || end == nullptr || *end != '\0') return false;
        out = u;
        return true;
    }
    if (v->number < 0) return false;
    out = static_cast<std::uint64_t>(v->number);
    if (static_cast<double>(out) != v->number) return false;
    return true;
}

}  // namespace

bool load_chrome_trace(const std::string& text, LoadedTrace& out, std::string& error) {
    JsonValue root;
    if (!parse_json(text, root, error)) return false;
    if (root.kind != JsonValue::Kind::kObject) {
        error = "top level is not an object";
        return false;
    }

    const JsonValue* other = root.find("otherData");
    if (other == nullptr || other->kind != JsonValue::Kind::kObject) {
        error = "missing otherData object";
        return false;
    }
    if (const JsonValue* s = other->find("scheme");
        s != nullptr && s->kind == JsonValue::Kind::kString)
        out.meta.scheme = s->string;
    std::uint64_t u = 0;
    if (get_u64(*other, "seed", u)) out.meta.seed = u;
    if (get_u64(*other, "num_nodes", u)) out.meta.num_nodes = static_cast<std::uint32_t>(u);
    if (const JsonValue* s = other->find("sim_seconds");
        s != nullptr && s->kind == JsonValue::Kind::kNumber)
        out.meta.sim_seconds = s->number;
    if (get_u64(*other, "evicted", u)) out.meta.evicted = u;

    const JsonValue* evs = root.find("traceEvents");
    if (evs == nullptr || evs->kind != JsonValue::Kind::kArray) {
        error = "missing traceEvents array";
        return false;
    }

    out.events.clear();
    out.events.reserve(evs->array.size());
    std::uint64_t prev_id = 0;
    for (std::size_t i = 0; i < evs->array.size(); ++i) {
        const JsonValue& je = evs->array[i];
        if (je.kind != JsonValue::Kind::kObject) return schema_fail(error, i, "not an object");

        Event e;
        const JsonValue* name = je.find("name");
        if (name == nullptr || name->kind != JsonValue::Kind::kString)
            return schema_fail(error, i, "missing name");
        if (!event_type_from_name(name->string.c_str(), e.type))
            return schema_fail(error, i, "unknown event type");

        const JsonValue* ph = je.find("ph");
        if (ph == nullptr || ph->kind != JsonValue::Kind::kString || ph->string != "i")
            return schema_fail(error, i, "ph is not \"i\"");

        const JsonValue* ts = je.find("ts");
        if (ts == nullptr || ts->kind != JsonValue::Kind::kNumber || ts->number < 0)
            return schema_fail(error, i, "bad ts");
        e.t = SimTime::nanos(static_cast<std::int64_t>(ts->number * 1000.0));

        const JsonValue* tid = je.find("tid");
        if (tid == nullptr || tid->kind != JsonValue::Kind::kNumber)
            return schema_fail(error, i, "bad tid");
        e.node = tid->number < 0 ? net::kInvalidNode
                                 : static_cast<net::NodeId>(tid->number);

        const JsonValue* args = je.find("args");
        if (args == nullptr || args->kind != JsonValue::Kind::kObject)
            return schema_fail(error, i, "missing args");
        if (!get_u64(*args, "id", e.id) || e.id == 0)
            return schema_fail(error, i, "bad args.id");
        if (e.id <= prev_id) return schema_fail(error, i, "ids not strictly increasing");
        prev_id = e.id;
        if (!get_u64(*args, "uid", e.uid)) return schema_fail(error, i, "bad args.uid");
        std::uint64_t tmp = 0;
        if (!get_u64(*args, "flow", tmp)) return schema_fail(error, i, "bad args.flow");
        e.flow = static_cast<net::FlowId>(tmp);
        if (!get_u64(*args, "seq", tmp)) return schema_fail(error, i, "bad args.seq");
        e.seq = static_cast<std::uint32_t>(tmp);
        if (!get_u64(*args, "bytes", tmp)) return schema_fail(error, i, "bad args.bytes");
        e.bytes = static_cast<std::uint32_t>(tmp);

        const JsonValue* cause = args->find("cause");
        if (cause == nullptr || cause->kind != JsonValue::Kind::kString)
            return schema_fail(error, i, "missing args.cause");
        if (!drop_cause_from_name(cause->string.c_str(), e.cause))
            return schema_fail(error, i, "unknown drop cause");

        const JsonValue* detail = args->find("detail");
        if (detail == nullptr || detail->kind != JsonValue::Kind::kString ||
            detail->string.rfind("0x", 0) != 0)
            return schema_fail(error, i, "bad args.detail");
        char* end = nullptr;
        e.detail = std::strtoull(detail->string.c_str() + 2, &end, 16);
        if (end == nullptr || *end != '\0') return schema_fail(error, i, "bad args.detail");

        out.events.push_back(e);
    }
    return true;
}

}  // namespace geoanon::obs
