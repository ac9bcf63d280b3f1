// --check self-validation: re-parse the JSON the tool just emitted with the
// project's reader (util/json.hpp) and verify it against the documented
// schema. Mirrors the trace_query --check discipline: the tool proves its
// own output parses before CI consumes it.

#include <string>

#include "lint.hpp"
#include "util/json.hpp"

namespace geoanon::lint {

namespace {

using util::JsonValue;
using Kind = util::JsonValue::Kind;

bool set_error(std::string* error, const std::string& why) {
    if (error) *error = why;
    return false;
}

/// A number to_json can have written: a non-negative integer token.
bool is_count(const JsonValue& v) {
    return v.kind == Kind::kNumber && !v.number_raw.empty() &&
           v.number_raw.find_first_not_of("0123456789") == std::string::npos;
}

bool require_string(const JsonValue& obj, const std::string& key,
                    const std::string& ctx, std::string* error) {
    const JsonValue* v = obj.find(key);
    if (!v) return set_error(error, ctx + ": missing key '" + key + "'");
    if (v->kind != Kind::kString)
        return set_error(error, ctx + ": '" + key + "' is not a string");
    return true;
}

bool require_number(const JsonValue& obj, const std::string& key,
                    const std::string& ctx, std::string* error) {
    const JsonValue* v = obj.find(key);
    if (!v) return set_error(error, ctx + ": missing key '" + key + "'");
    if (!is_count(*v))
        return set_error(error, ctx + ": '" + key + "' is not a non-negative integer");
    return true;
}

}  // namespace

bool validate_findings_json(const std::string& json, std::string* error) {
    JsonValue root;
    std::string parse_error;
    if (!util::parse_json(json, root, parse_error))
        return set_error(error, "parse error: " + parse_error);
    if (root.kind != Kind::kObject) return set_error(error, "top level is not an object");

    if (!require_string(root, "tool", "top level", error)) return false;
    if (root.find("tool")->string != "geoanon_lint")
        return set_error(error, "tool is not \"geoanon_lint\"");

    if (!require_number(root, "schema_version", "top level", error)) return false;
    const JsonValue& schema = *root.find("schema_version");
    if (schema.number != static_cast<double>(kJsonSchemaVersion))
        return set_error(error, "schema_version is " + schema.number_raw + ", expected " +
                                    std::to_string(kJsonSchemaVersion));

    if (!require_number(root, "version", "top level", error)) return false;
    if (!require_number(root, "count", "top level", error)) return false;

    const JsonValue* findings = root.find("findings");
    if (!findings) return set_error(error, "missing key 'findings'");
    if (findings->kind != Kind::kArray) return set_error(error, "'findings' is not an array");
    if (root.find("count")->number != static_cast<double>(findings->array.size()))
        return set_error(error, "count does not match findings length");

    // Known rule ids, for the per-finding rule_id check.
    std::set<std::string> ids;
    for (Rule r : kAllRules) ids.insert(rule_id(r));

    for (std::size_t i = 0; i < findings->array.size(); ++i) {
        const JsonValue& f = findings->array[i];
        const std::string ctx = "findings[" + std::to_string(i) + "]";
        if (f.kind != Kind::kObject)
            return set_error(error, ctx + " is not an object");
        for (const char* key : {"rule_id", "rule", "file", "message"})
            if (!require_string(f, key, ctx, error)) return false;
        if (!require_number(f, "line", ctx, error)) return false;
        const std::string& id = f.find("rule_id")->string;
        if (!ids.count(id)) return set_error(error, ctx + ": unknown rule_id '" + id + "'");
        // Optional extras must have the right types when present.
        for (const char* key :
             {"taint_source", "taint_sink", "layer_from", "layer_to"}) {
            const JsonValue* v = f.find(key);
            if (v && v->kind != Kind::kString)
                return set_error(error, ctx + ": '" + std::string(key) +
                                            "' is not a string");
        }
        if (const JsonValue* v = f.find("taint_source_line"); v && !is_count(*v))
            return set_error(error, ctx + ": 'taint_source_line' is not a non-negative integer");
        // Unknown keys are a schema drift signal: reject them.
        static const std::set<std::string> known = {
            "rule_id", "rule", "file", "line", "message",
            "taint_source", "taint_source_line", "taint_sink",
            "layer_from", "layer_to"};
        for (const auto& [key, value] : f.object) {
            (void)value;
            if (!known.count(key))
                return set_error(error, ctx + ": unknown key '" + key + "'");
        }
    }
    return true;
}

}  // namespace geoanon::lint
