#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace geoanon::util {

/// Minimal ordered JSON emitter. Keys appear in call order and numbers are
/// formatted via a fixed printf recipe, so two semantically equal documents
/// are byte-identical — which is what the sweep determinism contract
/// (`--jobs 1` vs `--jobs 8`) and the trace-export contract compare.
class JsonWriter {
  public:
    JsonWriter& begin_object();
    JsonWriter& end_object();
    JsonWriter& begin_array();
    JsonWriter& end_array();
    JsonWriter& key(const std::string& k);
    JsonWriter& value(const std::string& v);
    JsonWriter& value(const char* v);
    JsonWriter& value(double v);
    JsonWriter& value(std::uint64_t v);
    JsonWriter& value(std::int64_t v);
    JsonWriter& value(bool v);

    const std::string& str() const { return out_; }

  private:
    void separate();
    std::string out_;
    /// One entry per open container: count of elements emitted so far.
    std::vector<std::size_t> depth_counts_;
    bool after_key_{false};
};

/// Minimal recursive-descent JSON value — enough to read back what this
/// project emits (the Chrome trace export, the lint findings) and to
/// validate third-party edits of it. Objects keep insertion order; numbers
/// stay double (uint64 details travel as hex strings precisely so this stays
/// lossless).
struct JsonValue {
    enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind{Kind::kNull};
    bool boolean{false};
    double number{0.0};
    /// Raw source token of a kNumber. `number` is a double and silently
    /// rounds integers above 2^53 (packet uids are full 64-bit PRP outputs);
    /// exact u64 extraction re-parses this instead.
    std::string number_raw;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /// The member with this key, or nullptr. O(members).
    const JsonValue* find(const std::string& key) const;
};

/// Parse `text`; returns false and sets `error` (with offset) on malformed
/// input. A repeated key within one object and trailing garbage after the
/// top-level value are errors.
bool parse_json(const std::string& text, JsonValue& out, std::string& error);

std::string json_escape(const std::string& s);

/// Write `content` to `path`; returns false (and logs) on failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace geoanon::util
