#include "util/json.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace geoanon::util {

void JsonWriter::separate() {
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!depth_counts_.empty() && depth_counts_.back()++ > 0) out_ += ',';
}

JsonWriter& JsonWriter::begin_object() {
    separate();
    out_ += '{';
    depth_counts_.push_back(0);
    return *this;
}

JsonWriter& JsonWriter::end_object() {
    depth_counts_.pop_back();
    out_ += '}';
    return *this;
}

JsonWriter& JsonWriter::begin_array() {
    separate();
    out_ += '[';
    depth_counts_.push_back(0);
    return *this;
}

JsonWriter& JsonWriter::end_array() {
    depth_counts_.pop_back();
    out_ += ']';
    return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
    separate();
    out_ += '"';
    out_ += json_escape(k);
    out_ += "\":";
    after_key_ = true;
    return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
    separate();
    out_ += '"';
    out_ += json_escape(v);
    out_ += '"';
    return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v) {
    separate();
    char buf[40];
    // %.17g round-trips every finite double and formats identically for
    // identical bit patterns — the byte-stability the sweep contract needs.
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
    separate();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out_ += buf;
    return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
    separate();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    out_ += buf;
    return *this;
}

JsonWriter& JsonWriter::value(bool v) {
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return false;
    }
    f << content << '\n';
    return static_cast<bool>(f);
}

}  // namespace geoanon::util
