#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <tuple>

#include "internal.hpp"
#include "util/json.hpp"

namespace geoanon::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule metadata
// ---------------------------------------------------------------------------

struct RuleInfo {
    Rule rule;
    const char* id;
    const char* name;
    const char* summary;
};

constexpr RuleInfo kRuleInfo[] = {
    {Rule::kSuppression, "GL000", "suppression",
     "suppression comment is malformed or missing a reason"},
    {Rule::kWallClock, "GL001", "wallclock",
     "wall-clock time source in deterministic code"},
    {Rule::kAmbientRng, "GL002", "ambient-rng",
     "ambient randomness outside util/rng"},
    {Rule::kUnseededEngine, "GL003", "unseeded-engine",
     "default-constructed <random> engine"},
    {Rule::kUnorderedIter, "GL004", "unordered-iter",
     "iteration over unordered container"},
    {Rule::kPointerKey, "GL005", "pointer-key",
     "pointer-keyed ordered container"},
    {Rule::kFloatAccum, "GL006", "float-accum",
     "float arithmetic/state in simulation or stats path"},
    {Rule::kAmbientEnv, "GL007", "ambient-env",
     "environment variable read or write"},
    {Rule::kPrivacyTaint, "GL010", "privacy-taint",
     "identity/position source reaches a wire or export sink unsanitized"},
    {Rule::kLayerDag, "GL020", "layer-dag",
     "include edge climbs the documented layer DAG"},
    {Rule::kHotAlloc, "GL030", "hot-alloc",
     "heap allocation inside a `geoanon: hot` per-event path"},
    {Rule::kUnsetField, "GL040", "unset-field",
     "settings-struct member with a default that no file assigns"},
};

const RuleInfo& info(Rule r) {
    for (const RuleInfo& ri : kRuleInfo)
        if (ri.rule == r) return ri;
    return kRuleInfo[0];
}

}  // namespace

namespace internal {

// ---------------------------------------------------------------------------
// Source splitting: per line, the code text (comments and literal contents
// blanked out) and the comment text (for suppression directives). Handles
// line/block comments, string and char literals with escapes, and raw
// strings R"delim(...)delim".
// ---------------------------------------------------------------------------

std::vector<SourceLine> split_source(const std::string& src) {
    std::vector<SourceLine> lines(1);
    enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
    State st = State::kCode;
    std::string raw_delim;  // for raw strings: the )delim" terminator
    std::size_t i = 0;
    const std::size_t n = src.size();

    auto code = [&lines]() -> std::string& { return lines.back().code; };
    auto comment = [&lines]() -> std::string& { return lines.back().comment; };

    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            if (st == State::kLineComment) st = State::kCode;
            // Unterminated ordinary literals do not span lines; reset so a
            // stray quote cannot swallow the rest of the file.
            if (st == State::kString || st == State::kChar) st = State::kCode;
            lines.emplace_back();
            ++i;
            continue;
        }
        switch (st) {
            case State::kCode:
                if (c == '/' && i + 1 < n && src[i + 1] == '/') {
                    st = State::kLineComment;
                    i += 2;
                } else if (c == '/' && i + 1 < n && src[i + 1] == '*') {
                    st = State::kBlockComment;
                    i += 2;
                } else if (c == 'R' && i + 1 < n && src[i + 1] == '"' &&
                           (i == 0 || (!std::isalnum(static_cast<unsigned char>(src[i - 1])) &&
                                       src[i - 1] != '_'))) {
                    std::size_t j = i + 2;
                    std::string d;
                    while (j < n && src[j] != '(' && src[j] != '\n') d += src[j++];
                    if (j < n && src[j] == '(') {
                        raw_delim = ")" + d + "\"";
                        st = State::kRawString;
                        code() += "\"\"";  // keep a placeholder token
                        i = j + 1;
                    } else {
                        code() += c;
                        ++i;
                    }
                } else if (c == '"') {
                    st = State::kString;
                    code() += '"';
                    ++i;
                } else if (c == '\'') {
                    st = State::kChar;
                    code() += '\'';
                    ++i;
                } else {
                    code() += c;
                    ++i;
                }
                break;
            case State::kLineComment:
                comment() += c;
                ++i;
                break;
            case State::kBlockComment:
                if (c == '*' && i + 1 < n && src[i + 1] == '/') {
                    st = State::kCode;
                    i += 2;
                } else {
                    comment() += c;
                    ++i;
                }
                break;
            case State::kString:
                if (c == '\\' && i + 1 < n) {
                    i += 2;
                } else if (c == '"') {
                    st = State::kCode;
                    code() += '"';
                    ++i;
                } else {
                    ++i;
                }
                break;
            case State::kChar:
                if (c == '\\' && i + 1 < n) {
                    i += 2;
                } else if (c == '\'') {
                    st = State::kCode;
                    code() += '\'';
                    ++i;
                } else {
                    ++i;
                }
                break;
            case State::kRawString:
                if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
                    st = State::kCode;
                    i += raw_delim.size();
                } else {
                    ++i;
                }
                break;
        }
    }
    return lines;
}

// ---------------------------------------------------------------------------
// Tokenizer over the blanked code text.
// ---------------------------------------------------------------------------

std::vector<Token> tokenize(const std::vector<SourceLine>& lines) {
    std::vector<Token> toks;
    for (std::size_t ln = 0; ln < lines.size(); ++ln) {
        const std::string& s = lines[ln].code;
        std::size_t i = 0;
        while (i < s.size()) {
            const unsigned char c = static_cast<unsigned char>(s[i]);
            if (std::isspace(c)) {
                ++i;
                continue;
            }
            Token t;
            t.line = ln + 1;
            if (std::isalpha(c) || c == '_') {
                while (i < s.size()) {
                    const unsigned char d = static_cast<unsigned char>(s[i]);
                    if (!std::isalnum(d) && d != '_') break;
                    t.text += s[i++];
                }
                t.is_ident = true;
            } else if (std::isdigit(c)) {
                while (i < s.size()) {
                    const unsigned char d = static_cast<unsigned char>(s[i]);
                    if (!std::isalnum(d) && d != '.' && d != '\'') break;
                    t.text += s[i++];
                }
            } else {
                t.text = s[i++];
            }
            toks.push_back(std::move(t));
        }
    }
    return toks;
}

std::string trim(const std::string& s) {
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

std::size_t match_bracket(const std::vector<Token>& toks, std::size_t open,
                          const char* opener, const char* closer) {
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].text == opener) ++depth;
        else if (toks[i].text == closer && --depth == 0) return i;
    }
    return toks.size();
}

std::size_t match_angle(const std::vector<Token>& toks, std::size_t open) {
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        const std::string& t = toks[i].text;
        if (t == "<") ++depth;
        else if (t == ">" && --depth == 0) return i;
        else if (t == ";" && depth == 1) return toks.size();
    }
    return toks.size();
}

// ---------------------------------------------------------------------------
// Suppression directives — "allow" covers its own line and the next one,
// "begin-allow"/"end-allow" bracket a region. Examples (using real rule
// names; the list is comma-separated):
//   geoanon-lint: allow(wallclock) -- doc example, not an active suppression
//   geoanon-lint: begin-allow(wallclock, float-accum) -- doc example
//   geoanon-lint: end-allow(wallclock, float-accum)
// A directive without a parseable rule list, with an unknown rule name, or
// (for allow/begin-allow) without a nonempty reason after "--" is itself a
// GL000 finding: every suppression must say why.
// ---------------------------------------------------------------------------

bool Suppressions::allowed(Rule r, std::size_t line) const {
    for (std::size_t l : {line, line > 0 ? line - 1 : 0}) {
        const auto it = line_allow.find(l);
        if (it != line_allow.end() && it->second.count(r)) return true;
    }
    const auto bit = blocks.find(r);
    if (bit != blocks.end()) {
        for (const auto& [b, e] : bit->second)
            if (line >= b && line <= e) return true;
    }
    return false;
}

Suppressions parse_suppressions(const std::string& path,
                                const std::vector<SourceLine>& lines) {
    Suppressions sup;
    // rule -> stack of open begin-allow lines
    std::map<Rule, std::vector<std::size_t>> open;

    for (std::size_t ln = 0; ln < lines.size(); ++ln) {
        const std::string& c = lines[ln].comment;
        const std::size_t pos = c.find("geoanon-lint:");
        if (pos == std::string::npos) continue;
        const std::size_t line = ln + 1;
        auto bad = [&](const std::string& why) {
            sup.errors.push_back(
                {Rule::kSuppression, path, line, "bad suppression: " + why});
        };

        std::string rest = trim(c.substr(pos + std::string("geoanon-lint:").size()));
        std::string verb;
        for (const char* v : {"begin-allow", "end-allow", "allow"}) {
            if (rest.rfind(v, 0) == 0) {
                verb = v;
                rest = rest.substr(verb.size());
                break;
            }
        }
        if (verb.empty()) {
            bad("expected allow(...), begin-allow(...), or end-allow(...)");
            continue;
        }
        rest = trim(rest);
        if (rest.empty() || rest[0] != '(') {
            bad(verb + " needs a (rule, ...) list");
            continue;
        }
        const std::size_t close = rest.find(')');
        if (close == std::string::npos) {
            bad("unterminated rule list");
            continue;
        }
        std::set<Rule> rules;
        std::string list = rest.substr(1, close - 1);
        bool ok = true;
        std::size_t start = 0;
        while (start <= list.size()) {
            std::size_t comma = list.find(',', start);
            if (comma == std::string::npos) comma = list.size();
            const std::string name = trim(list.substr(start, comma - start));
            Rule r;
            if (name.empty() || !rule_from_name(name, r)) {
                bad("unknown rule '" + name + "'");
                ok = false;
                break;
            }
            rules.insert(r);
            if (comma == list.size()) break;
            start = comma + 1;
        }
        if (!ok || rules.empty()) {
            if (ok) bad("empty rule list");
            continue;
        }
        rest = trim(rest.substr(close + 1));

        if (verb == "end-allow") {
            for (Rule r : rules) {
                auto& st = open[r];
                if (st.empty()) {
                    bad(std::string("end-allow(") + rule_name(r) +
                        ") without matching begin-allow");
                    continue;
                }
                sup.blocks[r].emplace_back(st.back(), line);
                st.pop_back();
            }
            continue;
        }

        // allow / begin-allow: demand "-- reason".
        if (rest.rfind("--", 0) != 0 || trim(rest.substr(2)).empty()) {
            bad(verb + " must carry a reason: \"-- <why this is safe>\"");
            continue;
        }
        if (verb == "allow") {
            sup.line_allow[line].insert(rules.begin(), rules.end());
        } else {
            for (Rule r : rules) open[r].push_back(line);
        }
    }
    for (const auto& [r, st] : open) {
        for (std::size_t line : st)
            sup.errors.push_back({Rule::kSuppression, path, line,
                                  std::string("begin-allow(") + rule_name(r) +
                                      ") never closed by end-allow"});
    }
    return sup;
}

}  // namespace internal

using internal::SourceLine;
using internal::Suppressions;
using internal::Token;
using internal::match_angle;
using internal::match_bracket;
using internal::split_source;
using internal::tokenize;

namespace {

// ---------------------------------------------------------------------------
// Token-level rules (GL001–GL006)
// ---------------------------------------------------------------------------

bool contains(const std::string& haystack, const char* needle) {
    return haystack.find(needle) != std::string::npos;
}

constexpr const char* kWallClockIdents[] = {
    "system_clock",  "steady_clock", "high_resolution_clock",
    "gettimeofday",  "clock_gettime", "timespec_get",
};
constexpr const char* kAmbientRngIdents[] = {
    "rand", "srand", "random_device", "drand48", "lrand48",
    "mrand48", "random_shuffle",
};
constexpr const char* kEnvIdents[] = {
    "getenv", "secure_getenv", "setenv", "unsetenv",
};
constexpr const char* kRandomEngines[] = {
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "knuth_b",
};
constexpr const char* kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
};
constexpr const char* kOrderedTypes[] = {"map", "set", "multimap", "multiset"};

bool is_any(const Token& t, const auto& list) {
    if (!t.is_ident) return false;
    for (const char* w : list)
        if (t.text == w) return true;
    return false;
}

void check_wallclock(const std::string& path, const std::vector<Token>& toks,
                     std::vector<Finding>& out) {
    for (const Token& t : toks) {
        if (is_any(t, kWallClockIdents)) {
            out.push_back({Rule::kWallClock, path, t.line,
                           t.text + ": wall-clock reads break run reproducibility; "
                           "derive timing from SimTime, or suppress in a measured "
                           "perf block"});
        }
    }
}

void check_ambient_rng(const std::string& path, const std::vector<Token>& toks,
                       std::vector<Finding>& out) {
    if (contains(path, "util/rng")) return;  // the one sanctioned RNG home
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (!is_any(t, kAmbientRngIdents)) continue;
        // `rand`/`srand` only as a call or address-of, not substrings of
        // member names (the tokenizer already guarantees whole identifiers;
        // still require a call-ish context to dodge local vars named rand).
        if (t.text == "rand" || t.text == "srand") {
            const bool call = i + 1 < toks.size() && toks[i + 1].text == "(";
            if (!call) continue;
            // skip member calls like obj.rand() which are project code
            if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->")) continue;
        }
        out.push_back({Rule::kAmbientRng, path, t.line,
                       t.text + ": nondeterministic randomness; all streams must "
                       "fork from util::Rng and the scenario seed"});
    }
}

void check_ambient_env(const std::string& path, const std::vector<Token>& toks,
                       std::vector<Finding>& out) {
    for (const Token& t : toks) {
        if (is_any(t, kEnvIdents)) {
            out.push_back({Rule::kAmbientEnv, path, t.line,
                           t.text + ": the environment is a hidden input; a run "
                           "must be a function of its config and seed, so pass "
                           "settings explicitly (config field or CLI flag)"});
        }
    }
}

void check_unseeded_engine(const std::string& path, const std::vector<Token>& toks,
                           std::vector<Finding>& out) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!is_any(toks[i], kRandomEngines)) continue;
        const std::size_t line = toks[i].line;
        std::size_t j = i + 1;
        // `std::mt19937 name ;|{}|()`  or temporary `std::mt19937{}` / `()`.
        if (j < toks.size() && toks[j].is_ident) ++j;  // declared name
        if (j >= toks.size()) continue;
        const std::string& a = toks[j].text;
        const bool empty_pair =
            (a == "{" || a == "(") && j + 1 < toks.size() &&
            toks[j + 1].text == (a == "{" ? "}" : ")");
        if (a == ";" || empty_pair) {
            out.push_back({Rule::kUnseededEngine, path, line,
                           toks[i].text + " constructed without a seed: engine "
                           "state would come from the default constant, hiding "
                           "the missing seed plumbing"});
        }
    }
}

void check_pointer_key(const std::string& path, const std::vector<Token>& toks,
                       std::vector<Finding>& out) {
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (!(toks[i].text == "std" && toks[i + 1].text == ":" &&
              toks[i + 2].text == ":"))
            continue;
        const std::size_t ty = i + 3;
        if (!is_any(toks[ty], kOrderedTypes)) continue;
        if (ty + 1 >= toks.size() || toks[ty + 1].text != "<") continue;
        const std::size_t close = match_angle(toks, ty + 1);
        if (close == toks.size()) continue;
        // Key type: tokens up to the first top-level comma (or the close).
        int depth = 0;
        bool pointer = false;
        for (std::size_t k = ty + 1; k < close; ++k) {
            const std::string& t = toks[k].text;
            if (t == "<" || t == "(") ++depth;
            else if (t == ">" || t == ")") --depth;
            else if (t == "," && depth == 1) break;
            else if (t == "*" && depth == 1) pointer = true;
        }
        if (pointer) {
            out.push_back({Rule::kPointerKey, path, toks[ty].line,
                           "std::" + toks[ty].text + " keyed by a pointer: "
                           "ordering follows allocation addresses, which differ "
                           "run to run"});
        }
    }
}

void check_float(const std::string& path, const std::vector<Token>& toks,
                 std::vector<Finding>& out) {
    for (const Token& t : toks) {
        if (t.is_ident && t.text == "float") {
            out.push_back({Rule::kFloatAccum, path, t.line,
                           "float narrows accumulations and shifts stats between "
                           "platforms; simulation and stats state is double"});
        }
    }
}

void collect_unordered_decls(const std::vector<Token>& toks,
                             std::set<std::string>& names) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!is_any(toks[i], kUnorderedTypes)) continue;
        if (i + 1 >= toks.size() || toks[i + 1].text != "<") continue;
        std::size_t close = match_angle(toks, i + 1);
        if (close == toks.size()) continue;
        std::size_t j = close + 1;
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*" || toks[j].text == "const"))
            ++j;
        if (j < toks.size() && toks[j].is_ident) names.insert(toks[j].text);
    }
}

void check_unordered_iter(const std::string& path, const std::vector<Token>& toks,
                          const std::set<std::string>& names,
                          std::vector<Finding>& out) {
    if (names.empty()) return;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        // (a) range-for whose range expression names an unordered container.
        if (toks[i].is_ident && toks[i].text == "for" && i + 1 < toks.size() &&
            toks[i + 1].text == "(") {
            const std::size_t close = match_bracket(toks, i + 1, "(", ")");
            if (close == toks.size()) continue;
            // top-level ':' (ignore '::')
            std::size_t colon = toks.size();
            int depth = 0;
            for (std::size_t k = i + 1; k < close; ++k) {
                const std::string& t = toks[k].text;
                if (t == "(" || t == "[" || t == "{") ++depth;
                else if (t == ")" || t == "]" || t == "}") --depth;
                else if (t == ":" && depth == 1 &&
                         (k + 1 >= close || toks[k + 1].text != ":") &&
                         (k == 0 || toks[k - 1].text != ":")) {
                    colon = k;
                    break;
                }
            }
            if (colon == toks.size()) continue;
            for (std::size_t k = colon + 1; k < close; ++k) {
                if (toks[k].is_ident && names.count(toks[k].text)) {
                    out.push_back(
                        {Rule::kUnorderedIter, path, toks[i].line,
                         "range-for over unordered container '" + toks[k].text +
                             "': iteration order is hash-layout dependent; sort "
                             "before emitting, use a deterministic container, or "
                             "suppress if order provably cannot escape"});
                    break;
                }
            }
        }
        // (b) explicit iterator walk: name.begin() / name.cbegin().
        if (toks[i].is_ident && names.count(toks[i].text) && i + 2 < toks.size() &&
            toks[i + 1].text == "." &&
            (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin")) {
            out.push_back({Rule::kUnorderedIter, path, toks[i].line,
                           "iterator walk over unordered container '" + toks[i].text +
                               "': iteration order is hash-layout dependent"});
        }
    }
}

/// Shared per-file scan against a caller-provided taint index. Runs every
/// pass, applies suppressions, and appends GL000 annotation/suppression
/// errors.
std::vector<Finding> scan_file_indexed(const FileInput& in,
                                       const std::set<std::string>& extra_unordered,
                                       const internal::TaintIndex& idx,
                                       const std::set<std::string>& assigned) {
    const std::vector<SourceLine> lines = split_source(in.content);
    const std::vector<Token> toks = tokenize(lines);
    const Suppressions sup = internal::parse_suppressions(in.path, lines);

    std::set<std::string> unordered = extra_unordered;
    collect_unordered_decls(toks, unordered);

    std::vector<Finding> annotation_errors;
    const std::vector<internal::Annotation> anns =
        internal::parse_annotations(in.path, lines, toks, annotation_errors);

    std::vector<Finding> raw;
    check_wallclock(in.path, toks, raw);
    check_ambient_rng(in.path, toks, raw);
    check_ambient_env(in.path, toks, raw);
    check_unseeded_engine(in.path, toks, raw);
    check_unordered_iter(in.path, toks, unordered, raw);
    check_pointer_key(in.path, toks, raw);
    check_float(in.path, toks, raw);
    internal::check_taint(in.path, toks, idx, raw);
    internal::check_hotpath(in.path, toks, anns, raw);
    internal::check_layers(in, raw);
    internal::check_unset_fields(in.path, toks, assigned, raw);

    std::vector<Finding> out;
    for (Finding& f : raw)
        if (!sup.allowed(f.rule, f.line)) out.push_back(std::move(f));
    out.insert(out.end(), sup.errors.begin(), sup.errors.end());
    out.insert(out.end(), annotation_errors.begin(), annotation_errors.end());
    return out;
}

/// Build the cross-file GL010 index: explicit annotations first, then the
/// derived-source fixpoint (a function whose return value is tainted becomes
/// a source itself; bounded iterations keep pathological cycles cheap).
internal::TaintIndex build_index(
    const std::vector<std::pair<const FileInput*, std::vector<Token>>>& tokenized) {
    internal::TaintIndex idx;
    std::vector<Finding> sink_errors;  // reported by the per-file scan instead
    for (const auto& [file, toks] : tokenized) {
        const std::vector<SourceLine> lines = split_source(file->content);
        const auto anns =
            internal::parse_annotations(file->path, lines, toks, sink_errors);
        internal::index_annotations(anns, idx);
    }
    for (int round = 0; round < 3; ++round) {
        bool grew = false;
        for (const auto& [file, toks] : tokenized)
            grew = internal::add_derived_sources(toks, idx) || grew;
        if (!grew) break;
    }
    return idx;
}

}  // namespace

const char* rule_id(Rule r) { return info(r).id; }
const char* rule_name(Rule r) { return info(r).name; }
const char* rule_summary(Rule r) { return info(r).summary; }

bool rule_from_name(const std::string& name, Rule& out) {
    for (const RuleInfo& ri : kRuleInfo) {
        if (name == ri.name || name == ri.id) {
            out = ri.rule;
            return true;
        }
    }
    return false;
}

std::set<std::string> unordered_decls(const std::string& content) {
    std::set<std::string> names;
    collect_unordered_decls(tokenize(split_source(content)), names);
    return names;
}

std::vector<Finding> scan_file(const FileInput& in,
                               const std::set<std::string>& extra_unordered) {
    // Single-file entry point: the taint index sees this file alone, so
    // annotation fixtures stay self-contained (tests rely on this).
    const std::vector<SourceLine> lines = split_source(in.content);
    std::vector<Token> toks = tokenize(lines);
    std::vector<std::pair<const FileInput*, std::vector<Token>>> tokenized;
    tokenized.emplace_back(&in, std::move(toks));
    const internal::TaintIndex idx = build_index(tokenized);
    std::set<std::string> assigned;
    internal::collect_field_assignments(tokenized.front().second, assigned);
    return scan_file_indexed(in, extra_unordered, idx, assigned);
}

std::vector<Finding> scan_files(const std::vector<FileInput>& files) {
    return scan_files(files, ScanOptions{});
}

std::vector<Finding> scan_files(const std::vector<FileInput>& files,
                                const ScanOptions& opts,
                                const std::vector<FileInput>& evidence) {
    // Sibling-header resolution: for dir/foo.cpp, names declared unordered in
    // dir/foo.hpp (or .h) are hazards in foo.cpp too — members declared in
    // the class header are iterated in the implementation file.
    std::map<std::string, const FileInput*> by_path;
    for (const FileInput& f : files) by_path[f.path] = &f;

    // Tokenize once; the GL010 index and the per-file passes share the work.
    std::vector<std::pair<const FileInput*, std::vector<Token>>> tokenized;
    tokenized.reserve(files.size());
    for (const FileInput& f : files)
        tokenized.emplace_back(&f, tokenize(split_source(f.content)));
    const internal::TaintIndex idx = build_index(tokenized);
    std::set<std::string> assigned;
    for (const auto& [file, toks] : tokenized)
        internal::collect_field_assignments(toks, assigned);
    for (const FileInput& f : evidence)
        internal::collect_field_assignments(tokenize(split_source(f.content)), assigned);

    std::vector<Finding> all;
    for (const FileInput& f : files) {
        std::set<std::string> extra;
        const std::size_t dot = f.path.rfind(".cpp");
        if (dot != std::string::npos && dot == f.path.size() - 4) {
            for (const char* ext : {".hpp", ".h"}) {
                const auto it = by_path.find(f.path.substr(0, dot) + ext);
                if (it != by_path.end()) {
                    const std::set<std::string> names =
                        unordered_decls(it->second->content);
                    extra.insert(names.begin(), names.end());
                }
            }
        }
        std::vector<Finding> fs = scan_file_indexed(f, extra, idx, assigned);
        all.insert(all.end(), fs.begin(), fs.end());
    }
    std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
        return std::tie(a.file, a.line, a.rule, a.message) <
               std::tie(b.file, b.line, b.rule, b.message);
    });
    if (!opts.enabled.empty()) {
        std::vector<Finding> kept;
        for (Finding& f : all)
            if (opts.rule_enabled(f.rule)) kept.push_back(std::move(f));
        all = std::move(kept);
    }
    return all;
}

std::string to_text(const std::vector<Finding>& findings) {
    std::string out;
    for (const Finding& f : findings) {
        out += f.file + ":" + std::to_string(f.line) + ": [" + rule_id(f.rule) +
               "/" + rule_name(f.rule) + "] " + f.message + "\n";
    }
    out += std::to_string(findings.size()) + " finding(s)\n";
    return out;
}

std::string to_json(const std::vector<Finding>& findings) {
    util::JsonWriter w;
    w.begin_object();
    w.key("tool").value("geoanon_lint");
    w.key("schema_version").value(kJsonSchemaVersion);
    w.key("version").value(kJsonSchemaVersion);
    w.key("count").value(static_cast<std::uint64_t>(findings.size()));
    w.key("findings").begin_array();
    for (const Finding& f : findings) {
        w.begin_object();
        w.key("rule_id").value(rule_id(f.rule));
        w.key("rule").value(rule_name(f.rule));
        w.key("file").value(f.file);
        w.key("line").value(static_cast<std::uint64_t>(f.line));
        w.key("message").value(f.message);
        if (!f.taint_source.empty()) {
            w.key("taint_source").value(f.taint_source);
            w.key("taint_source_line")
                .value(static_cast<std::uint64_t>(f.taint_source_line));
            w.key("taint_sink").value(f.taint_sink);
        }
        if (!f.layer_from.empty()) {
            w.key("layer_from").value(f.layer_from);
            w.key("layer_to").value(f.layer_to);
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

}  // namespace geoanon::lint
