#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace geoanon::lint {

/// Project-specific determinism and privacy rules clang-tidy cannot express.
/// Rule IDs are stable (they appear in suppression comments, CI output, and
/// the JSON schema); new rules append, existing IDs never renumber.
/// DESIGN.md §12 documents the determinism rules, §13 the semantic passes.
enum class Rule {
    kSuppression,    ///< GL000: malformed / reason-less suppression comment
    kWallClock,      ///< GL001: wall-clock time source outside allowed blocks
    kAmbientRng,     ///< GL002: rand()/std::random_device outside util/rng
    kUnseededEngine, ///< GL003: default-constructed <random> engine
    kUnorderedIter,  ///< GL004: iteration over unordered container state
    kPointerKey,     ///< GL005: pointer-keyed ordered container
    kFloatAccum,     ///< GL006: float arithmetic/state (stats must be double)
    kPrivacyTaint,   ///< GL010: identity/position source reaches a wire sink
    kLayerDag,       ///< GL020: include edge climbs the layer DAG
    kHotAlloc,       ///< GL030: heap allocation inside a `geoanon: hot` path
    kAmbientEnv,     ///< GL007: environment variable read or write
    kUnsetField,     ///< GL040: settings-struct member no file assigns
};

inline constexpr Rule kAllRules[] = {
    Rule::kSuppression,    Rule::kWallClock,  Rule::kAmbientRng,
    Rule::kUnseededEngine, Rule::kUnorderedIter, Rule::kPointerKey,
    Rule::kFloatAccum,     Rule::kPrivacyTaint,  Rule::kLayerDag,
    Rule::kHotAlloc,       Rule::kAmbientEnv,    Rule::kUnsetField,
};

const char* rule_id(Rule r);    ///< "GL001"
const char* rule_name(Rule r);  ///< "wallclock" — the name suppressions use
const char* rule_summary(Rule r);
bool rule_from_name(const std::string& name, Rule& out);

struct Finding {
    Finding() = default;
    Finding(Rule r, std::string f, std::size_t l, std::string m)
        : rule(r), file(std::move(f)), line(l), message(std::move(m)) {}

    Rule rule{Rule::kSuppression};
    std::string file;
    std::size_t line{0};
    std::string message;
    // GL010 extras: the source→sink chain. Empty / zero for other rules.
    std::string taint_source;        ///< "<tag>:<symbol>" that introduced taint
    std::size_t taint_source_line{0};///< line where the taint entered this path
    std::string taint_sink;          ///< "<tag>:<symbol>" boundary it reached
    // GL020 extras: the offending layer edge. Empty for other rules.
    std::string layer_from;
    std::string layer_to;
};

/// One source file, content already loaded — the scanner never touches the
/// filesystem, so tests feed it strings directly.
struct FileInput {
    std::string path;
    std::string content;
};

/// Which rules a scan reports. An empty `enabled` set means all rules.
/// Filtering happens after suppression handling, so `--rules=` narrows the
/// report without changing what suppressions are legal.
struct ScanOptions {
    std::set<Rule> enabled;
    bool rule_enabled(Rule r) const { return enabled.empty() || enabled.count(r) > 0; }
};

/// Names declared in `content` with an unordered container type
/// (std::unordered_map / std::unordered_set, multimap/multiset variants).
std::set<std::string> unordered_decls(const std::string& content);

/// Scan one file. `extra_unordered` carries names declared unordered
/// elsewhere but iterated here (in practice: the sibling header of a .cpp).
/// The GL010 symbol index is built from this file alone; use scan_files for
/// cross-file annotation resolution.
std::vector<Finding> scan_file(const FileInput& in,
                               const std::set<std::string>& extra_unordered = {});

/// Scan a set of files, resolving each foo.cpp against a foo.hpp / foo.h
/// sibling in the same directory when present, and building the GL010 symbol
/// index (sources/sanitizers/sinks plus derived sources) across the whole
/// set. Findings are sorted by (file, line, rule) so output is stable
/// regardless of input order.
std::vector<Finding> scan_files(const std::vector<FileInput>& files);
/// `evidence` adds GL040 assignment evidence: its `.name =` sites count as
/// setting `name` (the CLI passes the whole tree, so a field set only by an
/// example or perfbench is not reported). Nothing in `evidence` is itself
/// reported on.
std::vector<Finding> scan_files(const std::vector<FileInput>& files,
                                const ScanOptions& opts,
                                const std::vector<FileInput>& evidence = {});

/// Graphviz DOT rendering of the layer-level include graph of the src/ files
/// in `files` (GL020's view). Violating edges are drawn red. Deterministic:
/// nodes and edges are emitted in sorted order.
std::string layer_dot(const std::vector<FileInput>& files);

std::string to_text(const std::vector<Finding>& findings);

/// JSON schema version of to_json output. History: 1 = {rule_id, rule, file,
/// line, message}; 2 adds top-level "schema_version" and the optional
/// per-finding taint_source / taint_source_line / taint_sink / layer_from /
/// layer_to fields.
inline constexpr std::uint64_t kJsonSchemaVersion = 2;

/// Stable schema: {"tool","schema_version","version","count","findings":
/// [{"rule_id","rule","file","line","message", optional taint/layer keys}]}.
std::string to_json(const std::vector<Finding>& findings);

/// Self-validation of to_json output (the `--check` flag): parses `json` with
/// a dependency-free parser and verifies the schema above, including
/// schema_version == kJsonSchemaVersion and count == findings.length. On
/// failure returns false and, when `error` is non-null, a one-line reason.
bool validate_findings_json(const std::string& json, std::string* error);

}  // namespace geoanon::lint
