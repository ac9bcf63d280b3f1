#pragma once

// Shared internals of geoanon_lint: the comment/string splitter, tokenizer,
// suppression parser, and the symbol-annotation index the semantic passes
// (GL010 privacy-taint, GL020 layer-dag, GL030 hot-alloc) are built on.
// Nothing here is part of the public lint API (lint.hpp); the split exists so
// taint.cpp / layers.cpp / hotpath.cpp can share one tokenizer without
// re-exporting it to callers.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"

namespace geoanon::lint::internal {

// ---------------------------------------------------------------------------
// Source splitting and tokenization (defined in lint.cpp)
// ---------------------------------------------------------------------------

/// Per input line: the code text (comments and literal contents blanked) and
/// the comment text (for suppression and annotation directives).
struct SourceLine {
    std::string code;
    std::string comment;
};

std::vector<SourceLine> split_source(const std::string& src);

struct Token {
    std::string text;
    std::size_t line{0};  // 1-based
    bool is_ident{false};
};

std::vector<Token> tokenize(const std::vector<SourceLine>& lines);

std::string trim(const std::string& s);

/// Index of the token closing the bracket opened at `open` (toks[open] must
/// be the opener). Returns toks.size() when unbalanced.
std::size_t match_bracket(const std::vector<Token>& toks, std::size_t open,
                          const char* opener, const char* closer);

/// Matches the `>` closing a template argument list opened at toks[open].
std::size_t match_angle(const std::vector<Token>& toks, std::size_t open);

// ---------------------------------------------------------------------------
// Suppressions (defined in lint.cpp)
// ---------------------------------------------------------------------------

struct Suppressions {
    // line -> rules allowed on that line and the next one
    std::map<std::size_t, std::set<Rule>> line_allow;
    // rule -> list of [begin, end] line ranges
    std::map<Rule, std::vector<std::pair<std::size_t, std::size_t>>> blocks;
    std::vector<Finding> errors;

    bool allowed(Rule r, std::size_t line) const;
};

Suppressions parse_suppressions(const std::string& path,
                                const std::vector<SourceLine>& lines);

// ---------------------------------------------------------------------------
// `// geoanon:` symbol annotations (defined in taint.cpp)
//
// Grammar (one directive per comment, bound to the declaration that starts on
// the same or a following line):
//   // geoanon: source(<tag>)     — value-producing privacy source
//   // geoanon: sanitizer(<tag>)  — sanctioned transform; its result is clean
//   // geoanon: sink(<tag>)       — wire/export boundary (function or field)
//   // geoanon: hot               — per-event hot path (GL030 applies inside)
// A comment starting `geoanon:` that does not parse is a GL000 finding, same
// contract as malformed suppressions.
// ---------------------------------------------------------------------------

enum class Role { kSource, kSanitizer, kSink, kHot };

struct Annotation {
    Role role{Role::kSource};
    std::string tag;       // "node-id", "wire", ... (empty for hot)
    std::string symbol;    // declared name the annotation bound to
    bool is_function{false};
    std::size_t line{0};   // line of the annotation comment
};

/// Parse the annotations of one file. Malformed directives are appended to
/// `errors` as GL000 findings.
std::vector<Annotation> parse_annotations(const std::string& path,
                                          const std::vector<SourceLine>& lines,
                                          const std::vector<Token>& toks,
                                          std::vector<Finding>& errors);

/// The cross-file symbol index GL010 runs against. Name-based: the lint is a
/// token-level tool, so two unrelated symbols sharing an annotated name share
/// the role (documented in DESIGN.md §13 as the accepted imprecision).
struct TaintIndex {
    std::map<std::string, Annotation> source_fns;    // tainted when called
    std::map<std::string, Annotation> source_fields; // tainted when read
    std::set<std::string> sanitizers;                // call spans are clean
    std::map<std::string, Annotation> sink_fns;      // tainted args = finding
    std::map<std::string, Annotation> sink_fields;   // tainted writes = finding
};

void index_annotations(const std::vector<Annotation>& anns, TaintIndex& idx);

// ---------------------------------------------------------------------------
// Function discovery (defined in taint.cpp)
// ---------------------------------------------------------------------------

struct FunctionBody {
    std::string name;
    std::size_t name_tok{0};  // token index of the name
    std::size_t open{0};      // token index of the body '{'
    std::size_t close{0};     // token index of the matching '}'
    std::size_t line{0};      // line of the name token
};

/// All function definitions (token spans of their bodies) in a file.
std::vector<FunctionBody> find_functions(const std::vector<Token>& toks);

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// GL010: intra-procedural source/sanitizer/sink dataflow over every function
/// body in the file, against the (possibly cross-file) index.
void check_taint(const std::string& path, const std::vector<Token>& toks,
                 const TaintIndex& idx, std::vector<Finding>& out);

/// Derived sources: a function whose `return` expression is tainted under the
/// current index becomes a source itself (tag "derived"). One fixpoint step;
/// returns true when the index grew.
bool add_derived_sources(const std::vector<Token>& toks, TaintIndex& idx);

/// GL030: allocation discipline inside `// geoanon: hot` functions.
void check_hotpath(const std::string& path, const std::vector<Token>& toks,
                   const std::vector<Annotation>& anns, std::vector<Finding>& out);

/// GL020: layer audit of one file's quoted includes (src/-relative paths).
void check_layers(const FileInput& in, std::vector<Finding>& out);

/// GL040 evidence: every member name assigned as `.name =` (plain or
/// designated initializer) or grown as `.name.push_back(` in `toks`.
void collect_field_assignments(const std::vector<Token>& toks, std::set<std::string>& out);

/// GL040: members with a default initializer in the src/ settings structs
/// (*Params, *Config, *Plan and their nested structs) that are not in
/// `assigned`.
void check_unset_fields(const std::string& path, const std::vector<Token>& toks,
                        const std::set<std::string>& assigned, std::vector<Finding>& out);

}  // namespace geoanon::lint::internal
