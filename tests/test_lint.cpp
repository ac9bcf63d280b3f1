// Self-test suite for tools/geoanon_lint: one positive and one negative
// fixture per rule, suppression-comment handling, JSON output schema, and
// CLI exit codes. Fixtures are in-memory strings fed straight to the
// scanner; only the exit-code tests shell out to the real binary.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint.hpp"

using geoanon::lint::FileInput;
using geoanon::lint::Finding;
using geoanon::lint::Rule;
using geoanon::lint::scan_file;
using geoanon::lint::scan_files;

namespace {

std::vector<Finding> scan(const std::string& path, const std::string& content) {
    return scan_file(FileInput{path, content});
}

bool has_rule(const std::vector<Finding>& fs, Rule r) {
    for (const Finding& f : fs)
        if (f.rule == r) return true;
    return false;
}

std::size_t count_rule(const std::vector<Finding>& fs, Rule r) {
    std::size_t n = 0;
    for (const Finding& f : fs)
        if (f.rule == r) ++n;
    return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// GL001 wallclock
// ---------------------------------------------------------------------------

TEST(LintWallClock, FlagsChronoClocks) {
    const auto fs = scan("src/x.cpp",
                         "void f() { auto t = std::chrono::steady_clock::now(); }\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::kWallClock);
    EXPECT_EQ(fs[0].line, 1u);
}

TEST(LintWallClock, SimTimeIsClean) {
    const auto fs = scan("src/x.cpp",
                         "SimTime t = sim.now(); auto s = t.to_seconds();\n");
    EXPECT_FALSE(has_rule(fs, Rule::kWallClock));
}

TEST(LintWallClock, CommentAndStringMentionsAreClean) {
    const auto fs = scan("src/x.cpp",
                         "// uses steady_clock? no.\n"
                         "const char* s = \"system_clock\";\n");
    EXPECT_FALSE(has_rule(fs, Rule::kWallClock));
}

// ---------------------------------------------------------------------------
// GL002 ambient-rng
// ---------------------------------------------------------------------------

TEST(LintAmbientRng, FlagsRandAndRandomDevice) {
    const auto fs = scan("src/x.cpp",
                         "int a = rand();\n"
                         "std::random_device rd;\n");
    EXPECT_EQ(count_rule(fs, Rule::kAmbientRng), 2u);
}

TEST(LintAmbientRng, UtilRngIsExemptAndMemberCallsClean) {
    EXPECT_TRUE(scan("src/util/rng.cpp", "int a = rand();\n").empty());
    // A project method named rand() on an object is not libc rand().
    const auto fs = scan("src/x.cpp", "auto v = gen.rand();\n");
    EXPECT_FALSE(has_rule(fs, Rule::kAmbientRng));
}

// ---------------------------------------------------------------------------
// GL007 ambient-env
// ---------------------------------------------------------------------------

TEST(LintAmbientEnv, FlagsEnvironmentReadsAndWrites) {
    const auto fs = scan("src/x.cpp",
                         "const char* a = std::getenv(\"A\");\n"
                         "const char* b = secure_getenv(\"B\");\n"
                         "::setenv(\"C\", \"1\", 1);\n"
                         "unsetenv(\"C\");\n");
    ASSERT_EQ(count_rule(fs, Rule::kAmbientEnv), 4u);
    EXPECT_EQ(fs[0].line, 1u);
    EXPECT_EQ(fs[3].line, 4u);
}

TEST(LintAmbientEnv, SameScopeAsWallClock) {
    // Like GL001, the rule covers every checked tree, not just src/.
    for (const char* path : {"src/phy/x.cpp", "tests/test_x.cpp", "bench/x.hpp", "tools/x.cpp"}) {
        EXPECT_TRUE(has_rule(scan(path, "auto v = std::getenv(\"X\");\n"), Rule::kAmbientEnv))
            << path;
    }
}

TEST(LintAmbientEnv, MentionsAndLongerIdentifiersAreClean) {
    const auto fs = scan("src/x.cpp",
                         "// no getenv here\n"
                         "const char* s = \"setenv\";\n"
                         "int getenv_calls = 0;\n");
    EXPECT_FALSE(has_rule(fs, Rule::kAmbientEnv));
}

TEST(LintAmbientEnv, SuppressionWithReasonApplies) {
    const auto fs = scan("bench/x.hpp",
                         "// geoanon-lint: allow(ambient-env) -- run-length knob\n"
                         "const char* s = std::getenv(\"GEOANON_SEEDS\");\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// GL003 unseeded-engine
// ---------------------------------------------------------------------------

TEST(LintUnseededEngine, FlagsDefaultConstructed) {
    EXPECT_TRUE(has_rule(scan("src/x.cpp", "std::mt19937 gen;\n"),
                         Rule::kUnseededEngine));
    EXPECT_TRUE(has_rule(scan("src/x.cpp", "std::mt19937 gen{};\n"),
                         Rule::kUnseededEngine));
    EXPECT_TRUE(has_rule(scan("src/x.cpp", "auto g = std::mt19937();\n"),
                         Rule::kUnseededEngine));
}

TEST(LintUnseededEngine, SeededIsClean) {
    const auto fs = scan("src/x.cpp", "std::mt19937 gen(seed);\n"
                                      "std::mt19937_64 g2{0x1234u};\n");
    EXPECT_FALSE(has_rule(fs, Rule::kUnseededEngine));
}

// ---------------------------------------------------------------------------
// GL004 unordered-iter
// ---------------------------------------------------------------------------

TEST(LintUnorderedIter, FlagsRangeForOverUnorderedMember) {
    const auto fs = scan("src/x.cpp",
                         "std::unordered_map<int, int> seen_;\n"
                         "void f() { for (const auto& [k, v] : seen_) emit(k); }\n");
    ASSERT_TRUE(has_rule(fs, Rule::kUnorderedIter));
}

TEST(LintUnorderedIter, FlagsIteratorWalk) {
    const auto fs = scan("src/x.cpp",
                         "std::unordered_set<int> ids_;\n"
                         "void f() { for (auto it = ids_.begin(); it != ids_.end(); ++it) {} }\n");
    EXPECT_TRUE(has_rule(fs, Rule::kUnorderedIter));
}

TEST(LintUnorderedIter, VectorIterationAndLookupsAreClean) {
    const auto fs = scan("src/x.cpp",
                         "std::unordered_map<int, int> seen_;\n"
                         "std::vector<int> v_;\n"
                         "void f() {\n"
                         "  for (int x : v_) use(x);\n"
                         "  auto it = seen_.find(3);\n"
                         "  seen_[4] = 5;\n"
                         "}\n");
    EXPECT_FALSE(has_rule(fs, Rule::kUnorderedIter));
}

TEST(LintUnorderedIter, SiblingHeaderDeclarationsCoverTheCpp) {
    // Member declared unordered in foo.hpp, iterated in foo.cpp: the
    // cross-file resolution in scan_files must connect the two.
    std::vector<FileInput> files;
    files.push_back({"src/a/foo.hpp",
                     "class C { std::unordered_map<int, int> table_; };\n"});
    files.push_back({"src/a/foo.cpp",
                     "void C::dump() { for (const auto& [k, v] : table_) emit(k); }\n"});
    const auto fs = scan_files(files);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::kUnorderedIter);
    EXPECT_EQ(fs[0].file, "src/a/foo.cpp");
}

// ---------------------------------------------------------------------------
// GL005 pointer-key
// ---------------------------------------------------------------------------

TEST(LintPointerKey, FlagsPointerKeyedOrderedContainers) {
    EXPECT_TRUE(has_rule(scan("src/x.cpp", "std::map<const Node*, int> m_;\n"),
                         Rule::kPointerKey));
    EXPECT_TRUE(has_rule(scan("src/x.cpp", "std::set<Event*> s_;\n"),
                         Rule::kPointerKey));
}

TEST(LintPointerKey, ValueKeysAndPointerValuesAreClean) {
    const auto fs = scan("src/x.cpp",
                         "std::map<std::string, Node*> by_name_;\n"
                         "std::set<std::uint64_t> ids_;\n");
    EXPECT_FALSE(has_rule(fs, Rule::kPointerKey));
}

// ---------------------------------------------------------------------------
// GL006 float-accum
// ---------------------------------------------------------------------------

TEST(LintFloatAccum, FlagsFloatUse) {
    const auto fs = scan("src/x.cpp", "float sum = 0.f;\n");
    EXPECT_TRUE(has_rule(fs, Rule::kFloatAccum));
}

TEST(LintFloatAccum, DoubleIsClean) {
    EXPECT_TRUE(scan("src/x.cpp", "double sum = 0.0; sum += x;\n").empty());
}

// ---------------------------------------------------------------------------
// GL010 privacy-taint
// ---------------------------------------------------------------------------

namespace {

/// Self-contained fixture prelude: one source, one sanitizer, one wire sink
/// field, one sink function — the shapes the real annotations declare in
/// node.hpp / engine.hpp / packet.hpp / codec.hpp.
const char* kTaintPrelude =
    "struct Pkt {\n"
    "  // geoanon: sink(wire)\n"
    "  std::uint64_t uid{0};\n"
    "  // geoanon: sink(wire)\n"
    "  std::vector<std::uint64_t> ack_uids;\n"
    "};\n"
    "// geoanon: source(node-id)\n"
    "std::uint64_t my_id();\n"
    "// geoanon: sanitizer(prp)\n"
    "std::uint64_t scramble(std::uint64_t v);\n"
    "// geoanon: sink(air)\n"
    "void transmit(std::uint64_t v);\n";

std::string taint_fixture(const std::string& body) {
    return std::string(kTaintPrelude) + body;
}

}  // namespace

TEST(LintPrivacyTaint, FlagsDirectSourceToSinkAssignment) {
    const auto fs = scan(
        "src/x.cpp",
        taint_fixture("void f(Pkt& p) { p.uid = my_id(); }\n"));
    ASSERT_EQ(count_rule(fs, Rule::kPrivacyTaint), 1u);
    for (const Finding& f : fs) {
        if (f.rule != Rule::kPrivacyTaint) continue;
        EXPECT_EQ(f.taint_source, "node-id:my_id");
        EXPECT_EQ(f.taint_sink, "wire:uid");
        EXPECT_GT(f.taint_source_line, 0u);
    }
}

TEST(LintPrivacyTaint, FlagsTaintThroughLocalVariable) {
    const auto fs = scan(
        "src/x.cpp",
        taint_fixture("void f(Pkt& p) {\n"
                      "  std::uint64_t v = my_id();\n"
                      "  p.uid = v;\n"
                      "}\n"));
    EXPECT_EQ(count_rule(fs, Rule::kPrivacyTaint), 1u);
}

TEST(LintPrivacyTaint, FlagsSinkFunctionCallAndContainerInsert) {
    const auto fs = scan(
        "src/x.cpp",
        taint_fixture("void f(Pkt& p) {\n"
                      "  transmit(my_id());\n"
                      "  p.ack_uids.push_back(my_id());\n"
                      "}\n"));
    EXPECT_EQ(count_rule(fs, Rule::kPrivacyTaint), 2u);
}

TEST(LintPrivacyTaint, SanitizerCallCleansTheFlow) {
    const auto fs = scan(
        "src/x.cpp",
        taint_fixture("void f(Pkt& p) {\n"
                      "  p.uid = scramble(my_id());\n"
                      "  std::uint64_t v = scramble(my_id());\n"
                      "  transmit(v);\n"
                      "}\n"));
    EXPECT_FALSE(has_rule(fs, Rule::kPrivacyTaint));
}

TEST(LintPrivacyTaint, ReassignmentKillsTaint) {
    const auto fs = scan(
        "src/x.cpp",
        taint_fixture("void f(Pkt& p) {\n"
                      "  std::uint64_t v = my_id();\n"
                      "  v = 7;\n"
                      "  p.uid = v;\n"
                      "}\n"));
    EXPECT_FALSE(has_rule(fs, Rule::kPrivacyTaint));
}

TEST(LintPrivacyTaint, HelperReturningTaintBecomesDerivedSource) {
    // The unfixed fresh_uid() shape: a helper that returns identity-derived
    // bits must propagate taint to its callers via the derived-source
    // fixpoint.
    const auto fs = scan(
        "src/x.cpp",
        taint_fixture("std::uint64_t fresh() { return (my_id() << 32) | 1; }\n"
                      "void f(Pkt& p) { p.uid = fresh(); }\n"));
    ASSERT_EQ(count_rule(fs, Rule::kPrivacyTaint), 1u);
    for (const Finding& f : fs) {
        if (f.rule == Rule::kPrivacyTaint) {
            EXPECT_EQ(f.taint_source, "derived:fresh");
        }
    }
}

TEST(LintPrivacyTaint, SanitizedHelperIsNotADerivedSource) {
    const auto fs = scan(
        "src/x.cpp",
        taint_fixture(
            "std::uint64_t fresh() { return scramble((my_id() << 32) | 1); }\n"
            "void f(Pkt& p) { p.uid = fresh(); }\n"));
    EXPECT_FALSE(has_rule(fs, Rule::kPrivacyTaint));
}

TEST(LintPrivacyTaint, CrossFileIndexConnectsAnnotationToUse) {
    // Annotations live in one file, the leak in another: scan_files must
    // build the symbol index across the whole set.
    std::vector<FileInput> files;
    files.push_back({"src/a/ids.hpp",
                     "// geoanon: source(node-id)\n"
                     "std::uint64_t my_id();\n"});
    files.push_back({"src/a/pkt.hpp",
                     "struct Pkt {\n"
                     "  // geoanon: sink(wire)\n"
                     "  std::uint64_t uid{0};\n"
                     "};\n"});
    files.push_back({"src/b/leak.cpp",
                     "void f(Pkt& p) { p.uid = my_id(); }\n"});
    const auto fs = scan_files(files);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::kPrivacyTaint);
    EXPECT_EQ(fs[0].file, "src/b/leak.cpp");
}

TEST(LintPrivacyTaint, SuppressionApplies) {
    const auto fs = scan(
        "src/x.cpp",
        taint_fixture("void f(Pkt& p) {\n"
                      "  // geoanon-lint: allow(privacy-taint) -- fixture reason\n"
                      "  p.uid = my_id();\n"
                      "}\n"));
    EXPECT_FALSE(has_rule(fs, Rule::kPrivacyTaint));
}

// ---------------------------------------------------------------------------
// Annotation grammar (feeds GL010/GL030; errors surface as GL000)
// ---------------------------------------------------------------------------

TEST(LintAnnotation, MalformedAnnotationsAreFindings) {
    // Empty tag.
    EXPECT_TRUE(has_rule(
        scan("src/x.cpp", "// geoanon: source()\nint my_id();\n"),
        Rule::kSuppression));
    // Unknown verb.
    EXPECT_TRUE(has_rule(
        scan("src/x.cpp", "// geoanon: frobnicate(x)\nint my_id();\n"),
        Rule::kSuppression));
}

TEST(LintAnnotation, NamespaceProseIsNotAnAnnotation) {
    // Comments mentioning the geoanon:: namespace must not parse as
    // annotations.
    const auto fs = scan(
        "src/x.cpp", "// geoanon::lint::scan_file drives this pass\nint x;\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// GL020 layer-dag
// ---------------------------------------------------------------------------

TEST(LintLayerDag, FlagsUpwardInclude) {
    const auto fs = scan("src/util/helper.cpp",
                         "#include \"core/agfw.hpp\"\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::kLayerDag);
    EXPECT_EQ(fs[0].layer_from, "util");
    EXPECT_EQ(fs[0].layer_to, "core");
    EXPECT_EQ(fs[0].line, 1u);
}

TEST(LintLayerDag, FlagsEqualRankSiblingInclude) {
    const auto fs = scan("src/crypto/engine.cpp",
                         "#include \"sim/simulator.hpp\"\n");
    EXPECT_TRUE(has_rule(fs, Rule::kLayerDag));
}

TEST(LintLayerDag, DownwardSameLayerAndSystemIncludesAreClean) {
    const auto fs = scan("src/core/agfw.cpp",
                         "#include <vector>\n"
                         "#include \"core/agfw.hpp\"\n"
                         "#include \"crypto/engine.hpp\"\n"
                         "#include \"util/rng.hpp\"\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintLayerDag, WireSublayerSitsBelowPhyAndMac) {
    // phy/mac may include the passive wire types (net/packet.hpp etc.)
    // even though the net *layer* ranks above them.
    EXPECT_TRUE(scan("src/phy/channel.cpp",
                     "#include \"net/packet.hpp\"\n"
                     "#include \"net/codec.hpp\"\n")
                    .empty());
    // But the active net layer (node.hpp) stays off-limits from below.
    EXPECT_TRUE(has_rule(scan("src/phy/channel.cpp",
                              "#include \"net/node.hpp\"\n"),
                         Rule::kLayerDag));
}

TEST(LintLayerDag, OnlySrcPathsAreChecked) {
    EXPECT_TRUE(scan("tests/test_x.cpp",
                     "#include \"core/agfw.hpp\"\n"
                     "#include \"util/rng.hpp\"\n")
                    .empty());
}

TEST(LintLayerDag, DotOutputMarksViolatingEdgesRed) {
    std::vector<FileInput> files;
    files.push_back({"src/util/bad.cpp", "#include \"core/agfw.hpp\"\n"});
    files.push_back({"src/core/fine.cpp", "#include \"util/rng.hpp\"\n"});
    const std::string dot = geoanon::lint::layer_dot(files);
    EXPECT_NE(dot.find("digraph geoanon_layers"), std::string::npos);
    EXPECT_NE(dot.find("\"util\" -> \"core\" [label=\"1\", color=red"),
              std::string::npos);
    EXPECT_NE(dot.find("\"core\" -> \"util\" [label=\"1\"]"),
              std::string::npos);
    // Deterministic: same inputs, same bytes.
    EXPECT_EQ(dot, geoanon::lint::layer_dot(files));
}

// ---------------------------------------------------------------------------
// GL030 hot-alloc
// ---------------------------------------------------------------------------

TEST(LintHotAlloc, FlagsAllocationsInHotFunctions) {
    const auto fs = scan("src/x.cpp",
                         "// geoanon: hot\n"
                         "void pump() {\n"
                         "  int* p = new int(3);\n"
                         "  auto q = std::make_shared<Pkt>();\n"
                         "  std::function<void()> cb;\n"
                         "}\n");
    EXPECT_EQ(count_rule(fs, Rule::kHotAlloc), 3u);
}

TEST(LintHotAlloc, FlagsUnreservedVectorAndLoopGrowth) {
    const auto fs = scan("src/x.cpp",
                         "// geoanon: hot\n"
                         "void pump() {\n"
                         "  std::vector<int> scratch;\n"
                         "  for (int i = 0; i < n; ++i) scratch.push_back(i);\n"
                         "}\n");
    EXPECT_EQ(count_rule(fs, Rule::kHotAlloc), 2u);
}

TEST(LintHotAlloc, ReserveSilencesBothDetectors) {
    const auto fs = scan("src/x.cpp",
                         "// geoanon: hot\n"
                         "void pump() {\n"
                         "  std::vector<int> scratch;\n"
                         "  scratch.reserve(n);\n"
                         "  for (int i = 0; i < n; ++i) scratch.push_back(i);\n"
                         "}\n");
    EXPECT_FALSE(has_rule(fs, Rule::kHotAlloc));
}

TEST(LintHotAlloc, ColdFunctionsAreNotChecked) {
    const auto fs = scan("src/x.cpp",
                         "void setup() {\n"
                         "  int* p = new int(3);\n"
                         "  std::vector<int> v;\n"
                         "}\n");
    EXPECT_FALSE(has_rule(fs, Rule::kHotAlloc));
}

TEST(LintHotAlloc, AnnotationBindsToQualifiedDefinition) {
    const auto fs = scan("src/x.cpp",
                         "// geoanon: hot\n"
                         "void Channel::start_tx(Radio* r, const Frame& f) {\n"
                         "  auto c = std::make_unique<int>(1);\n"
                         "}\n");
    EXPECT_EQ(count_rule(fs, Rule::kHotAlloc), 1u);
}

TEST(LintHotAlloc, SuppressionApplies) {
    const auto fs = scan(
        "src/x.cpp",
        "// geoanon: hot\n"
        "void pump() {\n"
        "  // geoanon-lint: allow(hot-alloc) -- fixture reason\n"
        "  auto q = std::make_shared<Pkt>();\n"
        "}\n");
    EXPECT_FALSE(has_rule(fs, Rule::kHotAlloc));
}

// ---------------------------------------------------------------------------
// GL040 unset-field
// ---------------------------------------------------------------------------

namespace {

std::vector<Finding> unset_fields(const std::vector<FileInput>& files,
                                  const std::vector<FileInput>& evidence = {}) {
    geoanon::lint::ScanOptions opts;
    opts.enabled = {Rule::kUnsetField};
    return scan_files(files, opts, evidence);
}

}  // namespace

TEST(LintUnsetField, FlagsDefaultedMemberNoFileAssigns) {
    const auto fs = unset_fields({
        {"src/mac/mac.hpp",
         "struct MacParams {\n"
         "  int cw_min{31};\n"
         "  bool use_rtscts{true};\n"
         "  int queue_limit = 50;\n"
         "};\n"},
        {"tests/t.cpp", "void f(MacParams& p) { p.use_rtscts = false; }\n"},
    });
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].line, 2u);
    EXPECT_NE(fs[0].message.find("MacParams::cw_min"), std::string::npos);
    EXPECT_EQ(fs[1].line, 4u);
}

TEST(LintUnsetField, DesignatedInitializersAndPushBackCount) {
    const auto fs = unset_fields({
        {"src/a.hpp",
         "struct RetryParams {\n"
         "  double jitter{0.0};\n"
         "  std::vector<int> zones{};\n"
         "};\n"},
        {"src/a.cpp",
         "RetryParams p{.jitter = 0.25};\n"
         "void g() { cfg.policy.zones.push_back(3); }\n"},
    });
    EXPECT_TRUE(fs.empty());
}

TEST(LintUnsetField, ComparisonsAndCompoundAssignmentsAreNotEvidence) {
    const auto fs = unset_fields({
        {"src/a.hpp", "struct FooConfig {\n  int n{1};\n  int m{2};\n};\n"},
        {"src/a.cpp", "bool f(const FooConfig& c) { return c.n == 1; }\nvoid g(FooConfig& c) { c.m += 1; }\n"},
    });
    EXPECT_EQ(count_rule(fs, Rule::kUnsetField), 2u);
}

TEST(LintUnsetField, NestedStructsAreCheckedUnderTheirQualifiedName) {
    const auto fs = unset_fields({
        {"src/core/agent.hpp",
         "class Agent {\n"
         " public:\n"
         "  struct Params {\n"
         "    int ttl{5};\n"
         "    enum class Kind { kA, kB };\n"
         "    Kind kind{Kind::kA};\n"
         "  };\n"
         "};\n"
         "struct FaultPlan {\n"
         "  struct Noise {\n"
         "    double sigma{1.0};\n"
         "  };\n"
         "  std::optional<Noise> noise;\n"
         "};\n"},
        {"tests/t.cpp", "void f() { p.kind = Agent::Params::Kind::kB; }\n"},
    });
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_NE(fs[0].message.find("'Agent::Params::ttl'"), std::string::npos);
    EXPECT_NE(fs[1].message.find("'FaultPlan::Noise::sigma'"), std::string::npos);
}

TEST(LintUnsetField, SettingsTypedMembersFunctionsAndStaticsAreNotFields) {
    const auto fs = unset_fields({
        {"src/w/scenario.hpp",
         "struct PhyParams {\n"
         "  double range_m{250.0};\n"
         "  SimTime airtime(std::size_t bytes) const { return SimTime{bytes}; }\n"
         "  static constexpr int kMax = 3;\n"
         "};\n"
         "struct ScenarioConfig {\n"
         "  phy::PhyParams phy{};\n"
         "  Agent::Params agent{};\n"
         "};\n"},
        {"tests/t.cpp", "void f() { cfg.phy.range_m = 200.0; }\n"},
    });
    EXPECT_TRUE(fs.empty());
}

TEST(LintUnsetField, OnlySrcStructsAreReportedAndEvidenceIsNot) {
    const std::string decl = "struct BenchConfig {\n  int reps{3};\n};\n";
    EXPECT_TRUE(unset_fields({{"bench/b.hpp", decl}}).empty());
    EXPECT_EQ(unset_fields({{"src/b.hpp", decl}}).size(), 1u);
    // Assignments in evidence files count; the evidence itself is never
    // reported on, even when it declares an unset member.
    EXPECT_TRUE(unset_fields({{"src/b.hpp", decl}},
                             {{"examples/e.cpp", "void f(BenchConfig& c) { c.reps = 5; }\n"},
                              {"src/other.hpp", "struct XParams {\n  int y{1};\n};\n"}})
                    .empty());
}

TEST(LintUnsetField, SuppressionApplies) {
    const auto fs = unset_fields({
        {"src/a.hpp",
         "struct FooParams {\n"
         "  // geoanon-lint: allow(unset-field) -- fixture reason\n"
         "  int n{1};\n"
         "};\n"},
    });
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// Suppressions (GL000 + application)
// ---------------------------------------------------------------------------

TEST(LintSuppression, SameLineAllowSuppresses) {
    const auto fs = scan(
        "src/x.cpp",
        "float q; // geoanon-lint: allow(float-accum) -- fixture reason\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintSuppression, PreviousLineAllowSuppresses) {
    const auto fs = scan(
        "src/x.cpp",
        "// geoanon-lint: allow(float-accum) -- fixture reason\n"
        "float q;\n");
    EXPECT_TRUE(fs.empty());
}

TEST(LintSuppression, AllowDoesNotReachTwoLinesDown) {
    const auto fs = scan(
        "src/x.cpp",
        "// geoanon-lint: allow(float-accum) -- fixture reason\n"
        "int ok;\n"
        "float q;\n");
    EXPECT_EQ(count_rule(fs, Rule::kFloatAccum), 1u);
}

TEST(LintSuppression, AllowOnlyCoversNamedRule) {
    const auto fs = scan(
        "src/x.cpp",
        "float q = rand(); // geoanon-lint: allow(float-accum) -- fixture reason\n");
    EXPECT_FALSE(has_rule(fs, Rule::kFloatAccum));
    EXPECT_TRUE(has_rule(fs, Rule::kAmbientRng));
}

TEST(LintSuppression, BlockAllowCoversRangeOnly) {
    const auto fs = scan(
        "src/x.cpp",
        "// geoanon-lint: begin-allow(wallclock) -- fixture timing block\n"
        "auto t0 = std::chrono::steady_clock::now();\n"
        "auto t1 = std::chrono::steady_clock::now();\n"
        "// geoanon-lint: end-allow(wallclock)\n"
        "auto t2 = std::chrono::steady_clock::now();\n");
    EXPECT_EQ(count_rule(fs, Rule::kWallClock), 1u);
    EXPECT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].line, 5u);
}

TEST(LintSuppression, ReasonIsMandatory) {
    const auto fs =
        scan("src/x.cpp", "float q; // geoanon-lint: allow(float-accum)\n");
    // The reason-less directive does not suppress, and is itself a finding.
    EXPECT_TRUE(has_rule(fs, Rule::kFloatAccum));
    EXPECT_TRUE(has_rule(fs, Rule::kSuppression));
}

TEST(LintSuppression, UnknownRuleAndUnclosedBlockAreFindings) {
    EXPECT_TRUE(has_rule(
        scan("src/x.cpp", "// geoanon-lint: allow(no-such-rule) -- why\n"),
        Rule::kSuppression));
    EXPECT_TRUE(has_rule(
        scan("src/x.cpp", "// geoanon-lint: begin-allow(wallclock) -- why\n"),
        Rule::kSuppression));
    EXPECT_TRUE(has_rule(
        scan("src/x.cpp", "// geoanon-lint: end-allow(wallclock)\n"),
        Rule::kSuppression));
}

// ---------------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------------

TEST(LintOutput, TextFormat) {
    const auto fs = scan("src/x.cpp", "float q;\n");
    const std::string text = geoanon::lint::to_text(fs);
    EXPECT_NE(text.find("src/x.cpp:1: [GL006/float-accum]"), std::string::npos);
    EXPECT_NE(text.find("1 finding(s)"), std::string::npos);
}

TEST(LintOutput, JsonSchema) {
    const auto fs = scan("src/x.cpp", "float q;\n");
    const std::string json = geoanon::lint::to_json(fs);
    EXPECT_NE(json.find("\"tool\":\"geoanon_lint\""), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
    EXPECT_NE(json.find("\"version\":2"), std::string::npos);
    EXPECT_NE(json.find("\"count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"rule_id\":\"GL006\""), std::string::npos);
    EXPECT_NE(json.find("\"rule\":\"float-accum\""), std::string::npos);
    EXPECT_NE(json.find("\"file\":\"src/x.cpp\""), std::string::npos);
    EXPECT_NE(json.find("\"line\":1"), std::string::npos);
    EXPECT_NE(json.find("\"message\":"), std::string::npos);
    // A plain determinism finding carries no taint/layer keys.
    EXPECT_EQ(json.find("\"taint_source\""), std::string::npos);
    EXPECT_EQ(json.find("\"layer_from\""), std::string::npos);
}

TEST(LintOutput, JsonCarriesTaintAndLayerFields) {
    const auto taint = scan(
        "src/x.cpp",
        taint_fixture("void f(Pkt& p) { p.uid = my_id(); }\n"));
    const std::string tj = geoanon::lint::to_json(taint);
    EXPECT_NE(tj.find("\"taint_source\":\"node-id:my_id\""), std::string::npos);
    EXPECT_NE(tj.find("\"taint_sink\":\"wire:uid\""), std::string::npos);
    EXPECT_NE(tj.find("\"taint_source_line\":"), std::string::npos);

    const auto layer =
        scan("src/util/helper.cpp", "#include \"core/agfw.hpp\"\n");
    const std::string lj = geoanon::lint::to_json(layer);
    EXPECT_NE(lj.find("\"layer_from\":\"util\""), std::string::npos);
    EXPECT_NE(lj.find("\"layer_to\":\"core\""), std::string::npos);
}

TEST(LintOutput, SelfValidationAcceptsOwnJson) {
    std::string error;
    // Empty report.
    EXPECT_TRUE(geoanon::lint::validate_findings_json(
        geoanon::lint::to_json({}), &error))
        << error;
    // One finding of every new shape.
    std::vector<FileInput> files;
    files.push_back({"src/util/helper.cpp", "#include \"core/agfw.hpp\"\n"});
    files.push_back({"src/x.cpp",
                     taint_fixture("void f(Pkt& p) { p.uid = my_id(); }\n")});
    EXPECT_TRUE(geoanon::lint::validate_findings_json(
        geoanon::lint::to_json(scan_files(files)), &error))
        << error;
}

TEST(LintOutput, SelfValidationRejectsSchemaDrift) {
    std::string error;
    EXPECT_FALSE(geoanon::lint::validate_findings_json("not json", &error));
    EXPECT_FALSE(geoanon::lint::validate_findings_json(
        "{\"tool\":\"geoanon_lint\",\"schema_version\":1,\"version\":1,"
        "\"count\":0,\"findings\":[]}",
        &error));
    EXPECT_NE(error.find("schema_version"), std::string::npos);
    // count must match findings length.
    EXPECT_FALSE(geoanon::lint::validate_findings_json(
        "{\"tool\":\"geoanon_lint\",\"schema_version\":2,\"version\":2,"
        "\"count\":1,\"findings\":[]}",
        &error));
    // Unknown per-finding keys are drift, not decoration.
    EXPECT_FALSE(geoanon::lint::validate_findings_json(
        "{\"tool\":\"geoanon_lint\",\"schema_version\":2,\"version\":2,"
        "\"count\":1,\"findings\":[{\"rule_id\":\"GL006\",\"rule\":"
        "\"float-accum\",\"file\":\"a\",\"line\":1,\"message\":\"m\","
        "\"surprise\":true}]}",
        &error));
    // A repeated key is ambiguous: which value did the reader keep?
    EXPECT_FALSE(geoanon::lint::validate_findings_json(
        "{\"tool\":\"geoanon_lint\",\"schema_version\":2,\"version\":2,"
        "\"count\":0,\"count\":0,\"findings\":[]}",
        &error));
    EXPECT_NE(error.find("duplicate key"), std::string::npos) << error;
    // Bytes after the document mean the output was cut or spliced.
    const std::string valid = geoanon::lint::to_json({});
    ASSERT_TRUE(geoanon::lint::validate_findings_json(valid, &error)) << error;
    EXPECT_FALSE(geoanon::lint::validate_findings_json(valid + "{}", &error));
    EXPECT_NE(error.find("trailing garbage"), std::string::npos) << error;
}

TEST(LintOutput, ScanOptionsFilterRules) {
    std::vector<FileInput> files;
    files.push_back({"src/util/helper.cpp",
                     "#include \"core/agfw.hpp\"\n"
                     "float q;\n"});
    geoanon::lint::ScanOptions only_layers;
    only_layers.enabled.insert(Rule::kLayerDag);
    const auto fs = scan_files(files, only_layers);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, Rule::kLayerDag);
    // Empty set means every rule.
    EXPECT_EQ(scan_files(files, geoanon::lint::ScanOptions{}).size(), 2u);
}

TEST(LintOutput, FindingsAreSortedByFileLineRule) {
    std::vector<FileInput> files;
    files.push_back({"src/b.cpp", "float x;\n"});
    files.push_back({"src/a.cpp", "int i;\nfloat y;\nfloat z;\n"});
    const auto fs = scan_files(files);
    ASSERT_EQ(fs.size(), 3u);
    EXPECT_EQ(fs[0].file, "src/a.cpp");
    EXPECT_EQ(fs[0].line, 2u);
    EXPECT_EQ(fs[1].file, "src/a.cpp");
    EXPECT_EQ(fs[1].line, 3u);
    EXPECT_EQ(fs[2].file, "src/b.cpp");
}

TEST(LintOutput, RuleIdsAreStable) {
    using geoanon::lint::rule_id;
    using geoanon::lint::rule_name;
    EXPECT_STREQ(rule_id(Rule::kSuppression), "GL000");
    EXPECT_STREQ(rule_id(Rule::kWallClock), "GL001");
    EXPECT_STREQ(rule_id(Rule::kAmbientRng), "GL002");
    EXPECT_STREQ(rule_id(Rule::kUnseededEngine), "GL003");
    EXPECT_STREQ(rule_id(Rule::kUnorderedIter), "GL004");
    EXPECT_STREQ(rule_id(Rule::kPointerKey), "GL005");
    EXPECT_STREQ(rule_id(Rule::kFloatAccum), "GL006");
    EXPECT_STREQ(rule_id(Rule::kAmbientEnv), "GL007");
    EXPECT_STREQ(rule_name(Rule::kAmbientEnv), "ambient-env");
    EXPECT_STREQ(rule_id(Rule::kPrivacyTaint), "GL010");
    EXPECT_STREQ(rule_id(Rule::kLayerDag), "GL020");
    EXPECT_STREQ(rule_id(Rule::kHotAlloc), "GL030");
    EXPECT_STREQ(rule_name(Rule::kPrivacyTaint), "privacy-taint");
    EXPECT_STREQ(rule_name(Rule::kLayerDag), "layer-dag");
    EXPECT_STREQ(rule_name(Rule::kHotAlloc), "hot-alloc");
    EXPECT_STREQ(rule_id(Rule::kUnsetField), "GL040");
    EXPECT_STREQ(rule_name(Rule::kUnsetField), "unset-field");
    Rule r;
    ASSERT_TRUE(geoanon::lint::rule_from_name("unordered-iter", r));
    EXPECT_EQ(r, Rule::kUnorderedIter);
    ASSERT_TRUE(geoanon::lint::rule_from_name("GL004", r));
    EXPECT_EQ(r, Rule::kUnorderedIter);
    EXPECT_FALSE(geoanon::lint::rule_from_name("nope", r));
    EXPECT_STREQ(rule_name(Rule::kWallClock), "wallclock");
}

// ---------------------------------------------------------------------------
// CLI exit codes (drives the real binary on temp fixture trees)
// ---------------------------------------------------------------------------

#ifdef GEOANON_LINT_BIN
namespace {

int run_lint(const std::string& args) {
    const int rc = std::system((std::string(GEOANON_LINT_BIN) + " " + args +
                                " > /dev/null 2>&1")
                                   .c_str());
    return WEXITSTATUS(rc);
}

}  // namespace

TEST(LintCli, ExitCodes) {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "geoanon_lint_cli_fixture";
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
        std::ofstream clean(dir / "clean.cpp");
        clean << "double ok = 0.0;\n";
    }
    EXPECT_EQ(run_lint("--root=" + dir.string() + " clean.cpp"), 0);
    {
        std::ofstream dirty(dir / "dirty.cpp");
        dirty << "float bad;\n";
    }
    EXPECT_EQ(run_lint("--root=" + dir.string() + " dirty.cpp"), 1);
    EXPECT_EQ(run_lint("--root=" + dir.string() + " no_such_file.cpp"), 2);
    EXPECT_EQ(run_lint("--no-such-flag"), 2);
    fs::remove_all(dir);
}

TEST(LintCli, RulesFlagFiltersAndRejectsUnknownNames) {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "geoanon_lint_rules_fixture";
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
        std::ofstream f(dir / "dirty.cpp");
        f << "float bad;\n";
    }
    // The only finding is GL006; narrowing to another rule reports clean.
    EXPECT_EQ(run_lint("--root=" + dir.string() + " --rules=float-accum dirty.cpp"), 1);
    EXPECT_EQ(run_lint("--root=" + dir.string() + " --rules=privacy-taint dirty.cpp"), 0);
    EXPECT_EQ(run_lint("--rules=no-such-rule"), 2);
    fs::remove_all(dir);
}

TEST(LintCli, DotFlagWritesLayerGraph) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "geoanon_lint_dot_fixture";
    fs::remove_all(dir);
    fs::create_directories(dir / "src" / "util");
    {
        std::ofstream f(dir / "src" / "util" / "a.cpp");
        f << "#include \"util/rng.hpp\"\nint x;\n";
    }
    const fs::path dot = dir / "layers.dot";
    EXPECT_EQ(run_lint("--root=" + dir.string() + " --dot=" + dot.string() + " src"), 0);
    std::ifstream in(dot);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("digraph geoanon_layers"), std::string::npos);
    fs::remove_all(dir);
}

TEST(LintCli, CheckFlagValidatesJsonOutput) {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "geoanon_lint_check_fixture";
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
        std::ofstream f(dir / "clean.cpp");
        f << "double ok = 0.0;\n";
    }
    EXPECT_EQ(run_lint("--root=" + dir.string() + " --check clean.cpp"), 0);
    {
        std::ofstream f(dir / "dirty.cpp");
        f << "float bad;\n";
    }
    // Findings still exit 1 (validation passed; the findings decide).
    EXPECT_EQ(run_lint("--root=" + dir.string() + " --check dirty.cpp"), 1);
    fs::remove_all(dir);
}

TEST(LintCli, CanaryFixturesStillFire) {
    // The CI canaries: a deliberate GL010 leak, a deliberate GL020 upward
    // include and a deliberate GL040 unset member must keep failing,
    // proving the passes can't silently rot.
    const std::string repo = std::filesystem::path(GEOANON_LINT_SRC).string();
    EXPECT_EQ(run_lint("--root=" + repo +
                       " tools/lint/testdata/gl010_canary.cpp.in"),
              1);
    EXPECT_EQ(run_lint("--root=" + repo +
                       " tools/lint/testdata/gl010_adversary_canary.cpp.in"),
              1);
    EXPECT_EQ(run_lint("--root=" + repo + "/tools/lint/testdata/layers"
                       " --rules=layer-dag src"),
              1);
    EXPECT_EQ(run_lint("--root=" + repo + "/tools/lint/testdata/unset_field"
                       " --rules=unset-field src"),
              1);
}

TEST(LintCli, UnsetFieldReadsEvidenceFromTheWholeTree) {
    // A field assigned only under examples/ is set, even when the scan
    // covers src/ alone.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "geoanon_lint_unset_fixture";
    fs::remove_all(dir);
    fs::create_directories(dir / "src");
    fs::create_directories(dir / "examples");
    {
        std::ofstream f(dir / "src" / "params.hpp");
        f << "struct DemoParams {\n  int knob{1};\n};\n";
    }
    EXPECT_EQ(run_lint("--root=" + dir.string() + " --rules=unset-field src"), 1);
    {
        std::ofstream f(dir / "examples" / "demo.cpp");
        f << "void f(DemoParams& p) { p.knob = 2; }\n";
    }
    EXPECT_EQ(run_lint("--root=" + dir.string() + " --rules=unset-field src"), 0);
    fs::remove_all(dir);
}
#endif  // GEOANON_LINT_BIN
