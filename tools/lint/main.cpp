// geoanon_lint — project-specific determinism, privacy, and layering lint.
//
// Usage:
//   geoanon_lint [--json] [--check] [--rules=a,b,...] [--dot=FILE]
//                [--root=DIR] [path...]
//
// Paths (files or directories, default: src tests bench tools) are resolved
// relative to --root (default: cwd). Directories are walked recursively for
// .cpp/.hpp/.h sources. Exit 0 = clean, 1 = findings, 2 = usage/IO error.
// GL040 (unset-field) also reads assignments from src, tests, bench, tools,
// examples and perfbench under --root, whichever exist.
//
// --rules=  comma-separated rule names (e.g. privacy-taint,layer-dag) limits
//           the report to those rules; default is all rules.
// --dot=F   additionally write the GL020 layer-level include graph of the
//           scanned src/ files to F as Graphviz DOT.
// --check   after emitting --json output, re-parse it and validate the
//           schema; exit 2 with a diagnostic on mismatch. Implies --json.
//
// The rules, their IDs, and the suppression syntax are documented in
// DESIGN.md §12 (determinism) and §13 (taint / layers / hot paths).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;
using geoanon::lint::FileInput;

namespace {

bool is_source(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

bool load(const fs::path& root, const fs::path& file, std::vector<FileInput>& out) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "geoanon_lint: cannot read %s\n", file.c_str());
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    // Report paths relative to the root so output and suppressions are
    // machine-independent.
    std::error_code ec;
    fs::path rel = fs::relative(file, root, ec);
    out.push_back({ec ? file.generic_string() : rel.generic_string(), ss.str()});
    return true;
}

/// Load `p` (a file, or a directory walked recursively for sources, in
/// sorted order) into `out`. Returns false, with a diagnostic, on a missing
/// path or an unreadable file.
bool load_path(const fs::path& root, const std::string& p, std::vector<FileInput>& out) {
    const fs::path abs = fs::path(p).is_absolute() ? fs::path(p) : root / p;
    std::error_code ec;
    if (fs::is_directory(abs, ec)) {
        std::vector<fs::path> found;
        for (const auto& ent : fs::recursive_directory_iterator(abs, ec)) {
            if (ent.is_regular_file() && is_source(ent.path())) found.push_back(ent.path());
        }
        std::sort(found.begin(), found.end());
        for (const fs::path& f : found)
            if (!load(root, f, out)) return false;
        return true;
    }
    if (fs::is_regular_file(abs, ec)) return load(root, abs, out);
    std::fprintf(stderr, "geoanon_lint: no such file or directory: %s\n", abs.c_str());
    return false;
}

bool parse_rules(const std::string& spec, geoanon::lint::ScanOptions& opts) {
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) comma = spec.size();
        const std::string name = spec.substr(pos, comma - pos);
        if (!name.empty()) {
            geoanon::lint::Rule r;
            if (!geoanon::lint::rule_from_name(name, r)) {
                std::fprintf(stderr, "geoanon_lint: unknown rule '%s'\n",
                             name.c_str());
                return false;
            }
            opts.enabled.insert(r);
        }
        pos = comma + 1;
    }
    if (opts.enabled.empty()) {
        std::fprintf(stderr, "geoanon_lint: --rules= names no rules\n");
        return false;
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    bool json = false;
    bool check = false;
    fs::path root = fs::current_path();
    std::string dot_file;
    geoanon::lint::ScanOptions opts;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--check") {
            check = json = true;
        } else if (arg.rfind("--root=", 0) == 0) {
            root = arg.substr(7);
        } else if (arg.rfind("--rules=", 0) == 0) {
            if (!parse_rules(arg.substr(8), opts)) return 2;
        } else if (arg.rfind("--dot=", 0) == 0) {
            dot_file = arg.substr(6);
            if (dot_file.empty()) {
                std::fprintf(stderr, "geoanon_lint: --dot= needs a file\n");
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: geoanon_lint [--json] [--check] [--rules=a,b,...]\n"
                "                    [--dot=FILE] [--root=DIR] [path...]\n");
            return 0;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "geoanon_lint: unknown option %s\n", arg.c_str());
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) paths = {"src", "tests", "bench", "tools"};

    std::vector<FileInput> files;
    for (const std::string& p : paths)
        if (!load_path(root, p, files)) return 2;

    // GL040 looks for assignments in the whole tree, whatever the scanned
    // paths are: a field set only by an example or perfbench is still set.
    std::vector<FileInput> evidence;
    if (opts.rule_enabled(geoanon::lint::Rule::kUnsetField)) {
        for (const char* dir : {"src", "tests", "bench", "tools", "examples", "perfbench"}) {
            std::error_code ec;
            if (fs::is_directory(root / dir, ec) && !load_path(root, dir, evidence)) return 2;
        }
    }

    if (!dot_file.empty()) {
        std::ofstream out(dot_file, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "geoanon_lint: cannot write %s\n",
                         dot_file.c_str());
            return 2;
        }
        out << geoanon::lint::layer_dot(files);
    }

    const std::vector<geoanon::lint::Finding> findings =
        geoanon::lint::scan_files(files, opts, evidence);
    const std::string out = json ? geoanon::lint::to_json(findings)
                                 : geoanon::lint::to_text(findings);
    if (check) {
        std::string err;
        if (!geoanon::lint::validate_findings_json(out, &err)) {
            std::fprintf(stderr, "geoanon_lint: --check failed: %s\n",
                         err.c_str());
            return 2;
        }
    }
    std::fputs(out.c_str(), stdout);
    if (json) std::fputc('\n', stdout);
    return findings.empty() ? 0 : 1;
}
