// Fuzz harness for the packet codec (src/net/codec.cpp) — the one component
// that parses untrusted bytes.
//
// Two build modes share the same property checks:
//
//  - libFuzzer (clang only): configure with -DGEOANON_LIBFUZZER=ON; the
//    harness exports LLVMFuzzerTestOneInput and libFuzzer drives it.
//        ./build/fuzz/fuzz_codec fuzz/corpus_bin/
//  - standalone replayer (default, any compiler): a main() that replays the
//    checked-in hex corpus (fuzz/corpus/*.hex) or any files/directories given
//    on the command line, applying the same properties deterministically.
//    This is what CI and tests/test_codec_fuzz_regressions.cpp exercise, so
//    the corpus is covered even without libFuzzer.
//
// Properties enforced per input:
//  P1  decode_ex never crashes or over-reads (sanitizers catch violations);
//  P2  error and packet agree: packet engaged iff error == kOk;
//  P3  a decoded packet re-encodes, and the re-encoding decodes cleanly;
//  P4  re-encoding is a fixed point: encode(decode(encode(p))) == encode(p).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "net/codec.hpp"
#include "util/bytes.hpp"

namespace {

using geoanon::net::codec::decode_ex;
using geoanon::net::codec::DecodeError;
using geoanon::net::codec::encode;

/// Returns nullptr if all properties hold, else a description of the failure.
const char* check_one(std::span<const std::uint8_t> wire) {
    const auto result = decode_ex(wire);
    if (result.packet.has_value() != (result.error == DecodeError::kOk))
        return "P2: packet presence disagrees with error code";
    if (!result.packet) return nullptr;  // clean rejection

    const auto once = encode(*result.packet);
    const auto again = decode_ex(once);
    if (!again.packet) return "P3: re-encoded packet fails to decode";
    const auto twice = encode(*again.packet);
    if (twice != once) return "P4: re-encoding is not a fixed point";
    return nullptr;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    if (const char* err = check_one({data, size})) {
        std::fprintf(stderr, "property violated: %s\n", err);
        std::abort();
    }
    return 0;
}

#ifndef GEOANON_LIBFUZZER

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace {

/// Loads a corpus file: .hex files hold one hex string (whitespace ignored),
/// anything else is treated as raw bytes.
std::vector<std::uint8_t> load_input(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    if (path.extension() == ".hex") {
        std::string hex;
        for (char c : content)
            if (!std::isspace(static_cast<unsigned char>(c))) hex.push_back(c);
        if (auto bytes = geoanon::util::from_hex(hex)) return *bytes;
        std::fprintf(stderr, "%s: invalid hex corpus file\n", path.c_str());
        std::exit(2);
    }
    return {content.begin(), content.end()};
}

int replay_file(const std::filesystem::path& path, int& count) {
    const auto input = load_input(path);
    ++count;
    const auto result = decode_ex(input);
    if (const char* err = check_one(input)) {
        std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(), err);
        return 1;
    }
    std::printf("ok   %-40s %4zu bytes -> %s\n", path.filename().c_str(),
                input.size(), geoanon::net::codec::decode_error_name(result.error));
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    namespace fs = std::filesystem;
    std::vector<fs::path> roots;
    for (int i = 1; i < argc; ++i) roots.emplace_back(argv[i]);
    if (roots.empty()) roots.emplace_back(GEOANON_CORPUS_DIR);

    int failures = 0;
    int count = 0;
    for (const auto& root : roots) {
        if (fs::is_directory(root)) {
            std::vector<fs::path> files;
            for (const auto& entry : fs::directory_iterator(root))
                if (entry.is_regular_file()) files.push_back(entry.path());
            std::sort(files.begin(), files.end());
            for (const auto& f : files) failures += replay_file(f, count);
        } else if (fs::exists(root)) {
            failures += replay_file(root, count);
        } else {
            std::fprintf(stderr, "no such corpus input: %s\n", root.c_str());
            return 2;
        }
    }
    std::printf("%d corpus inputs, %d failures\n", count, failures);
    return failures == 0 ? 0 : 1;
}

#endif  // GEOANON_LIBFUZZER
