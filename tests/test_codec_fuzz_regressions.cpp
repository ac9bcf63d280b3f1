// Deterministic replay of the checked-in fuzz corpus (fuzz/corpus/*.hex)
// plus directed malformed-input cases, so CI exercises the codec's
// untrusted-input handling without libFuzzer. Mirrors the properties in
// fuzz/fuzz_codec.cpp: decode never crashes, rejections are classified, and
// accepted packets re-encode to a fixed point.

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace geoanon;
using net::Packet;
using net::PacketType;
using net::codec::decode_ex;
using net::codec::DecodeError;
using net::codec::encode;
using util::Bytes;
using util::SimTime;
using util::Vec2;

std::filesystem::path corpus_dir() { return GEOANON_CORPUS_DIR; }

Bytes load_hex_file(const std::filesystem::path& path) {
    std::ifstream in(path);
    std::string hex;
    std::string line;
    while (std::getline(in, line))
        for (char c : line)
            if (!std::isspace(static_cast<unsigned char>(c))) hex.push_back(c);
    auto bytes = util::from_hex(hex);
    EXPECT_TRUE(bytes.has_value()) << path << ": corpus file is not valid hex";
    return bytes.value_or(Bytes{});
}

/// The shared property set. Returns the decode error for further assertions.
DecodeError check_properties(const Bytes& wire) {
    const auto result = decode_ex(wire);
    EXPECT_EQ(result.packet.has_value(), result.error == DecodeError::kOk);
    if (result.packet) {
        const auto once = encode(*result.packet);
        const auto again = decode_ex(once);
        EXPECT_TRUE(again.packet.has_value())
            << "re-encoded packet must decode (error: "
            << net::codec::decode_error_name(again.error) << ")";
        if (again.packet) {
            EXPECT_EQ(encode(*again.packet), once);
        }
    }
    return result.error;
}

Packet sample_data_packet() {
    Packet p;
    p.type = PacketType::kAgfwData;
    p.dst_loc = Vec2{812.5, 137.25};
    p.next_hop_pseudonym = 0x0000A1B2C3D4E5ULL;
    p.trapdoor = Bytes{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02};
    p.body = Bytes(16, 0xAB);
    return p;
}

TEST(CodecFuzzRegressions, CorpusDirectoryIsPresentAndNonTrivial) {
    ASSERT_TRUE(std::filesystem::is_directory(corpus_dir()))
        << "expected checked-in corpus at " << corpus_dir();
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(corpus_dir()))
        if (e.path().extension() == ".hex") ++n;
    EXPECT_GE(n, 20u) << "corpus unexpectedly small; regenerate with make_corpus";
}

TEST(CodecFuzzRegressions, ReplayWholeCorpus) {
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (const auto& entry : std::filesystem::directory_iterator(corpus_dir())) {
        if (entry.path().extension() != ".hex") continue;
        SCOPED_TRACE(entry.path().filename().string());
        const Bytes wire = load_hex_file(entry.path());
        const DecodeError err = check_properties(wire);
        const std::string name = entry.path().filename().string();
        if (name.rfind("valid_", 0) == 0 && name.find("traced") == std::string::npos) {
            EXPECT_EQ(err, DecodeError::kOk);
            ++accepted;
        } else if (name.rfind("reject_", 0) == 0) {
            EXPECT_NE(err, DecodeError::kOk);
            ++rejected;
        }
    }
    EXPECT_GE(accepted, 10u);
    EXPECT_GE(rejected, 8u);
}

TEST(CodecFuzzRegressions, EveryTruncationOfEveryValidSeedRejectsCleanly) {
    for (const auto& entry : std::filesystem::directory_iterator(corpus_dir())) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("valid_", 0) != 0 || name.find("traced") != std::string::npos)
            continue;
        SCOPED_TRACE(name);
        const Bytes wire = load_hex_file(entry.path());
        for (std::size_t len = 0; len < wire.size(); ++len) {
            const auto result = decode_ex({wire.data(), len});
            // Prefixes may occasionally still parse (body-remainder types
            // shrink), but they must never crash and must stay classified.
            EXPECT_EQ(result.packet.has_value(), result.error == DecodeError::kOk);
        }
    }
}

TEST(CodecFuzzRegressions, TruncatedHeaderClassifiedTruncated) {
    const Bytes wire = encode(sample_data_packet());
    for (std::size_t len : {std::size_t{1}, std::size_t{5}, std::size_t{17}}) {
        const auto result = decode_ex({wire.data(), len});
        EXPECT_EQ(result.error, DecodeError::kTruncated) << "prefix " << len;
    }
}

TEST(CodecFuzzRegressions, OversizedLengthFieldClassifiedBadLength) {
    // kAgfwData: td_len sits after type, flags, dst_loc (16), pseudonym (6).
    Bytes wire = encode(sample_data_packet());
    const std::size_t td_len_at = 1 + 1 + 16 + 6;
    wire[td_len_at] = 0xFF;
    wire[td_len_at + 1] = 0xFF;
    const auto result = decode_ex(wire);
    EXPECT_EQ(result.error, DecodeError::kBadLength);

    // kAgfwAck: a count field promising more uids than bytes remain.
    Packet ack;
    ack.type = PacketType::kAgfwAck;
    ack.ack_uids = {7};
    Bytes ack_wire = encode(ack);
    ack_wire[1] = 0xFF;
    ack_wire[2] = 0xFF;
    EXPECT_EQ(decode_ex(ack_wire).error, DecodeError::kBadLength);
}

TEST(CodecFuzzRegressions, ZeroPseudonymLastHopRoundTripsAndRejectsWhenCut) {
    Packet last = sample_data_packet();
    last.next_hop_pseudonym = 0;  // §3.2 "last forwarding attempt"
    const Bytes wire = encode(last);
    const auto ok = decode_ex(wire);
    ASSERT_TRUE(ok.packet.has_value());
    EXPECT_EQ(ok.packet->next_hop_pseudonym, 0u);
    EXPECT_EQ(ok.packet->trapdoor, last.trapdoor);

    Bytes cut = wire;
    cut.resize(1 + 1 + 16 + 6 + 1);  // mid td_len
    EXPECT_EQ(decode_ex(cut).error, DecodeError::kTruncated);
}

TEST(CodecFuzzRegressions, BadTypeAndEmptyAndTrailing) {
    EXPECT_EQ(decode_ex({}).error, DecodeError::kEmpty);
    const Bytes bad{0xFE, 0x01, 0x02};
    EXPECT_EQ(decode_ex(bad).error, DecodeError::kBadType);

    Packet hello;
    hello.type = PacketType::kGpsrHello;
    hello.src_id = 1;
    Bytes wire = encode(hello);
    wire.push_back(0xEE);
    EXPECT_EQ(decode_ex(wire).error, DecodeError::kTrailingBytes);
}

TEST(CodecFuzzRegressions, SeededMutationSweepIsTotal) {
    // A deterministic miniature fuzzer: byte flips, splices, and length
    // corruption over every valid seed, driven by the repo's seeded PRNG so
    // every CI run covers the identical input set.
    util::Rng rng(0xF0221);
    std::vector<Bytes> seeds;
    for (const auto& entry : std::filesystem::directory_iterator(corpus_dir()))
        if (entry.path().filename().string().rfind("valid_", 0) == 0)
            seeds.push_back(load_hex_file(entry.path()));
    ASSERT_FALSE(seeds.empty());

    for (int iter = 0; iter < 4000; ++iter) {
        Bytes mut = seeds[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(seeds.size()) - 1))];
        const int edits = static_cast<int>(rng.uniform_int(1, 8));
        for (int e = 0; e < edits && !mut.empty(); ++e) {
            const auto pos = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(mut.size()) - 1));
            switch (rng.uniform_int(0, 2)) {
                case 0:  // flip
                    mut[pos] = static_cast<std::uint8_t>(rng.next_u64());
                    break;
                case 1:  // truncate
                    mut.resize(pos);
                    break;
                default:  // extend with junk
                    mut.push_back(static_cast<std::uint8_t>(rng.next_u64()));
                    break;
            }
        }
        const auto result = decode_ex(mut);
        ASSERT_EQ(result.packet.has_value(), result.error == DecodeError::kOk);
    }
}

}  // namespace
