#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using geoanon::crypto::Sha256;
using geoanon::crypto::sha256_keystream_block;
using geoanon::crypto::sha256_keystream_xor;
using geoanon::crypto::sha256_u64;
using geoanon::util::Bytes;
using geoanon::util::Rng;
using geoanon::util::to_hex;

std::string hex_digest(const Sha256::Digest& d) { return to_hex({d.data(), d.size()}); }

Bytes sha256_keystream(const Bytes& key, std::size_t n_bytes) {
    Bytes out(n_bytes, 0);
    sha256_keystream_xor(key, out);
    return out;
}

// FIPS 180-4 / NIST CAVS known-answer tests.

TEST(Sha256, EmptyString) {
    EXPECT_EQ(hex_digest(Sha256::hash("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(hex_digest(Sha256::hash("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(hex_digest(Sha256::hash(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
    Sha256 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(hex_digest(h.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
    // 64 bytes: padding spills into a second block.
    const std::string msg(64, 'x');
    const auto one_shot = Sha256::hash(msg);
    Sha256 streaming;
    streaming.update(msg.substr(0, 13));
    streaming.update(msg.substr(13));
    EXPECT_EQ(one_shot, streaming.finish());
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
    // 55 bytes: padding fits in one block; 56: does not. Both must round-trip
    // against the streaming interface.
    for (std::size_t len : {55u, 56u, 63u, 65u}) {
        const std::string msg(len, 'q');
        Sha256 byte_at_a_time;
        for (char c : msg) byte_at_a_time.update(std::string_view(&c, 1));
        EXPECT_EQ(Sha256::hash(msg), byte_at_a_time.finish()) << "len=" << len;
    }
}

TEST(Sha256, DifferentInputsDiffer) {
    EXPECT_NE(Sha256::hash("foo"), Sha256::hash("fop"));
    EXPECT_NE(Sha256::hash("foo"), Sha256::hash("foo "));
}

// ------------------------------------------------ both compression paths

// Every digest above goes through Sha256::compress_selected(). The suite
// below runs each compression function directly, so the portable path is
// tested on every host and the hardware path wherever the CPU has it.
enum class Path { kPortable, kHardware };

class Sha256Path : public ::testing::TestWithParam<Path> {
  protected:
    void SetUp() override {
        compress_ = GetParam() == Path::kPortable ? &Sha256::compress_portable
                                                  : Sha256::compress_hardware();
        if (compress_ == nullptr)
            GTEST_SKIP() << "this CPU lacks the x86 SHA extensions (SHA, SSSE3, SSE4.1)";
    }

    std::string hex(std::string_view msg) const {
        Sha256 h(compress_);
        h.update(msg);
        return hex_digest(h.finish());
    }

    Sha256::Compress compress_{nullptr};
};

TEST_P(Sha256Path, FipsVectors) {
    EXPECT_EQ(hex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(hex("abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(hex(std::string(1000000, 'a')),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Path, EveryLengthUpToTwoBlocksAndAnyUpdateSplit) {
    // Message n is bytes (7i + n) mod 256, i < n. The expected value is the
    // SHA-256 of all 131 digests concatenated, computed with Python hashlib,
    // so each padding case (55/56/63/64/119/120 bytes...) is checked against
    // an independent implementation.
    Sha256 all(compress_);
    for (std::size_t n = 0; n <= 130; ++n) {
        Bytes msg(n);
        for (std::size_t i = 0; i < n; ++i) msg[i] = static_cast<std::uint8_t>(i * 7 + n);
        Sha256 one_shot(compress_);
        one_shot.update(msg);
        const Sha256::Digest d = one_shot.finish();
        all.update(d);
        for (std::size_t split = 0; split <= n; ++split) {
            Sha256 h(compress_);
            h.update(std::span(msg).first(split));
            h.update(std::span(msg).subspan(split));
            ASSERT_EQ(h.finish(), d) << "n=" << n << " split=" << split;
        }
    }
    EXPECT_EQ(hex_digest(all.finish()),
              "969b9f993f9c27e8424a46288c5b7999eee502a7befa92cad6cfef1034d76c51");
}

INSTANTIATE_TEST_SUITE_P(Compression, Sha256Path,
                         ::testing::Values(Path::kPortable, Path::kHardware),
                         [](const ::testing::TestParamInfo<Path>& info) {
                             return info.param == Path::kPortable ? "Portable" : "Hardware";
                         });

TEST(Sha256Compression, HardwareMatchesPortableOnRandomStates) {
    const Sha256::Compress hw = Sha256::compress_hardware();
    if (hw == nullptr) GTEST_SKIP() << "this CPU lacks the x86 SHA extensions (SHA, SSSE3, SSE4.1)";
    Rng rng(2024);
    for (int trial = 0; trial < 20000; ++trial) {
        Sha256::State a;
        for (auto& word : a) word = static_cast<std::uint32_t>(rng.next_u64());
        std::array<std::uint8_t, Sha256::kBlockSize> block;
        for (auto& byte : block) byte = static_cast<std::uint8_t>(rng.next_u64());
        Sha256::State b = a;
        Sha256::compress_portable(a, block.data());
        hw(b, block.data());
        ASSERT_EQ(a, b) << "trial " << trial;
    }
}

TEST(Sha256Compression, SelectedIsHardwareWhenAvailable) {
    const Sha256::Compress hw = Sha256::compress_hardware();
    EXPECT_EQ(Sha256::compress_selected(),
              hw != nullptr ? hw : &Sha256::compress_portable);
}

TEST(Sha256Keystream, DeterministicAndLengthExact) {
    const Bytes key{1, 2, 3};
    const Bytes a = sha256_keystream(key, 100);
    const Bytes b = sha256_keystream(key, 100);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_EQ(sha256_keystream(key, 7).size(), 7u);
}

TEST(Sha256Keystream, PrefixProperty) {
    const Bytes key{9, 9};
    const Bytes longer = sha256_keystream(key, 96);
    const Bytes shorter = sha256_keystream(key, 40);
    EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), longer.begin()));
}

TEST(Sha256Keystream, KeySensitivity) {
    EXPECT_NE(sha256_keystream(Bytes{1}, 32), sha256_keystream(Bytes{2}, 32));
}

TEST(Sha256Keystream, BlocksAreCounterModeHashes) {
    const Bytes key{4, 5, 6};
    const Bytes stream = sha256_keystream(key, 100);
    for (std::uint64_t i = 0; i < 4; ++i) {
        Bytes input = key;
        for (int b = 0; b < 8; ++b) input.push_back(static_cast<std::uint8_t>(i >> (56 - 8 * b)));
        const Sha256::Digest expected = Sha256::hash(input);
        EXPECT_EQ(sha256_keystream_block(key, i), expected);
        const std::size_t n = std::min<std::size_t>(32, stream.size() - 32 * i);
        EXPECT_TRUE(std::equal(stream.begin() + 32 * i, stream.begin() + 32 * i + n,
                               expected.begin()));
    }
    // XOR from block 1 lines up with stream byte 32, and undoes itself.
    Bytes tail(68, 0);
    sha256_keystream_xor(key, tail, 1);
    EXPECT_TRUE(std::equal(tail.begin(), tail.end(), stream.begin() + 32));
    sha256_keystream_xor(key, tail, 1);
    EXPECT_EQ(tail, Bytes(68, 0));
}

TEST(Sha256U64, MatchesDigestPrefix) {
    const auto d = Sha256::hash("abc");
    std::uint64_t expected = 0;
    for (int i = 0; i < 8; ++i) expected = (expected << 8) | d[static_cast<std::size_t>(i)];
    const Bytes abc{'a', 'b', 'c'};
    EXPECT_EQ(sha256_u64(abc), expected);
}

}  // namespace
