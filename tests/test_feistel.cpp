#include <gtest/gtest.h>

#include "crypto/feistel.hpp"
#include "util/rng.hpp"

namespace {

using geoanon::crypto::FeistelPermutation;
using geoanon::util::Bytes;
using geoanon::util::Rng;
using geoanon::util::to_hex;

Bytes random_block(Rng& rng, std::size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
    return out;
}

// Exact bytes, captured from the original implementation: the 8-byte width
// is the uid PRP, the 72-byte width the RST common domain at 512 bits.
TEST(FeistelKnownAnswers, EightByteBlock) {
    const FeistelPermutation f(Bytes{1, 2, 3, 4}, 8);
    const Bytes block{0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(to_hex(f.encrypt(block)), "af3b90552bb914b9");
    EXPECT_EQ(to_hex(f.decrypt(block)), "128d2cce7d04133d");
    Bytes in_place = block;
    f.encrypt_in_place(in_place);
    EXPECT_EQ(to_hex(in_place), "af3b90552bb914b9");
}

TEST(FeistelKnownAnswers, RingSignatureWidth) {
    const FeistelPermutation f(Bytes{9, 8, 7}, 72);
    Bytes block(72);
    for (std::size_t i = 0; i < block.size(); ++i) block[i] = static_cast<std::uint8_t>(i * 3 + 1);
    EXPECT_EQ(to_hex(f.encrypt(block)),
              "4eafcdbda426cc80b47414577586066f079b3b02d12ebb8567790a0764ca34bd"
              "047f081ae7b3f636cc1d2d1042b37bf5bade01b9a0480acb9d175880ca533c92"
              "ffdd88701e519862");
    EXPECT_EQ(to_hex(f.decrypt(block)),
              "9052c803874588ffcd725c036e981ecf11911646ae1f341b1f2a37a8946ce58e"
              "ea2f6011aa5c077f2d3d8effdb5d65d317ab15cebd3c64eeade6866e62d8f85a"
              "30a78911d1722294");
}

TEST(Feistel, EncryptDecryptRoundTrip) {
    const FeistelPermutation f(Bytes{1, 2, 3}, 16);
    const Bytes block{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
    EXPECT_EQ(f.decrypt(f.encrypt(block)), block);
    EXPECT_EQ(f.encrypt(f.decrypt(block)), block);
}

TEST(Feistel, Deterministic) {
    const FeistelPermutation f(Bytes{9}, 8);
    const Bytes block{1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(f.encrypt(block), f.encrypt(block));
}

TEST(Feistel, KeySensitivity) {
    const FeistelPermutation f1(Bytes{1}, 8);
    const FeistelPermutation f2(Bytes{2}, 8);
    const Bytes block{1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_NE(f1.encrypt(block), f2.encrypt(block));
}

TEST(Feistel, EncryptActuallyChangesInput) {
    const FeistelPermutation f(Bytes{7, 7}, 10);
    const Bytes block(10, 0x00);
    EXPECT_NE(f.encrypt(block), block);
}

TEST(Feistel, AvalancheAcrossBlock) {
    // Flipping one input bit should change roughly half the output bits.
    const FeistelPermutation f(Bytes{5}, 32);
    Rng rng(1);
    const Bytes a = random_block(rng, 32);
    Bytes b = a;
    b[0] ^= 0x01;
    const Bytes ea = f.encrypt(a);
    const Bytes eb = f.encrypt(b);
    int diff_bits = 0;
    for (std::size_t i = 0; i < ea.size(); ++i)
        diff_bits += __builtin_popcount(static_cast<unsigned>(ea[i] ^ eb[i]));
    EXPECT_GT(diff_bits, 64);   // out of 256
    EXPECT_LT(diff_bits, 192);
}

TEST(Feistel, PermutationIsBijectiveOnTinyDomain) {
    // Exhaustively check bijectivity over a 2-byte block (65536 values).
    const FeistelPermutation f(Bytes{0xAA}, 2);
    std::vector<bool> seen(65536, false);
    for (unsigned v = 0; v < 65536; ++v) {
        const Bytes in{static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
        const Bytes out = f.encrypt(in);
        const unsigned o = (static_cast<unsigned>(out[0]) << 8) | out[1];
        EXPECT_FALSE(seen[o]) << "collision at input " << v;
        seen[o] = true;
    }
}

class FeistelRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FeistelRoundTrip, RandomBlocksRoundTrip) {
    const std::size_t block_size = GetParam();
    Rng rng(block_size * 977);
    const FeistelPermutation f(random_block(rng, 32), block_size);
    for (int i = 0; i < 50; ++i) {
        const Bytes block = random_block(rng, block_size);
        EXPECT_EQ(f.decrypt(f.encrypt(block)), block);
    }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, FeistelRoundTrip,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u, 72u, 130u));

}  // namespace
