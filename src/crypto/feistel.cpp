#include "crypto/feistel.hpp"

#include <algorithm>
#include <cassert>

namespace geoanon::crypto {

FeistelPermutation::FeistelPermutation(std::span<const std::uint8_t> key,
                                       std::size_t block_bytes)
    : block_bytes_(block_bytes) {
    assert(block_bytes_ >= 2 && block_bytes_ % 2 == 0);
    std::uint8_t key_len[4];
    util::store_be32(key_len, static_cast<std::uint32_t>(key.size()));
    keyed_.update({key_len, 4});
    keyed_.update(key);
}

void FeistelPermutation::xor_round(int round, std::span<const std::uint8_t> half,
                                   std::span<std::uint8_t> target) const {
    // F(round, R) = first |R| bytes of SHA-256-CTR(len || key || round || len || R),
    // counter block i hashing that seed followed by u64be(i).
    std::uint8_t round_and_len[8];
    util::store_be32(round_and_len, static_cast<std::uint32_t>(round));
    util::store_be32(round_and_len + 4, static_cast<std::uint32_t>(half.size()));
    std::uint64_t ctr = 0;
    for (std::size_t off = 0; off < target.size(); off += Sha256::kDigestSize) {
        std::uint8_t ctr_be[8];
        util::store_be64(ctr_be, ctr++);
        Sha256 h = keyed_;
        h.update({round_and_len, 8});
        h.update(half);
        h.update({ctr_be, 8});
        const Sha256::Digest block = h.finish();
        const std::size_t take = std::min(Sha256::kDigestSize, target.size() - off);
        for (std::size_t i = 0; i < take; ++i) target[off + i] ^= block[i];
    }
}

void FeistelPermutation::permute(std::span<std::uint8_t> block, bool inverse) const {
    static_assert(kRounds % 2 == 0, "the final half swap below assumes an even round count");
    assert(block.size() == block_bytes_);
    const std::size_t h = block_bytes_ / 2;
    std::span<std::uint8_t> left = block.first(h);
    std::span<std::uint8_t> right = block.subspan(h);
    for (int i = 0; i < kRounds; ++i) {
        xor_round(inverse ? kRounds - 1 - i : i, right, left);
        std::swap(left, right);
    }
    // Undo the final swap so decrypt can run rounds in reverse symmetrically:
    // the output is (right, left) as the views stand now.
    std::swap_ranges(left.begin(), left.end(), right.begin());
}

void FeistelPermutation::encrypt_in_place(std::span<std::uint8_t> block) const {
    permute(block, false);
}

util::Bytes FeistelPermutation::encrypt(std::span<const std::uint8_t> block) const {
    util::Bytes out(block.begin(), block.end());
    encrypt_in_place(out);
    return out;
}

util::Bytes FeistelPermutation::decrypt(std::span<const std::uint8_t> block) const {
    util::Bytes out(block.begin(), block.end());
    permute(out, true);
    return out;
}

}  // namespace geoanon::crypto
