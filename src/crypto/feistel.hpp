#pragma once

#include <cstddef>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace geoanon::crypto {

/// Keyed pseudorandom permutation over fixed-size byte blocks, built as an
/// 8-round balanced Feistel network with SHA-256 as the round function.
///
/// This is the symmetric cipher E_k required by the Rivest–Shamir–Tauman
/// ring-signature combining function, which needs an *invertible* keyed
/// primitive over the common domain (a hash alone would not do).
class FeistelPermutation {
  public:
    static constexpr int kRounds = 8;

    /// `block_bytes` must be even and >= 2 (balanced halves).
    FeistelPermutation(std::span<const std::uint8_t> key, std::size_t block_bytes);

    std::size_t block_bytes() const { return block_bytes_; }

    /// Permute a block forward. `block.size()` must equal block_bytes().
    util::Bytes encrypt(std::span<const std::uint8_t> block) const;
    /// Inverse permutation.
    util::Bytes decrypt(std::span<const std::uint8_t> block) const;

    /// encrypt() without allocating: permutes `block` in place.
    void encrypt_in_place(std::span<std::uint8_t> block) const;

  private:
    void permute(std::span<std::uint8_t> block, bool inverse) const;
    /// target ^= F(round, half).
    void xor_round(int round, std::span<const std::uint8_t> half,
                   std::span<std::uint8_t> target) const;

    /// SHA-256 that has absorbed the round function's key prefix.
    Sha256 keyed_;
    std::size_t block_bytes_;
};

}  // namespace geoanon::crypto
