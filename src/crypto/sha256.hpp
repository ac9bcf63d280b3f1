#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/bytes.hpp"

namespace geoanon::crypto {

/// FIPS 180-4 SHA-256. This is the repo's only collision-resistant hash; it
/// backs pseudonym generation (§3.1.1: n = hash(pr, id)), ring-signature key
/// derivation, certificate signing, and the Feistel round function.
///
/// The compression function is chosen once per process from the CPU: the
/// x86 SHA extensions when CPUID reports them, the portable code otherwise.
/// Both produce identical digests (DESIGN.md §17).
class Sha256 {
  public:
    static constexpr std::size_t kDigestSize = 32;
    static constexpr std::size_t kBlockSize = 64;
    using Digest = std::array<std::uint8_t, kDigestSize>;
    using State = std::array<std::uint32_t, 8>;
    /// Absorbs one kBlockSize-byte block into the chaining state.
    using Compress = void (*)(State& state, const std::uint8_t* block);

    /// Portable compression: the only path on CPUs without the SHA
    /// extensions, and the reference the hardware path is tested against.
    static void compress_portable(State& state, const std::uint8_t* block);
    /// The x86 SHA-extensions compression, or nullptr when this CPU lacks
    /// SHA, SSSE3 or SSE4.1 (or is not x86-64).
    static Compress compress_hardware();
    /// compress_hardware() when available, else compress_portable.
    static Compress compress_selected();

    Sha256();
    /// Hash through a specific compression function (tests and benches
    /// compare the two paths with it).
    explicit Sha256(Compress compress);

    /// Absorb more input; may be called any number of times before finish().
    void update(std::span<const std::uint8_t> data);
    void update(std::string_view s);

    /// Finalize and return the digest. The object must not be reused after.
    Digest finish();

    /// One-shot convenience.
    static Digest hash(std::span<const std::uint8_t> data);
    static Digest hash(std::string_view s);

  private:
    void process_block(const std::uint8_t* block);

    Compress compress_;
    State state_;
    std::uint64_t total_len_{0};
    std::array<std::uint8_t, kBlockSize> buf_{};
    std::size_t buf_len_{0};
};

/// Keyed keystream built from SHA-256 in counter mode, used as a stream
/// cipher by the modeled crypto engine: block_i = SHA256(key || u64be(i)).
Sha256::Digest sha256_keystream_block(std::span<const std::uint8_t> key, std::uint64_t counter);

/// XORs the keystream into `data` in place, starting at keystream block
/// `first_block` (so data[0] meets byte 0 of that block).
void sha256_keystream_xor(std::span<const std::uint8_t> key, std::span<std::uint8_t> data,
                          std::uint64_t first_block = 0);

/// First 8 bytes of SHA-256 as a big-endian u64 (cheap content fingerprints).
std::uint64_t sha256_u64(std::span<const std::uint8_t> data);

}  // namespace geoanon::crypto
