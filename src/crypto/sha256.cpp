#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace geoanon::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)
// The SHA extensions need SSSE3 (byte shuffle) and SSE4.1 (blend) as well.
// The target attribute enables them for these functions only, so the rest
// of the build keeps its baseline ISA and no global -m flag is needed.
#define GEOANON_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/// Four rounds: w + K for rounds i..i+3 is `msg` + kRound[i..i+3].
GEOANON_SHA_TARGET inline void four_rounds(__m128i& abef, __m128i& cdgh, __m128i msg,
                                           const std::uint32_t* k) {
    __m128i wk = _mm_add_epi32(msg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

/// Four big-endian message words.
GEOANON_SHA_TARGET inline __m128i load_words(const std::uint8_t* p, __m128i bswap) {
    return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap);
}

/// Finishes the schedule words `next` from the two preceding word groups.
GEOANON_SHA_TARGET inline __m128i schedule(__m128i next, __m128i cur, __m128i prev) {
    return _mm_sha256msg2_epu32(_mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur);
}

GEOANON_SHA_TARGET void compress_sha_ni(Sha256::State& state, const std::uint8_t* block) {
    const __m128i bswap = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
    // The round instructions keep the state as (A,B,E,F) and (C,D,G,H).
    const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
    const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    const __m128i abef_in = _mm_alignr_epi8(cdab, efgh, 8);
    const __m128i cdgh_in = _mm_blend_epi16(efgh, cdab, 0xF0);
    __m128i abef = abef_in;
    __m128i cdgh = cdgh_in;

    __m128i m0 = load_words(block, bswap);
    __m128i m1 = load_words(block + 16, bswap);
    __m128i m2 = load_words(block + 32, bswap);
    __m128i m3 = load_words(block + 48, bswap);
    four_rounds(abef, cdgh, m0, &kRound[0]);
    four_rounds(abef, cdgh, m1, &kRound[4]);
    m0 = _mm_sha256msg1_epu32(m0, m1);
    four_rounds(abef, cdgh, m2, &kRound[8]);
    m1 = _mm_sha256msg1_epu32(m1, m2);
    four_rounds(abef, cdgh, m3, &kRound[12]);
    m0 = schedule(m0, m3, m2);
    m2 = _mm_sha256msg1_epu32(m2, m3);
    // Rounds 16-63. The last pass also schedules words past round 63; they
    // are never used.
    for (int i = 16; i < 64; i += 16) {
        four_rounds(abef, cdgh, m0, &kRound[i]);
        m1 = schedule(m1, m0, m3);
        m3 = _mm_sha256msg1_epu32(m3, m0);
        four_rounds(abef, cdgh, m1, &kRound[i + 4]);
        m2 = schedule(m2, m1, m0);
        m0 = _mm_sha256msg1_epu32(m0, m1);
        four_rounds(abef, cdgh, m2, &kRound[i + 8]);
        m3 = schedule(m3, m2, m1);
        m1 = _mm_sha256msg1_epu32(m1, m2);
        four_rounds(abef, cdgh, m3, &kRound[i + 12]);
        m0 = schedule(m0, m3, m2);
        m2 = _mm_sha256msg1_epu32(m2, m3);
    }

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_extensions() {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    const bool sse = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    return sse && (ebx & bit_SHA) != 0;
}
#undef GEOANON_SHA_TARGET
#endif

}  // namespace

void Sha256::compress_portable(State& state, const std::uint8_t* block) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
               (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
               (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
               static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
        const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

Sha256::Compress Sha256::compress_hardware() {
#if defined(__x86_64__)
    static const Compress hw = cpu_has_sha_extensions() ? &compress_sha_ni : nullptr;
    return hw;
#else
    return nullptr;
#endif
}

Sha256::Compress Sha256::compress_selected() {
    static const Compress selected =
        compress_hardware() != nullptr ? compress_hardware() : &compress_portable;
    return selected;
}

Sha256::Sha256() : Sha256(compress_selected()) {}

Sha256::Sha256(Compress compress)
    : compress_(compress),
      state_{kInit[0], kInit[1], kInit[2], kInit[3], kInit[4], kInit[5], kInit[6], kInit[7]} {}

// geoanon: hot
void Sha256::process_block(const std::uint8_t* block) { compress_(state_, block); }

void Sha256::update(std::span<const std::uint8_t> data) {
    total_len_ += data.size();
    std::size_t off = 0;
    if (buf_len_ > 0) {
        const std::size_t take = std::min(data.size(), buf_.size() - buf_len_);
        std::memcpy(buf_.data() + buf_len_, data.data(), take);
        buf_len_ += take;
        off += take;
        if (buf_len_ == buf_.size()) {
            process_block(buf_.data());
            buf_len_ = 0;
        }
    }
    while (data.size() - off >= 64) {
        process_block(data.data() + off);
        off += 64;
    }
    if (off < data.size()) {
        std::memcpy(buf_.data(), data.data() + off, data.size() - off);
        buf_len_ = data.size() - off;
    }
}

void Sha256::update(std::string_view s) {
    update({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

Sha256::Digest Sha256::finish() {
    // Pad in place: 0x80, zeros up to byte 56 of a block, then the bit
    // length. update() never leaves a full buffer, so the 0x80 always fits.
    const std::uint64_t bit_len = total_len_ * 8;
    buf_[buf_len_++] = 0x80;
    if (buf_len_ > kBlockSize - 8) {
        std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_), buf_.end(), 0);
        process_block(buf_.data());
        buf_len_ = 0;
    }
    std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(buf_len_), buf_.end() - 8, 0);
    util::store_be64(buf_.data() + kBlockSize - 8, bit_len);
    process_block(buf_.data());

    Digest out;
    for (int i = 0; i < 8; ++i) {
        out[static_cast<std::size_t>(i) * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
        out[static_cast<std::size_t>(i) * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out[static_cast<std::size_t>(i) * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out[static_cast<std::size_t>(i) * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
    Sha256 h;
    h.update(data);
    return h.finish();
}

Sha256::Digest Sha256::hash(std::string_view s) {
    Sha256 h;
    h.update(s);
    return h.finish();
}

Sha256::Digest sha256_keystream_block(std::span<const std::uint8_t> key, std::uint64_t counter) {
    Sha256 h;
    h.update(key);
    std::uint8_t ctr_be[8];
    util::store_be64(ctr_be, counter);
    h.update({ctr_be, 8});
    return h.finish();
}

void sha256_keystream_xor(std::span<const std::uint8_t> key, std::span<std::uint8_t> data,
                          std::uint64_t first_block) {
    for (std::size_t off = 0; off < data.size(); off += Sha256::kDigestSize) {
        const auto block = sha256_keystream_block(key, first_block++);
        const std::size_t take = std::min(Sha256::kDigestSize, data.size() - off);
        for (std::size_t i = 0; i < take; ++i) data[off + i] ^= block[i];
    }
}

std::uint64_t sha256_u64(std::span<const std::uint8_t> data) {
    return util::load_be64(Sha256::hash(data).data());
}

}  // namespace geoanon::crypto
