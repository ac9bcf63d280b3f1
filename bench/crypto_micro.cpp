// §5 crypto cost table — microbenchmarks of every cryptographic primitive
// the scheme uses, at the paper's parameters (RSA-512, 64-byte trapdoor).
//
// The paper charges 0.5 ms per public-key encryption and 8.5 ms per
// decryption (2005 portable hardware). Modern hardware is faster; the
// simulator charges the paper's numbers via CryptoCosts regardless, so these
// measurements document the real primitive costs alongside the model.

#include <benchmark/benchmark.h>

#include <array>

#include "crypto/engine.hpp"
#include "crypto/feistel.hpp"
#include "crypto/ring_signature.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

using namespace geoanon;
using namespace geoanon::crypto;

namespace {

/// Shared fixture state: 512-bit keys are expensive to generate, make once.
struct Keys {
    Keys() : rng(42) {
        for (int i = 0; i < 6; ++i) {
            pairs.push_back(rsa_generate(rng, 512));
            ring.push_back(pairs.back().pub);
        }
    }
    util::Rng rng;
    std::vector<RsaKeyPair> pairs;
    std::vector<RsaPublicKey> ring;
};

Keys& keys() {
    static Keys k;
    return k;
}

void BM_Sha256_1KiB(benchmark::State& state) {
    util::Bytes data(1024, 0xAB);
    for (auto _ : state) benchmark::DoNotOptimize(Sha256::hash(data));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

/// One 64-byte compression through `compress`: the unit every modeled
/// crypto call is made of (DESIGN.md §17 counts blocks per call).
void compress_loop(benchmark::State& state, Sha256::Compress compress) {
    Sha256::State s{};
    std::array<std::uint8_t, Sha256::kBlockSize> block{};
    for (auto _ : state) {
        compress(s, block.data());
        block[0] = static_cast<std::uint8_t>(s[0]);  // chain blocks: no hoisting
    }
    benchmark::DoNotOptimize(s);
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}

void BM_Sha256Compress_Portable(benchmark::State& state) {
    compress_loop(state, &Sha256::compress_portable);
}
BENCHMARK(BM_Sha256Compress_Portable);

void BM_Sha256Compress_Hardware(benchmark::State& state) {
    const Sha256::Compress hw = Sha256::compress_hardware();
    if (hw == nullptr) {
        state.SkipWithError("this CPU lacks the x86 SHA extensions");
        return;
    }
    compress_loop(state, hw);
}
BENCHMARK(BM_Sha256Compress_Hardware);

void BM_RsaKeygen512(benchmark::State& state) {
    util::Rng rng(7);
    for (auto _ : state) benchmark::DoNotOptimize(rsa_generate(rng, 512));
}
BENCHMARK(BM_RsaKeygen512)->Unit(benchmark::kMillisecond);

void BM_RsaEncrypt512(benchmark::State& state) {
    auto& k = keys();
    const util::Bytes msg(32, 0x11);
    for (auto _ : state) benchmark::DoNotOptimize(rsa_encrypt(k.pairs[0].pub, k.rng, msg));
}
BENCHMARK(BM_RsaEncrypt512)->Unit(benchmark::kMicrosecond);

void BM_RsaDecrypt512(benchmark::State& state) {
    auto& k = keys();
    const util::Bytes msg(32, 0x11);
    const auto ct = rsa_encrypt(k.pairs[0].pub, k.rng, msg);
    for (auto _ : state) benchmark::DoNotOptimize(rsa_decrypt(k.pairs[0].priv, *ct));
}
BENCHMARK(BM_RsaDecrypt512)->Unit(benchmark::kMicrosecond);

void BM_TrapdoorOpen_Real(benchmark::State& state) {
    // The §3.2 destination test: one RSA decryption + padding/tag check.
    RealCryptoEngine engine(3, 512);
    engine.register_node(1);
    util::Rng rng(5);
    const util::Bytes payload(32, 0x22);
    const auto trapdoor = engine.make_trapdoor(1, payload, rng);
    for (auto _ : state) benchmark::DoNotOptimize(engine.try_open_trapdoor(1, trapdoor));
}
BENCHMARK(BM_TrapdoorOpen_Real)->Unit(benchmark::kMicrosecond);

void BM_TrapdoorOpen_Modeled(benchmark::State& state) {
    // The owner's successful open.
    ModeledCryptoEngine engine(3, 512);
    engine.register_node(1);
    util::Rng rng(5);
    const util::Bytes payload(32, 0x22);
    const auto trapdoor = engine.make_trapdoor(1, payload, rng);
    for (auto _ : state) benchmark::DoNotOptimize(engine.try_open_trapdoor(1, trapdoor));
}
BENCHMARK(BM_TrapdoorOpen_Modeled)->Unit(benchmark::kMicrosecond);

void BM_TrapdoorOpen_Modeled_Reject(benchmark::State& state) {
    // A bystander in the last-hop region trying a trapdoor that is not its
    // own: the common case (~97% of attempts in the privacy scenarios).
    ModeledCryptoEngine engine(3, 512);
    engine.register_node(1);
    engine.register_node(2);
    util::Rng rng(5);
    const util::Bytes payload(32, 0x22);
    const auto trapdoor = engine.make_trapdoor(1, payload, rng);
    for (auto _ : state) benchmark::DoNotOptimize(engine.try_open_trapdoor(2, trapdoor));
}
BENCHMARK(BM_TrapdoorOpen_Modeled_Reject)->Unit(benchmark::kMicrosecond);

void BM_AnonymizeUid(benchmark::State& state) {
    // The uid PRP every AGFW data packet passes through at its source.
    ModeledCryptoEngine engine(3, 512);
    std::uint64_t uid = 1;
    for (auto _ : state) benchmark::DoNotOptimize(engine.anonymize_uid(uid++));
}
BENCHMARK(BM_AnonymizeUid);

void BM_RingSign(benchmark::State& state) {
    auto& k = keys();
    const std::size_t members = static_cast<std::size_t>(state.range(0));
    std::vector<RsaPublicKey> ring(k.ring.begin(),
                                   k.ring.begin() + static_cast<std::ptrdiff_t>(members));
    const util::Bytes msg(39, 0x33);  // a hello body
    for (auto _ : state)
        benchmark::DoNotOptimize(ring_sign(msg, ring, 0, k.pairs[0].priv, k.rng));
}
BENCHMARK(BM_RingSign)->Arg(2)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_RingVerify(benchmark::State& state) {
    auto& k = keys();
    const std::size_t members = static_cast<std::size_t>(state.range(0));
    std::vector<RsaPublicKey> ring(k.ring.begin(),
                                   k.ring.begin() + static_cast<std::ptrdiff_t>(members));
    const util::Bytes msg(39, 0x33);
    const auto sig = ring_sign(msg, ring, 0, k.pairs[0].priv, k.rng);
    for (auto _ : state) benchmark::DoNotOptimize(ring_verify(msg, ring, sig));
}
BENCHMARK(BM_RingVerify)->Arg(2)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_FeistelPermutation72B(benchmark::State& state) {
    const FeistelPermutation f(util::Bytes{1, 2, 3, 4}, 72);  // RST common domain
    util::Bytes block(72, 0x44);
    for (auto _ : state) benchmark::DoNotOptimize(f.encrypt(block));
}
BENCHMARK(BM_FeistelPermutation72B);

void BM_PseudonymGeneration(benchmark::State& state) {
    ModeledCryptoEngine engine(3, 512);
    std::uint64_t pr = 0;
    for (auto _ : state) benchmark::DoNotOptimize(engine.make_pseudonym(1, ++pr));
}
BENCHMARK(BM_PseudonymGeneration);

void BM_AlsRowEncrypt(benchmark::State& state) {
    // One anonymous location row: E_{K_B}(A, loc_A, ts), §3.3.
    RealCryptoEngine engine(3, 512);
    engine.register_node(1);
    util::Rng rng(5);
    const util::Bytes row(32, 0x55);
    for (auto _ : state) benchmark::DoNotOptimize(engine.encrypt_for(1, row, rng));
}
BENCHMARK(BM_AlsRowEncrypt)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
