#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "crypto/cert.hpp"
#include "crypto/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace geoanon::crypto;
using geoanon::util::Bytes;
using geoanon::util::ByteReader;
using geoanon::util::Rng;

// ----------------------------------------------------------------- CA/certs

TEST(CertificateAuthority, IssueAndVerify) {
    Rng rng(1);
    CertificateAuthority ca(rng, 256);
    const RsaKeyPair subject = rsa_generate(rng, 256);
    const Certificate cert = ca.issue(42, subject.pub);
    EXPECT_EQ(cert.subject_id, 42u);
    EXPECT_TRUE(ca.verify(cert));
}

TEST(CertificateAuthority, RejectsTamperedCert) {
    Rng rng(2);
    CertificateAuthority ca(rng, 256);
    const RsaKeyPair subject = rsa_generate(rng, 256);
    Certificate cert = ca.issue(42, subject.pub);
    cert.subject_id = 43;  // claim someone else's identity
    EXPECT_FALSE(ca.verify(cert));
    Certificate cert2 = ca.issue(42, subject.pub);
    const RsaKeyPair other = rsa_generate(rng, 256);
    cert2.subject_key = other.pub;  // swap the key
    EXPECT_FALSE(ca.verify(cert2));
}

TEST(CertificateAuthority, RejectsForeignCa) {
    Rng rng(3);
    CertificateAuthority ca1(rng, 256), ca2(rng, 256);
    const RsaKeyPair subject = rsa_generate(rng, 256);
    const Certificate cert = ca1.issue(1, subject.pub);
    EXPECT_FALSE(ca2.verify(cert));
}

TEST(Certificate, SerializeRoundTrip) {
    Rng rng(4);
    CertificateAuthority ca(rng, 256);
    const RsaKeyPair subject = rsa_generate(rng, 256);
    const Certificate cert = ca.issue(7, subject.pub);
    const Bytes ser = cert.serialize();
    ByteReader r(ser);
    const auto back = Certificate::deserialize(r);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->subject_id, 7u);
    EXPECT_EQ(back->subject_key, subject.pub);
    EXPECT_TRUE(ca.verify(*back));
}

// ------------------------------------------------------------------ engines

template <typename Engine>
class EngineTest : public ::testing::Test {
  protected:
    // 256-bit keys in the real engine for speed; semantics are identical.
    EngineTest() : engine_(12345, 256) {
        engine_.register_node(1);
        engine_.register_node(2);
        engine_.register_node(3);
    }
    Engine engine_;
    Rng rng_{99};
};

using EngineTypes = ::testing::Types<RealCryptoEngine, ModeledCryptoEngine>;
TYPED_TEST_SUITE(EngineTest, EngineTypes);

TYPED_TEST(EngineTest, ValidUsersKeepFirstRegistrationOrder) {
    this->engine_.register_node(7);
    this->engine_.register_node(2);  // already registered: no second entry
    const std::vector<NodeIdNum> want{1, 2, 3, 7};
    EXPECT_TRUE(std::ranges::equal(this->engine_.valid_users(), want));
}

TYPED_TEST(EngineTest, PseudonymsAre48BitNonZero) {
    for (int i = 0; i < 200; ++i) {
        const Pseudonym n = this->engine_.make_pseudonym(1, this->rng_.next_u64());
        EXPECT_NE(n, kLastAttemptPseudonym);
        EXPECT_LT(n, 1ULL << 48);
    }
}

TYPED_TEST(EngineTest, PseudonymDeterministicInInputs) {
    EXPECT_EQ(this->engine_.make_pseudonym(1, 555), this->engine_.make_pseudonym(1, 555));
    EXPECT_NE(this->engine_.make_pseudonym(1, 555), this->engine_.make_pseudonym(1, 556));
    EXPECT_NE(this->engine_.make_pseudonym(1, 555), this->engine_.make_pseudonym(2, 555));
}

TYPED_TEST(EngineTest, AnonymizeUidIsAnInjectivePrp) {
    // Bijectivity is the whole point: distinct (id, counter) inputs must map
    // to distinct wire uids, or the dedup/ACK machinery breaks.
    std::set<std::uint64_t> seen;
    for (std::uint64_t id = 1; id <= 8; ++id) {
        for (std::uint64_t ctr = 1; ctr <= 64; ++ctr) {
            const std::uint64_t raw = (id << 32) | ctr;
            const std::uint64_t out = this->engine_.anonymize_uid(raw);
            EXPECT_TRUE(seen.insert(out).second) << "collision at " << raw;
        }
    }
    // Deterministic in the engine seed.
    EXPECT_EQ(this->engine_.anonymize_uid(0x2A00000001ull),
              this->engine_.anonymize_uid(0x2A00000001ull));
}

TYPED_TEST(EngineTest, AnonymizeUidHidesTheIdCounterLayout) {
    // The regression GL010 was built around: raw uids carried the source id
    // in the top 32 bits. After the PRP, uids from one source must not share
    // top bits with each other (nor equal the raw input).
    const std::uint64_t id = 42;
    std::set<std::uint64_t> tops;
    for (std::uint64_t ctr = 1; ctr <= 32; ++ctr) {
        const std::uint64_t raw = (id << 32) | ctr;
        const std::uint64_t out = this->engine_.anonymize_uid(raw);
        EXPECT_NE(out, raw);
        tops.insert(out >> 32);
    }
    // 32 same-source uids land on (essentially) 32 distinct top halves; the
    // pre-fix layout would put them all on one.
    EXPECT_GT(tops.size(), 30u);
}

TEST(EngineSeeds, AnonymizeUidKeyedByEngineSeed) {
    ModeledCryptoEngine a(1), b(2);
    EXPECT_NE(a.anonymize_uid(0x2A00000001ull), b.anonymize_uid(0x2A00000001ull));
}

TYPED_TEST(EngineTest, TrapdoorOnlyDestinationOpens) {
    const Bytes payload{'p', 'a', 'y'};
    const Bytes td = this->engine_.make_trapdoor(2, payload, this->rng_);
    EXPECT_EQ(td.size(), this->engine_.trapdoor_bytes());
    EXPECT_EQ(this->engine_.try_open_trapdoor(2, td), payload);
    EXPECT_FALSE(this->engine_.try_open_trapdoor(1, td).has_value());
    EXPECT_FALSE(this->engine_.try_open_trapdoor(3, td).has_value());
}

TYPED_TEST(EngineTest, TrapdoorsAreUnlinkable) {
    // Two trapdoors for the same destination and payload look different.
    const Bytes payload{'x'};
    const Bytes a = this->engine_.make_trapdoor(2, payload, this->rng_);
    const Bytes b = this->engine_.make_trapdoor(2, payload, this->rng_);
    EXPECT_NE(a, b);
}

TYPED_TEST(EngineTest, TrapdoorSizeMatchesPaper) {
    // §5: the trapdoor does not exceed 64 bytes with a 512-bit key. Our test
    // engine uses 256-bit keys -> 32 bytes; the size tracks the modulus.
    EXPECT_EQ(this->engine_.trapdoor_bytes(), 256u / 8);
}

TYPED_TEST(EngineTest, EncryptForRoundTripAndPrivacy) {
    Bytes plaintext(100, 0x42);  // spans multiple RSA blocks
    const Bytes ct = this->engine_.encrypt_for(3, plaintext, this->rng_);
    EXPECT_EQ(this->engine_.try_decrypt(3, ct), plaintext);
    EXPECT_FALSE(this->engine_.try_decrypt(1, ct).has_value());
}

TYPED_TEST(EngineTest, RingSignVerify) {
    const std::vector<NodeIdNum> ring{1, 2, 3};
    const Bytes msg{'m'};
    const Bytes sig = this->engine_.ring_sign_msg(2, ring, msg, this->rng_);
    EXPECT_EQ(sig.size(), this->engine_.ring_signature_bytes(ring.size()));
    EXPECT_TRUE(this->engine_.ring_verify_msg(ring, msg, sig));
    EXPECT_FALSE(this->engine_.ring_verify_msg(ring, Bytes{'M'}, sig));
    const std::vector<NodeIdNum> other_ring{1, 3, 2};
    EXPECT_FALSE(this->engine_.ring_verify_msg(other_ring, msg, sig));
}

TYPED_TEST(EngineTest, AlsIndexDeterministicAndDistinct) {
    const Bytes i1 = this->engine_.als_index(1, 2);
    EXPECT_EQ(i1, this->engine_.als_index(1, 2));
    EXPECT_EQ(i1.size(), CryptoEngine::kAlsIndexBytes);
    EXPECT_NE(i1, this->engine_.als_index(2, 1));
    EXPECT_NE(i1, this->engine_.als_index(1, 3));
}

TYPED_TEST(EngineTest, SizesConsistentAcrossEngines) {
    // The modeled engine must present the same wire sizes as the real one so
    // byte-overhead results are engine-independent.
    EXPECT_EQ(this->engine_.ring_signature_bytes(5),
              4 + (4 + ((256 + 64 + 15) / 16) * 2) + 4 + 5 * (4 + ((256 + 64 + 15) / 16) * 2));
    EXPECT_EQ(this->engine_.certificate_bytes(), 8 + (4 + (4 + 32 + 4 + 3)) + (4 + 32));
}

TEST(RealEngine, CertificatesVerifyAgainstCa) {
    RealCryptoEngine engine(5, 256);
    engine.register_node(9);
    EXPECT_TRUE(engine.ca().verify(engine.certificate_of(9)));
    EXPECT_EQ(engine.certificate_of(9).subject_id, 9u);
}

TEST(RealEngine, RegisterIsIdempotent) {
    RealCryptoEngine engine(6, 256);
    engine.register_node(1);
    const auto fp = engine.keys_of(1).pub.fingerprint();
    engine.register_node(1);
    EXPECT_EQ(engine.keys_of(1).pub.fingerprint(), fp);
}

TEST(RealEngine, Paper512BitTrapdoorFitsBudget) {
    // One full-size check at the paper's parameters: 512-bit RSA, trapdoor
    // <= 64 bytes carrying (src, loc_s, tag_d).
    RealCryptoEngine engine(7, 512);
    engine.register_node(1);
    engine.register_node(2);
    Rng rng(1);
    geoanon::util::ByteWriter payload;
    payload.u64(1);          // src
    payload.f64(123.0);      // loc x
    payload.f64(45.0);       // loc y
    payload.u64(0xC0DE);     // tag
    const Bytes td = engine.make_trapdoor(2, payload.data(), rng);
    EXPECT_LE(td.size(), 64u);
    EXPECT_EQ(engine.try_open_trapdoor(2, td), payload.data());
    EXPECT_FALSE(engine.try_open_trapdoor(1, td).has_value());
}

TEST(CryptoCosts, PaperDefaults) {
    CryptoCosts costs;
    EXPECT_EQ(costs.pk_encrypt, geoanon::util::SimTime::micros(500));
    EXPECT_EQ(costs.pk_decrypt, geoanon::util::SimTime::micros(8500));
    // Ring cost model: sign = 1 private + (m-1) public ops.
    EXPECT_GT(costs.ring_sign(5), costs.pk_decrypt);
    EXPECT_GT(costs.ring_verify(5), costs.ring_verify(2));
}

}  // namespace
