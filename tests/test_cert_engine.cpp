#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
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

// --------------------------------------------- known answers (exact bytes)

// The property tests above would still pass if a refactor changed every
// output. These pin exact bytes, captured from the original allocation-heavy
// implementation of the modeled engine, so the simulator's results cannot
// drift silently.

std::string hex(const Bytes& b) { return geoanon::util::to_hex(b); }

Bytes kat_payload() {
    Bytes payload(32);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(0xA0 + i);
    return payload;
}

TEST(EngineKnownAnswers, AnonymizeUid) {
    struct Case {
        std::uint64_t seed, uid, expected;
    };
    const Case cases[] = {
        {1, 0, 0x23b2cb66958c8148ull},
        {1, 1, 0xe468ba34e328ff9full},
        {1, (7ull << 32) | 1, 0xa60ed504078e5004ull},
        {1, (42ull << 32) | 99, 0xc13518b5932c7249ull},
        {1, 0x0123456789abcdefull, 0x0dd68f602a5a632full},
        {1, ~0ull, 0x554c7f40bce27f1cull},
        {90001, 0, 0x326ccab843a5dfcfull},
        {90001, 1, 0xb895dd9db0949cb6ull},
        {90001, (7ull << 32) | 1, 0x8d951d0df34cda30ull},
        {90001, (42ull << 32) | 99, 0x8f95d0a8b08f5e14ull},
        {90001, 0x0123456789abcdefull, 0x748abf4ba24b4b9cull},
        {90001, ~0ull, 0x0d5f9c61b2cb7e0dull},
    };
    for (const Case& c : cases) {
        const ModeledCryptoEngine engine(c.seed);
        EXPECT_EQ(engine.anonymize_uid(c.uid), c.expected) << "seed " << c.seed << " uid " << c.uid;
    }
}

TEST(EngineKnownAnswers, TrapdoorsAndEncryptFor) {
    // One Rng stream feeds all four tokens, in this order.
    ModeledCryptoEngine engine(7);
    engine.register_node(1);
    engine.register_node(2);
    Rng rng(11);
    const Bytes trapdoor = engine.make_trapdoor(2, kat_payload(), rng);
    EXPECT_EQ(hex(trapdoor),
              "39287fc26939a7df1bd9ca17a3df8ed9ee4364a9b58d17ff5064f8e51242920f"
              "86be48b7ad421d1d3f59ad5999abf6cc74dfd7eede4571aaf9f4d053d4dba789");
    EXPECT_EQ(hex(engine.make_trapdoor(1, Bytes{'h', 'i'}, rng)),
              "1654fe5f5c55a0817c64aad5d62b35293a4357a3ba4f6a0c034ff6cc4f2f2f37"
              "ff3a615c10a3d023b32ba421cce9d916f59cc772a9d2a35a1fc3f055dc6e55f8");
    Bytes plaintext(100);
    for (std::size_t i = 0; i < plaintext.size(); ++i)
        plaintext[i] = static_cast<std::uint8_t>(i ^ 0x5C);
    const Bytes row = engine.encrypt_for(1, plaintext, rng);
    EXPECT_EQ(hex(row),
              "3ec96828463614ad6516f89e1374f0a6192d9ddefea6fe6bef6aeb976f94d5e1"
              "e98fe56ac99efdb0f9408d36309457116ccb4684ba413c8a144231cbdd2a08be"
              "130fc16df37168c1454b821be3ca845a7b1afad58c75219e3db70ed16f110734"
              "e020557af484701f9e57700222737a055717989848ac3c58561ce1cb694e009f"
              "ae82c60e18789afb312eb46b8ea10db0");
    EXPECT_EQ(hex(engine.encrypt_for(2, Bytes{}, rng)), "719b3caece494e38005435700d165c47");
    // The owners read back exactly what was sealed.
    EXPECT_EQ(engine.try_open_trapdoor(2, trapdoor), kat_payload());
    EXPECT_EQ(engine.try_decrypt(1, row), plaintext);
}

TEST(EngineKnownAnswers, AlsIndexPseudonymsAndRingToken) {
    ModeledCryptoEngine engine(7);
    engine.register_node(1);
    engine.register_node(2);
    engine.register_node(3);
    EXPECT_EQ(hex(engine.als_index(3, 4)), "c66cc86b1bafc61ef9056800235026ee");
    EXPECT_EQ(hex(engine.als_index(90001, 1)), "7eb7f3bbb429bf4c2069bcbc314aec60");
    EXPECT_EQ(engine.make_pseudonym(1, 0), 0xcd10bb7ec37bull);
    EXPECT_EQ(engine.make_pseudonym(1, 1), 0xeabf88729cb4ull);
    EXPECT_EQ(engine.make_pseudonym(1, 0xdeadbeef), 0xbe4cfb02552eull);
    EXPECT_EQ(engine.make_pseudonym(2, 0), 0x65c9a376a1a8ull);
    EXPECT_EQ(engine.make_pseudonym(2, 0xdeadbeef), 0x99745f8ab18eull);
    EXPECT_EQ(engine.make_pseudonym(12345, 1), 0xa4238f29fc2aull);
    EXPECT_EQ(engine.make_pseudonym(12345, 0xdeadbeef), 0x565aea201060ull);
    Rng rng(1);
    const NodeIdNum ring[] = {1, 2, 3};
    const Bytes sig = engine.ring_sign_msg(2, ring, Bytes{'m', 's', 'g'}, rng);
    ASSERT_EQ(sig.size(), engine.ring_signature_bytes(3));
    EXPECT_EQ(hex(Bytes(sig.begin(), sig.begin() + 32)),
              "deadeb60a05cc8d6d809beae1174389e2a2107d12062207d7b8ea0cd35393639");
    EXPECT_TRUE(std::all_of(sig.begin() + 32, sig.end(), [](std::uint8_t b) { return b == 0; }));
}

// ------------------------------------------- modeled engine: reject paths

class ModeledRejects : public ::testing::Test {
  protected:
    ModeledRejects() : engine_(7) {
        engine_.register_node(1);
        engine_.register_node(2);
        trapdoor_ = engine_.make_trapdoor(2, kat_payload(), rng_);
        row_ = engine_.encrypt_for(2, kat_payload(), rng_);
    }
    ModeledCryptoEngine engine_;
    Rng rng_{11};
    Bytes trapdoor_;
    Bytes row_;
};

TEST_F(ModeledRejects, OwnerOpensAndOthersDoNot) {
    EXPECT_EQ(engine_.try_open_trapdoor(2, trapdoor_), kat_payload());
    EXPECT_EQ(engine_.try_decrypt(2, row_), kat_payload());
    EXPECT_FALSE(engine_.try_open_trapdoor(1, trapdoor_).has_value());
    EXPECT_FALSE(engine_.try_decrypt(1, row_).has_value());
}

TEST_F(ModeledRejects, FlippedMagicByteRejectsTheOwner) {
    // The magic sits right after the 8-byte nonce.
    for (std::size_t i = 8; i < 12; ++i) {
        Bytes td = trapdoor_;
        td[i] ^= 0x01;
        EXPECT_FALSE(engine_.try_open_trapdoor(2, td).has_value()) << "byte " << i;
        Bytes row = row_;
        row[i] ^= 0x80;
        EXPECT_FALSE(engine_.try_decrypt(2, row).has_value()) << "byte " << i;
    }
    // A flipped nonce byte changes the whole keystream.
    Bytes td = trapdoor_;
    td[0] ^= 0x01;
    EXPECT_FALSE(engine_.try_open_trapdoor(2, td).has_value());
}

TEST_F(ModeledRejects, WrongSizeRejectsTheOwner) {
    Bytes longer = trapdoor_;
    longer.push_back(0);
    EXPECT_FALSE(engine_.try_open_trapdoor(2, longer).has_value());
    const Bytes shorter(trapdoor_.begin(), trapdoor_.end() - 1);
    EXPECT_FALSE(engine_.try_open_trapdoor(2, shorter).has_value());
    EXPECT_FALSE(engine_.try_open_trapdoor(2, Bytes{}).has_value());
    // try_decrypt takes any length, but a body cut inside the payload fails
    // its length prefix, and one shorter than nonce + magic is never opened.
    const Bytes cut(row_.begin(), row_.begin() + 8 + 4 + 4 + 10);
    EXPECT_FALSE(engine_.try_decrypt(2, cut).has_value());
    for (std::size_t n = 0; n < 12; ++n)
        EXPECT_FALSE(engine_.try_decrypt(2, Bytes(row_.begin(), row_.begin() + n)).has_value());
}

TEST_F(ModeledRejects, UnregisteredSelfNeverOpens) {
    EXPECT_FALSE(engine_.try_open_trapdoor(99, trapdoor_).has_value());
    EXPECT_FALSE(engine_.try_decrypt(99, row_).has_value());
    // A token sealed for an id before it registers opens once it has.
    const Bytes early = engine_.make_trapdoor(9, kat_payload(), rng_);
    EXPECT_FALSE(engine_.try_open_trapdoor(9, early).has_value());
    engine_.register_node(9);
    EXPECT_EQ(engine_.try_open_trapdoor(9, early), kat_payload());
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
