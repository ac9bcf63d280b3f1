#include "crypto/engine.hpp"

#include <cassert>
#include <stdexcept>

#include "crypto/sha256.hpp"

namespace geoanon::crypto {

namespace {
constexpr std::uint32_t kTrapdoorMagic = 0x54524150;  // "TRAP"
constexpr std::uint64_t kPseudonymMask = (1ULL << 48) - 1;

util::Bytes uid_prp_key(std::uint64_t seed) {
    util::ByteWriter w;
    w.u64(seed);
    Sha256 h;
    h.update(w.data());
    h.update("geoanon-uid-prp");
    const Sha256::Digest d = h.finish();
    return util::Bytes(d.begin(), d.end());
}
}  // namespace

CryptoEngine::CryptoEngine(std::uint64_t seed)
    : uid_prp_(uid_prp_key(seed), /*block_bytes=*/8) {}

std::uint64_t CryptoEngine::anonymize_uid(std::uint64_t uid) const {
    std::array<std::uint8_t, 8> block;
    for (int i = 0; i < 8; ++i)
        block[i] = static_cast<std::uint8_t>(uid >> (56 - 8 * i));
    const util::Bytes out = uid_prp_.encrypt(block);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | out[static_cast<std::size_t>(i)];
    return v;
}

Pseudonym CryptoEngine::make_pseudonym(NodeIdNum id, std::uint64_t pr) const {
    util::ByteWriter w;
    w.u64(pr);
    w.u64(id);
    Pseudonym n = sha256_u64(w.data()) & kPseudonymMask;
    // 0 is the reserved last-attempt marker; remap deterministically.
    if (n == kLastAttemptPseudonym) n = 1;
    return n;
}

// ---------------------------------------------------------------------------
// RealCryptoEngine
// ---------------------------------------------------------------------------

RealCryptoEngine::RealCryptoEngine(std::uint64_t seed, std::size_t modulus_bits)
    : CryptoEngine(seed), rng_(seed), modulus_bits_(modulus_bits), ca_(rng_, modulus_bits) {}

void RealCryptoEngine::register_node(NodeIdNum id) {
    if (nodes_.contains(id)) return;
    NodeMaterial m;
    m.keys = rsa_generate(rng_, modulus_bits_);
    m.cert = ca_.issue(id, m.keys.pub);
    nodes_.emplace(id, std::move(m));
    valid_users_.push_back(id);
}

bool RealCryptoEngine::has_node(NodeIdNum id) const { return nodes_.contains(id); }

const Certificate& RealCryptoEngine::certificate_of(NodeIdNum id) const {
    return nodes_.at(id).cert;
}

const RsaKeyPair& RealCryptoEngine::keys_of(NodeIdNum id) const {
    return nodes_.at(id).keys;
}

util::Bytes RealCryptoEngine::make_trapdoor(NodeIdNum dest,
                                            std::span<const std::uint8_t> payload,
                                            util::Rng& rng) {
    const auto& dest_material = nodes_.at(dest);
    util::ByteWriter w;
    w.u32(kTrapdoorMagic);
    w.bytes(payload);
    auto ct = rsa_encrypt(dest_material.keys.pub, rng, w.data());
    if (!ct) throw std::length_error("trapdoor payload exceeds one RSA block");
    return std::move(*ct);
}

std::optional<util::Bytes> RealCryptoEngine::try_open_trapdoor(
    NodeIdNum self, std::span<const std::uint8_t> trapdoor) {
    auto it = nodes_.find(self);
    if (it == nodes_.end()) return std::nullopt;
    auto pt = rsa_decrypt(it->second.keys.priv, trapdoor);
    if (!pt) return std::nullopt;
    util::ByteReader r(*pt);
    auto magic = r.u32();
    if (!magic || *magic != kTrapdoorMagic) return std::nullopt;
    return r.bytes();
}

util::Bytes RealCryptoEngine::encrypt_for(NodeIdNum dest,
                                          std::span<const std::uint8_t> plaintext,
                                          util::Rng& rng) {
    const auto& pub = nodes_.at(dest).keys.pub;
    const std::size_t chunk = pub.modulus_bytes() - 11;
    util::ByteWriter w;
    const std::size_t blocks = (plaintext.size() + chunk - 1) / chunk;
    w.u32(static_cast<std::uint32_t>(blocks));
    w.u32(static_cast<std::uint32_t>(plaintext.size()));
    for (std::size_t i = 0; i < blocks; ++i) {
        const std::size_t off = i * chunk;
        const std::size_t len = std::min(chunk, plaintext.size() - off);
        auto ct = rsa_encrypt(pub, rng, plaintext.subspan(off, len));
        w.bytes(*ct);  // cannot fail: len <= chunk
    }
    return w.take();
}

std::optional<util::Bytes> RealCryptoEngine::try_decrypt(
    NodeIdNum self, std::span<const std::uint8_t> ct) {
    auto it = nodes_.find(self);
    if (it == nodes_.end()) return std::nullopt;
    util::ByteReader r(ct);
    auto blocks = r.u32();
    auto total = r.u32();
    if (!blocks || !total) return std::nullopt;
    util::Bytes out;
    for (std::uint32_t i = 0; i < *blocks; ++i) {
        auto block = r.bytes();
        if (!block) return std::nullopt;
        auto pt = rsa_decrypt(it->second.keys.priv, *block);
        if (!pt) return std::nullopt;
        out.insert(out.end(), pt->begin(), pt->end());
    }
    if (out.size() != *total) return std::nullopt;
    return out;
}

util::Bytes RealCryptoEngine::als_index(NodeIdNum updater, NodeIdNum requester) const {
    util::ByteWriter w;
    w.bytes(nodes_.at(requester).keys.pub.serialize());
    w.u64(updater);
    w.u64(requester);
    const auto digest = Sha256::hash(w.data());
    return util::Bytes(digest.begin(), digest.begin() + kAlsIndexBytes);
}

std::vector<RsaPublicKey> RealCryptoEngine::ring_keys(
    std::span<const NodeIdNum> ring) const {
    std::vector<RsaPublicKey> keys;
    keys.reserve(ring.size());
    for (NodeIdNum id : ring) keys.push_back(nodes_.at(id).keys.pub);
    return keys;
}

util::Bytes RealCryptoEngine::ring_sign_msg(NodeIdNum signer,
                                            std::span<const NodeIdNum> ring,
                                            std::span<const std::uint8_t> msg,
                                            util::Rng& rng) {
    const auto keys = ring_keys(ring);
    std::size_t signer_index = keys.size();
    for (std::size_t i = 0; i < ring.size(); ++i) {
        if (ring[i] == signer) {
            signer_index = i;
            break;
        }
    }
    assert(signer_index < keys.size() && "signer must be a ring member");
    const RingSignature sig =
        ring_sign(msg, keys, signer_index, nodes_.at(signer).keys.priv, rng);
    return sig.serialize();
}

bool RealCryptoEngine::ring_verify_msg(std::span<const NodeIdNum> ring,
                                       std::span<const std::uint8_t> msg,
                                       std::span<const std::uint8_t> sig_bytes) {
    for (NodeIdNum id : ring)
        if (!nodes_.contains(id)) return false;
    util::ByteReader r(sig_bytes);
    auto sig = RingSignature::deserialize(r);
    if (!sig) return false;
    return ring_verify(msg, ring_keys(ring), *sig);
}

std::size_t RealCryptoEngine::ring_signature_bytes(std::size_t members) const {
    // Mirrors RingSignature::serialize() with the common-domain block width.
    const std::size_t block = ((modulus_bits_ + 64 + 15) / 16) * 2;
    return 4 + (4 + block) + 4 + members * (4 + block);
}

std::size_t RealCryptoEngine::certificate_bytes() const {
    // u64 id + length-prefixed key (n: 4+k bytes, e=65537: 4+3 bytes) + sig.
    const std::size_t k = modulus_bits_ / 8;
    return 8 + (4 + (4 + k + 4 + 3)) + (4 + k);
}

// ---------------------------------------------------------------------------
// ModeledCryptoEngine
// ---------------------------------------------------------------------------

ModeledCryptoEngine::ModeledCryptoEngine(std::uint64_t seed, std::size_t modulus_bits)
    : CryptoEngine(seed), seed_(seed), modulus_bits_(modulus_bits) {}

void ModeledCryptoEngine::register_node(NodeIdNum id) {
    if (nodes_.insert(id).second) valid_users_.push_back(id);
}

bool ModeledCryptoEngine::has_node(NodeIdNum id) const { return nodes_.contains(id); }

util::Bytes ModeledCryptoEngine::node_secret(NodeIdNum id) const {
    util::ByteWriter w;
    w.u64(seed_);
    w.u64(id);
    const auto digest = Sha256::hash(w.data());
    return util::Bytes(digest.begin(), digest.end());
}

util::Bytes ModeledCryptoEngine::make_trapdoor(NodeIdNum dest,
                                               std::span<const std::uint8_t> payload,
                                               util::Rng& rng) {
    const std::size_t size = trapdoor_bytes();
    // Layout: nonce(8) || E_dest(magic(4) || payload(len-prefixed) || pad).
    util::ByteWriter inner;
    inner.u32(kTrapdoorMagic);
    inner.bytes(payload);
    util::Bytes body = inner.take();
    if (body.size() + 8 > size)
        throw std::length_error("trapdoor payload exceeds modeled trapdoor size");
    body.resize(size - 8, 0);

    const std::uint64_t nonce = rng.next_u64();
    util::ByteWriter key;
    key.bytes(node_secret(dest));
    key.u64(nonce);
    const util::Bytes stream = sha256_keystream(key.data(), body.size());
    for (std::size_t i = 0; i < body.size(); ++i) body[i] ^= stream[i];

    util::ByteWriter out;
    out.u64(nonce);
    out.raw(body);
    return out.take();
}

std::optional<util::Bytes> ModeledCryptoEngine::try_open_trapdoor(
    NodeIdNum self, std::span<const std::uint8_t> trapdoor) {
    if (!nodes_.contains(self) || trapdoor.size() != trapdoor_bytes()) return std::nullopt;
    util::ByteReader r(trapdoor);
    const auto nonce = r.u64();
    if (!nonce) return std::nullopt;
    auto body = r.raw(r.remaining());
    util::ByteWriter key;
    key.bytes(node_secret(self));
    key.u64(*nonce);
    const util::Bytes stream = sha256_keystream(key.data(), body->size());
    for (std::size_t i = 0; i < body->size(); ++i) (*body)[i] ^= stream[i];

    util::ByteReader inner(*body);
    auto magic = inner.u32();
    if (!magic || *magic != kTrapdoorMagic) return std::nullopt;
    return inner.bytes();
}

util::Bytes ModeledCryptoEngine::encrypt_for(NodeIdNum dest,
                                             std::span<const std::uint8_t> plaintext,
                                             util::Rng& rng) {
    // Same nonce+keystream trick, arbitrary length; size matches the real
    // engine's block expansion so byte-overhead measurements agree.
    const std::size_t k = modulus_bits_ / 8;
    const std::size_t chunk = k - 11;
    const std::size_t blocks = (plaintext.size() + chunk - 1) / chunk;
    const std::size_t real_size = 4 + 4 + blocks * (4 + k);

    util::ByteWriter inner;
    inner.u32(kTrapdoorMagic);
    inner.bytes(plaintext);
    util::Bytes body = inner.take();
    body.resize(std::max(body.size(), real_size - 8), 0);

    const std::uint64_t nonce = rng.next_u64();
    util::ByteWriter key;
    key.bytes(node_secret(dest));
    key.u64(nonce);
    const util::Bytes stream = sha256_keystream(key.data(), body.size());
    for (std::size_t i = 0; i < body.size(); ++i) body[i] ^= stream[i];

    util::ByteWriter out;
    out.u64(nonce);
    out.raw(body);
    return out.take();
}

std::optional<util::Bytes> ModeledCryptoEngine::try_decrypt(
    NodeIdNum self, std::span<const std::uint8_t> ct) {
    if (!nodes_.contains(self) || ct.size() < 8) return std::nullopt;
    util::ByteReader r(ct);
    const auto nonce = r.u64();
    auto body = r.raw(r.remaining());
    util::ByteWriter key;
    key.bytes(node_secret(self));
    key.u64(*nonce);
    const util::Bytes stream = sha256_keystream(key.data(), body->size());
    for (std::size_t i = 0; i < body->size(); ++i) (*body)[i] ^= stream[i];

    util::ByteReader inner(*body);
    auto magic = inner.u32();
    if (!magic || *magic != kTrapdoorMagic) return std::nullopt;
    return inner.bytes();
}

util::Bytes ModeledCryptoEngine::als_index(NodeIdNum updater, NodeIdNum requester) const {
    util::ByteWriter w;
    w.u64(seed_);
    w.str("als-index");
    w.u64(updater);
    w.u64(requester);
    const auto digest = Sha256::hash(w.data());
    return util::Bytes(digest.begin(), digest.begin() + kAlsIndexBytes);
}

util::Bytes ModeledCryptoEngine::ring_sign_msg(NodeIdNum signer,
                                               std::span<const NodeIdNum> ring,
                                               std::span<const std::uint8_t> msg,
                                               util::Rng& rng) {
    (void)rng;
    // Token: MAC over (seed, ring, msg) that verifies iff the claimed ring
    // and message match; the signer id is intentionally NOT bound (signer
    // ambiguity). Padded to the real signature's wire size.
    Sha256 h;
    util::ByteWriter w;
    w.u64(seed_);
    for (NodeIdNum id : ring) w.u64(id);
    h.update(w.data());
    h.update(msg);
    const auto digest = h.finish();

    // A real forger would not know `signer`'s key; the modeled engine only
    // issues tokens for registered members, preserving the semantics.
    if (!nodes_.contains(signer)) return {};
    bool member = false;
    for (NodeIdNum id : ring) member = member || id == signer;
    if (!member) return {};

    util::Bytes out(ring_signature_bytes(ring.size()), 0);
    std::copy(digest.begin(), digest.end(), out.begin());
    return out;
}

bool ModeledCryptoEngine::ring_verify_msg(std::span<const NodeIdNum> ring,
                                          std::span<const std::uint8_t> msg,
                                          std::span<const std::uint8_t> sig) {
    if (sig.size() != ring_signature_bytes(ring.size()) || sig.size() < Sha256::kDigestSize)
        return false;
    Sha256 h;
    util::ByteWriter w;
    w.u64(seed_);
    for (NodeIdNum id : ring) w.u64(id);
    h.update(w.data());
    h.update(msg);
    const auto digest = h.finish();
    return util::bytes_equal({sig.data(), Sha256::kDigestSize},
                             {digest.data(), Sha256::kDigestSize});
}

std::size_t ModeledCryptoEngine::ring_signature_bytes(std::size_t members) const {
    const std::size_t block = ((modulus_bits_ + 64 + 15) / 16) * 2;
    return 4 + (4 + block) + 4 + members * (4 + block);
}

std::size_t ModeledCryptoEngine::certificate_bytes() const {
    const std::size_t k = modulus_bits_ / 8;
    return 8 + (4 + (4 + k + 4 + 3)) + (4 + k);
}

}  // namespace geoanon::crypto
