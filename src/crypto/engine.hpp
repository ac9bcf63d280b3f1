#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/cert.hpp"
#include "crypto/feistel.hpp"
#include "crypto/ring_signature.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace geoanon::crypto {

/// Numeric node identity as used by the crypto layer.
using NodeIdNum = std::uint64_t;

/// 48-bit pseudonym (MAC-address sized, §5). Value 0 is reserved as the
/// "last forwarding attempt" marker (§3.2) and is never generated.
using Pseudonym = std::uint64_t;
inline constexpr Pseudonym kLastAttemptPseudonym = 0;

/// Modeled CPU costs for cryptographic operations, charged as processing
/// delays inside the simulator. Defaults follow §5 of the paper (portable
/// computer, RSA-512: 0.5 ms public-key encryption, 8.5 ms decryption).
struct CryptoCosts {
    util::SimTime pk_encrypt{util::SimTime::micros(500)};
    util::SimTime pk_decrypt{util::SimTime::micros(8500)};
    util::SimTime sym_op{util::SimTime::micros(10)};
    util::SimTime hash_op{util::SimTime::micros(5)};

    /// Ring signing: one private-key op for the signer's slot plus one
    /// public-key op per other member, plus the symmetric chain.
    util::SimTime ring_sign(std::size_t members) const {
        return pk_decrypt + pk_encrypt * static_cast<std::int64_t>(members > 0 ? members - 1 : 0) +
               sym_op * static_cast<std::int64_t>(members + 1);
    }
    /// Ring verification: one public-key op per member plus the chain.
    util::SimTime ring_verify(std::size_t members) const {
        return pk_encrypt * static_cast<std::int64_t>(members) +
               sym_op * static_cast<std::int64_t>(members + 1);
    }
};

/// Cryptographic services consumed by the anonymous routing stack.
///
/// Two implementations:
///  - RealCryptoEngine runs the actual RSA/ring-signature math (used in unit
///    and integration tests — proves the constructions work end to end);
///  - ModeledCryptoEngine fabricates opaque tokens with the right sizes and
///    opening semantics but O(hash) cost (used in the large Figure-1 sweeps,
///    where the paper-accurate *time* cost is charged via costs(), exactly
///    like ns-2 charged a modeled processing delay rather than doing RSA).
class CryptoEngine {
  public:
    virtual ~CryptoEngine() = default;

    /// Create keys/certificates for a node. Must be called before any other
    /// operation naming this id. Idempotent.
    virtual void register_node(NodeIdNum id) = 0;
    virtual bool has_node(NodeIdNum id) const = 0;

    /// Every registered id, in first-registration order: the PKI's set of
    /// valid users that ring members are drawn from (§3.1.2).
    std::span<const NodeIdNum> valid_users() const { return valid_users_; }

    /// §3.1.1: n = hash(pr, id) truncated to 48 bits; never returns the
    /// reserved value 0. Cheap in both engines (it is just a hash).
    // geoanon: sanitizer(pseudonym)
    Pseudonym make_pseudonym(NodeIdNum id, std::uint64_t pr) const;

    /// Keyed 64-bit pseudorandom permutation over data-packet uids. AGFW
    /// builds uids as (source id << 32 | counter), which guarantees global
    /// uniqueness but would leak the data source's identity on every wire
    /// frame (including the ACKs that echo uids back). Passing the raw uid
    /// through a PRP keeps uniqueness exactly (bijective) while making the
    /// layout unrecoverable without the engine key. Deterministic in the
    /// engine seed; consumes no Rng draws.
    // geoanon: sanitizer(uid-prp)
    std::uint64_t anonymize_uid(std::uint64_t uid) const;

    // --- Trapdoors (§3.2) -------------------------------------------------
    /// Build a trapdoor only `dest` can open, carrying `payload`
    /// (source id/location/tag in AGFW). Fixed-size output (trapdoor_bytes()).
    // geoanon: sanitizer(trapdoor)
    virtual util::Bytes make_trapdoor(NodeIdNum dest, std::span<const std::uint8_t> payload,
                                      util::Rng& rng) = 0;
    /// Attempt to open; payload iff `self` is the intended destination.
    virtual std::optional<util::Bytes> try_open_trapdoor(
        NodeIdNum self, std::span<const std::uint8_t> trapdoor) = 0;
    virtual std::size_t trapdoor_bytes() const = 0;

    // --- Public-key encryption for ALS (§3.3) ------------------------------
    /// Multi-block public-key encryption of arbitrary-length plaintext.
    // geoanon: sanitizer(pk-encrypt)
    virtual util::Bytes encrypt_for(NodeIdNum dest, std::span<const std::uint8_t> plaintext,
                                    util::Rng& rng) = 0;
    virtual std::optional<util::Bytes> try_decrypt(NodeIdNum self,
                                                   std::span<const std::uint8_t> ct) = 0;

    // --- ALS row index (§3.3) ----------------------------------------------
    /// Deterministic fixed-size index E_{K_B}(A,B): computable by anyone who
    /// holds B's certificate (which is exactly the paper's stated exposure
    /// risk for the indexed ALS variant), equal at updater and requester.
    // geoanon: sanitizer(als-index)
    virtual util::Bytes als_index(NodeIdNum updater, NodeIdNum requester) const = 0;
    static constexpr std::size_t kAlsIndexBytes = 16;

    // --- Ring signatures (§3.1.2) -------------------------------------------
    /// Sign as `signer` (which must appear in `ring`). Returns the serialized
    /// signature. A sanitizer for the *signer* identity only: the ring member
    /// list itself still rides the wire in cleartext (the paper's §3.1.2
    /// anonymity-set design — see the suppression at the hello builder).
    // geoanon: sanitizer(ring-sig)
    virtual util::Bytes ring_sign_msg(NodeIdNum signer, std::span<const NodeIdNum> ring,
                                      std::span<const std::uint8_t> msg, util::Rng& rng) = 0;
    virtual bool ring_verify_msg(std::span<const NodeIdNum> ring,
                                 std::span<const std::uint8_t> msg,
                                 std::span<const std::uint8_t> sig) = 0;
    /// Wire size of a ring signature for `members` ring members.
    virtual std::size_t ring_signature_bytes(std::size_t members) const = 0;
    /// Wire size of one attached certificate.
    virtual std::size_t certificate_bytes() const = 0;

    const CryptoCosts& costs() const { return costs_; }
    CryptoCosts& costs() { return costs_; }

  protected:
    /// The seed keys the uid permutation; both engines forward their own seed
    /// so a whole simulation shares one uid keyspace.
    explicit CryptoEngine(std::uint64_t seed);

    CryptoCosts costs_;
    /// Appended by register_node on an id's first registration.
    std::vector<NodeIdNum> valid_users_;

  private:
    FeistelPermutation uid_prp_;
};

/// Engine doing the real math; key sizes configurable so tests can trade
/// security bits for speed (the paper uses 512).
class RealCryptoEngine final : public CryptoEngine {
  public:
    explicit RealCryptoEngine(std::uint64_t seed, std::size_t modulus_bits = 512);

    void register_node(NodeIdNum id) override;
    bool has_node(NodeIdNum id) const override;

    util::Bytes make_trapdoor(NodeIdNum dest, std::span<const std::uint8_t> payload,
                              util::Rng& rng) override;
    std::optional<util::Bytes> try_open_trapdoor(
        NodeIdNum self, std::span<const std::uint8_t> trapdoor) override;
    std::size_t trapdoor_bytes() const override { return modulus_bits_ / 8; }

    util::Bytes encrypt_for(NodeIdNum dest, std::span<const std::uint8_t> plaintext,
                            util::Rng& rng) override;
    std::optional<util::Bytes> try_decrypt(NodeIdNum self,
                                           std::span<const std::uint8_t> ct) override;

    util::Bytes als_index(NodeIdNum updater, NodeIdNum requester) const override;

    util::Bytes ring_sign_msg(NodeIdNum signer, std::span<const NodeIdNum> ring,
                              std::span<const std::uint8_t> msg, util::Rng& rng) override;
    bool ring_verify_msg(std::span<const NodeIdNum> ring, std::span<const std::uint8_t> msg,
                         std::span<const std::uint8_t> sig) override;
    std::size_t ring_signature_bytes(std::size_t members) const override;
    std::size_t certificate_bytes() const override;

    /// Direct access for tests and the adversary-free examples.
    const CertificateAuthority& ca() const { return ca_; }
    const Certificate& certificate_of(NodeIdNum id) const;
    const RsaKeyPair& keys_of(NodeIdNum id) const;

  private:
    std::vector<RsaPublicKey> ring_keys(std::span<const NodeIdNum> ring) const;

    util::Rng rng_;
    std::size_t modulus_bits_;
    CertificateAuthority ca_;
    struct NodeMaterial {
        RsaKeyPair keys;
        Certificate cert;
    };
    std::unordered_map<NodeIdNum, NodeMaterial> nodes_;
};

/// Cheap engine with identical observable semantics and wire sizes. Tokens
/// are keystream-encrypted blobs; only the registered destination id opens
/// them. Suitable for the big simulation sweeps.
class ModeledCryptoEngine final : public CryptoEngine {
  public:
    explicit ModeledCryptoEngine(std::uint64_t seed, std::size_t modulus_bits = 512);

    void register_node(NodeIdNum id) override;
    bool has_node(NodeIdNum id) const override;

    util::Bytes make_trapdoor(NodeIdNum dest, std::span<const std::uint8_t> payload,
                              util::Rng& rng) override;
    std::optional<util::Bytes> try_open_trapdoor(
        NodeIdNum self, std::span<const std::uint8_t> trapdoor) override;
    std::size_t trapdoor_bytes() const override { return modulus_bits_ / 8; }

    util::Bytes encrypt_for(NodeIdNum dest, std::span<const std::uint8_t> plaintext,
                            util::Rng& rng) override;
    std::optional<util::Bytes> try_decrypt(NodeIdNum self,
                                           std::span<const std::uint8_t> ct) override;

    util::Bytes als_index(NodeIdNum updater, NodeIdNum requester) const override;

    util::Bytes ring_sign_msg(NodeIdNum signer, std::span<const NodeIdNum> ring,
                              std::span<const std::uint8_t> msg, util::Rng& rng) override;
    bool ring_verify_msg(std::span<const NodeIdNum> ring, std::span<const std::uint8_t> msg,
                         std::span<const std::uint8_t> sig) override;
    std::size_t ring_signature_bytes(std::size_t members) const override;
    std::size_t certificate_bytes() const override;

  private:
    /// SHA-256(seed || id): the key a node's tokens are sealed under.
    Sha256::Digest derive_secret(NodeIdNum id) const;
    /// derive_secret(id), cached on a registered node's first use (not at
    /// register_node, so set-up time and memory do not depend on it);
    /// nullptr when `id` is not registered.
    const Sha256::Digest* registered_secret(NodeIdNum id);
    /// nonce(8) || E_dest(magic(4) || payload(len-prefixed) || zero pad),
    /// with a body of `body_bytes`.
    util::Bytes seal(NodeIdNum dest, std::span<const std::uint8_t> payload,
                     std::size_t body_bytes, util::Rng& rng);
    /// The payload of a seal() made for `self`, else nullopt.
    std::optional<util::Bytes> unseal(NodeIdNum self, std::span<const std::uint8_t> sealed);

    std::uint64_t seed_;
    std::size_t modulus_bits_;
    std::unordered_set<NodeIdNum> nodes_;
    std::unordered_map<NodeIdNum, Sha256::Digest> secrets_;
};

}  // namespace geoanon::crypto
