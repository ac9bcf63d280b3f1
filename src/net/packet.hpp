#pragma once

#include <cstdint>
#include <memory>

#include "net/types.hpp"
#include "util/bytes.hpp"
#include "util/time.hpp"
#include "util/vec2.hpp"

namespace geoanon::net {

using util::Bytes;
using util::SimTime;
using util::Vec2;

/// Network-layer message kinds across all protocols in the repo.
enum class PacketType : std::uint8_t {
    // Plain geographic routing (GPSR baseline)
    kGpsrHello,
    kGpsrData,
    // Anonymous geographic routing (the paper's scheme)
    kAgfwHello,  ///< §3.1 ANT hello: ⟨HELLO, n, loc, ts⟩ (+ optional ring sig)
    kAgfwData,   ///< §3.2 ⟨DATA, loc_d, n, trapdoor⟩
    kAgfwAck,    ///< §3.2 network-layer acknowledgment (local broadcast)
    // Location service (plain DLM and anonymous ALS variants share types);
    // kLocUpdate..kLocDigest stay contiguous for is_location_service().
    kLocUpdate,   ///< RLU: remote location update towards the home grid
    kLocRequest,  ///< LREQ
    kLocReply,    ///< LREP
    kLocReplicate,  ///< one-hop server-side replication inside the home grid
    kLocDigest,     ///< anti-entropy store digest among in-grid replicas
};

/// Location-service traffic (any of the kLoc* types).
constexpr bool is_location_service(PacketType t) {
    return t >= PacketType::kLocUpdate && t <= PacketType::kLocDigest;
}

/// One network-layer packet. Deliberately a kitchen-sink struct: the
/// simulator keeps fields structured (instead of serializing) for speed and
/// debuggability, while `wire_bytes` carries the exact on-air size each
/// protocol accounts for (crypto attachments included).
///
/// Immutable after creation; passed by shared_ptr. A forwarder that needs to
/// change routing fields (next-hop pseudonym, hop count) copies the packet.
struct Packet {
    PacketType type{PacketType::kGpsrData};

    // --- accounting / tracing (not on the air) --------------------------
    FlowId flow{0};
    std::uint32_t seq{0};           ///< per-flow application sequence number
    SimTime created_at{};           ///< for end-to-end latency
    std::uint16_t hops{0};          ///< incremented per network-layer hop
    /// Unique per end-to-end packet; survives forwarding copies. Used for
    /// network-layer dedup/implicit-ACK and by the eavesdropper to correlate
    /// consecutive hops ("same trapdoor" correlation, §3.2). Echoed on the
    /// air in ACKs and exported in traces — identity material must pass
    /// CryptoEngine::anonymize_uid before landing here.
    // geoanon: sink(wire)
    std::uint64_t uid{0};

    // --- geographic routing fields (cleartext on the air, §4) -----------
    Vec2 dst_loc{};                 ///< destination location loc_d

    // --- plain (identity-bearing) fields: GPSR / plain DLM only ---------
    // geoanon: sink(wire)
    NodeId src_id{kInvalidNode};
    // geoanon: sink(wire)
    NodeId dst_id{kInvalidNode};

    // --- anonymous fields: AGFW / ANT / ALS ------------------------------
    std::uint64_t next_hop_pseudonym{0};  ///< n; 0 = "last forwarding attempt"
    Bytes trapdoor;                        ///< §3.2 destination trapdoor

    // --- hello fields (kGpsrHello carries id, kAgfwHello pseudonym) ------
    std::uint64_t hello_pseudonym{0};
    // geoanon: sink(wire)
    Vec2 hello_loc{};
    // geoanon: sink(wire)
    Vec2 hello_velocity{};          ///< optional motion hint (§3.1.1)
    SimTime hello_ts{};
    Bytes auth;                     ///< ring signature bytes (authenticated ANT)
    /// Ring member identities (as certificate references, §4); needed by the
    /// verifier to reconstruct the ring.
    // geoanon: sink(wire)
    std::vector<std::uint64_t> ring_members;

    // --- network-layer ACK fields ----------------------------------------
    /// uids being acknowledged; §3.2 allows one ACK to cover several
    /// received packets (aggregation window in AgfwAgent::Params).
    // geoanon: sink(wire)
    std::vector<std::uint64_t> ack_uids;

    // --- location service fields ------------------------------------------
    std::uint32_t grid{0};          ///< ssa(target): home grid index
    Bytes ls_index;                 ///< ALS: E_{K_B}(A,B) row index
    Bytes ls_payload;               ///< ALS: E_{K_B}(A, loc_A, ts)
    // geoanon: sink(wire)
    NodeId ls_subject{kInvalidNode};  ///< plain DLM: subject identity
    // geoanon: sink(wire)
    Vec2 ls_subject_loc{};          ///< plain DLM: subject location
    // geoanon: sink(wire)
    Vec2 requester_loc{};           ///< LREQ: where to send the LREP (loc_B)
    std::uint64_t ls_query_id{0};   ///< matches LREP to LREQ at the requester
    /// Anti-entropy digest row (kLocDigest): a hash of the stored row's key
    /// and its expiry. Hashes of encrypted indexes / public subject ids only —
    /// a digest never carries a location or a cleartext identity.
    struct LsDigestRow {
        std::uint64_t key_hash{0};
        std::uint64_t expires_ns{0};
        friend bool operator==(const LsDigestRow&, const LsDigestRow&) = default;
    };
    // geoanon: sink(wire)
    std::vector<LsDigestRow> ls_digest;
    /// Set on one-hop assist/last-resort copies of LS packets so receivers
    /// only consume or drop them (never re-route: loop prevention).
    bool ls_assist{false};

    // --- perimeter recovery (extension; the paper's §6 future work) ------
    bool perimeter_mode{false};
    Vec2 perimeter_entry{};       ///< L_p: where greedy forwarding failed
    Vec2 prev_hop_loc{};          ///< previous hop's position (right-hand rule)
    std::uint16_t perimeter_hops{0};  ///< safety TTL for the face traversal

    // --- app payload -------------------------------------------------------
    Bytes body;

    /// Exact on-air network-layer size in bytes (headers + crypto blobs +
    /// payload), set by the protocol that builds the packet.
    std::uint32_t wire_bytes{0};
};

using PacketPtr = std::shared_ptr<const Packet>;

namespace pool_detail {

/// Thread-local freelist of fixed-size blocks backing allocate_shared
/// packets. allocate_shared<Packet> makes exactly one allocation (control
/// block + Packet fused), always of the same size; the first allocation
/// fixes the size class and every retired block is kept for reuse, so
/// steady-state packet traffic does zero heap allocations for envelopes.
/// Requests of any other size (there are none in practice) fall through to
/// operator new untouched.
struct FreeList {
    void* head{nullptr};
    std::size_t block_bytes{0};
    ~FreeList() {
        while (head != nullptr) {
            void* next = *static_cast<void**>(head);
            ::operator delete(head);
            head = next;
        }
    }
};

inline FreeList& free_list() {
    thread_local FreeList fl;
    return fl;
}

// geoanon: hot
inline void* pool_alloc(std::size_t bytes) {
    FreeList& fl = free_list();
    if (fl.block_bytes == 0) fl.block_bytes = bytes;
    if (bytes == fl.block_bytes && fl.head != nullptr) {
        void* p = fl.head;
        fl.head = *static_cast<void**>(p);
        return p;
    }
    // geoanon-lint: allow(hot-alloc) -- cold miss: only until the freelist reaches the peak live packet count
    return ::operator new(bytes);
}

// geoanon: hot
inline void pool_free(void* p, std::size_t bytes) noexcept {
    FreeList& fl = free_list();
    if (bytes == fl.block_bytes) {
        *static_cast<void**>(p) = fl.head;
        fl.head = p;
        return;
    }
    ::operator delete(p);
}

template <typename T>
struct PoolAllocator {
    using value_type = T;
    PoolAllocator() = default;
    template <typename U>
    PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT(google-explicit-constructor)
    T* allocate(std::size_t n) {
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                      "freelist blocks carry default new alignment only");
        return static_cast<T*>(pool_alloc(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) noexcept { pool_free(p, n * sizeof(T)); }
    friend bool operator==(const PoolAllocator&, const PoolAllocator&) { return true; }
};

}  // namespace pool_detail

/// Build a fresh packet from the pool (the protocols' replacement for
/// make_shared<Packet>). Field defaults match value-initialization, so this
/// is a drop-in swap; pooling changes only where the memory comes from,
/// never the simulation outcome.
inline std::shared_ptr<Packet> make_packet() {
    return std::allocate_shared<Packet>(pool_detail::PoolAllocator<Packet>{});
}

/// Copy-for-modification helper (forwarders stamp a new next hop); pooled
/// like make_packet().
inline std::shared_ptr<Packet> clone_packet(const Packet& p) {
    return std::allocate_shared<Packet>(pool_detail::PoolAllocator<Packet>{}, p);
}

}  // namespace geoanon::net
