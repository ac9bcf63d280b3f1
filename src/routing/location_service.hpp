#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <variant>
#include <vector>

#include "crypto/engine.hpp"
#include "net/packet.hpp"
#include "net/types.hpp"
#include "obs/counters.hpp"
#include "routing/grid.hpp"
#include "sim/simulator.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace geoanon::routing {

using net::NodeId;
using net::Packet;
using net::PacketPtr;
using util::SimTime;

/// Grid-based location service component hosted by a routing agent.
///
/// Modes:
///  - kPlain          — DLM (Xue et al.): updates carry (id, loc) cleartext.
///  - kAnonymous      — the paper's ALS (§3.3): updates carry the row index
///                      E_{K_B}(A,B) and payload E_{K_B}(A, loc_A, ts); one
///                      row per anticipated requester; queries carry the
///                      index, never the requester identity.
///  - kAnonymousIndexFree — §3.3 alternative: the query carries no index and
///                      the server returns every row of the home grid; the
///                      requester trial-decrypts. Stronger requester
///                      anonymity, higher byte and CPU cost.
///
/// Server role: a node acts as a location server for grid G while it is
/// inside G and close to G's center (the update/replication machinery keeps
/// nearby in-grid nodes in sync, so server handover under mobility works).
class LocationService {
  public:
    enum class Mode { kPlain, kAnonymous, kAnonymousIndexFree };

    struct Params {
        SimTime update_interval{SimTime::seconds(10.0)};
        SimTime entry_ttl{SimTime::seconds(40.0)};
        /// Replicate stored rows to in-range in-grid neighbors on update.
        bool replicate{true};
        /// Anti-entropy among in-grid replicas: periodic digest exchange
        /// (every 5 s), push repair of rows a peer lacks, hinted handoff
        /// when a server leaves the radius, and read repair on assisted
        /// serves. Only meaningful with `replicate` on.
        bool anti_entropy{true};
        /// Last rung of the degradation ladder: serve a row that expired no
        /// longer than this ago when no live row exists (the requester gets
        /// a possibly stale location instead of a failure). Zero disables.
        SimTime stale_grace{};
        /// Periodic sweep dropping expired rows and closed-query records so
        /// long-running servers do not grow unbounded. Zero disables.
        SimTime sweep_interval{SimTime::seconds(10.0)};
        /// Radius around the grid center within which a node serves.
        double server_radius_m{200.0};
    };

    /// Agent-provided capabilities; keeps this component agent-agnostic.
    struct Hooks {
        /// Geo-route `pkt` toward pkt->dst_loc through the host agent.
        std::function<void(std::shared_ptr<Packet>)> route;
        /// One-hop local broadcast (replication; anonymous replies).
        std::function<void(std::shared_ptr<Packet>)> local_broadcast;
        // geoanon: source(gps)
        std::function<util::Vec2()> my_position;
        // geoanon: source(node-id)
        NodeId my_id{net::kInvalidNode};
        sim::Simulator* sim{nullptr};
        util::Rng* rng{nullptr};
        /// Required for the anonymous modes.
        crypto::CryptoEngine* engine{nullptr};
        /// Charge a modeled CPU delay then run `done` (may run immediately).
        /// Unset: `done` runs at once. The host agent decides whether crypto
        /// costs are charged at all.
        std::function<void(SimTime, std::function<void()>)> charge;
        /// Host-node liveness; unset means always up. Periodic work (update
        /// beacons) is suppressed while the node is down.
        std::function<bool()> is_up;
    };

#define GEOANON_LS_COUNTERS(X)                                                       \
    X(updates_sent, "ls.updates_sent")                                               \
    X(update_bytes, "ls.update_bytes")                                               \
    X(queries_sent, "ls.queries_sent")                                               \
    X(query_bytes, "ls.query_bytes")                                                 \
    X(replies_sent, "ls.replies_sent")                                               \
    X(reply_bytes, "ls.reply_bytes")                                                 \
    X(replications, "ls.replications")                                               \
    X(store_hits, "ls.store_hits")                                                   \
    X(store_misses, "ls.store_misses")                                               \
    X(resolved_ok, "ls.resolved_ok")                                                 \
    X(resolved_fail, "ls.resolved_fail")                                             \
    X(decrypt_attempts, "ls.decrypt_attempts") /* index-free trial decryptions */    \
    /* Timeout-path diagnostics: these separate "the reply got lost in */            \
    /* the network" (reissues with replies_sent > 0 somewhere) from "the */          \
    /* server grid is dark" (reissues with no reply traffic at all). */              \
    X(query_reissues, "ls.query_reissues") /* timeout-driven re-sends */             \
    X(query_fallbacks, "ls.query_fallbacks") /* degradation-ladder stage advances */ \
    X(late_replies, "ls.late_replies") /* reply for a query that already failed */   \
    X(pending_wiped, "ls.pending_wiped") /* queries dropped by reset() */            \
    /* Replica-set health (ls.replica.* / ls.failover.* metrics). */                 \
    X(store_expired, "ls.store.expired") /* rows dropped by the periodic sweep */    \
    X(digests_sent, "ls.replica.digests_sent") /* anti-entropy digests broadcast */  \
    X(digest_bytes, "ls.replica.digest_bytes")                                       \
    X(repairs_sent, "ls.replica.repairs_sent") /* rows pushed to repair a peer */    \
    X(handoffs, "ls.replica.handoffs") /* grids handed off on radius exit */         \
    /* rows re-replicated on assisted serve */                                       \
    X(read_repairs, "ls.replica.read_repairs")                                       \
    /* quorum replies after the first */                                             \
    X(duplicates_suppressed, "ls.replica.duplicates_suppressed")                     \
    X(stale_reads, "ls.failover.stale_reads") /* expired rows served within grace */
    struct Stats {
        GEOANON_COUNTERS(GEOANON_LS_COUNTERS)
        /// Resolve latency (ms) of queries that needed at least one reissue
        /// or ladder stage — i.e. the cost of failing over to a replica.
        util::Sampler failover_latency_ms;
    };

    LocationService(Mode mode, GridMap grid, Params params, Hooks hooks);

    /// Anticipated requesters (§3.3: the updater must identify its possible
    /// senders). Ignored in kPlain mode.
    void set_contacts(std::vector<NodeId> contacts) { contacts_ = std::move(contacts); }

    /// Begin periodic location updates.
    void start();

    /// Node reboot: wipe volatile state — stored rows, cached results and
    /// in-flight queries (their callbacks are dropped; the senders' own
    /// timeouts handle it). Cumulative stats survive.
    void reset();

    /// Resolve the location of `target`. The callback fires exactly once
    /// with the location or nullopt (timeout after retries). A result this
    /// node resolved in the last 8 s is reused: the callback then runs
    /// synchronously and no query is sent (per-packet queries would flood
    /// the grid).
    void resolve(NodeId target, std::function<void(std::optional<util::Vec2>)> cb);

    /// Offer an incoming location-service packet. Returns true when consumed
    /// (served, stored, or matched to a pending query); false lets the agent
    /// keep geo-routing it.
    bool handle(const PacketPtr& pkt);

    /// The agent could not route this LS packet any closer; serve it here if
    /// at all possible. Returns true when consumed.
    bool handle_stuck(const PacketPtr& pkt);

    const Stats& stats() const { return stats_; }
    Mode mode() const { return mode_; }
    /// Number of rows currently stored at this node (server role).
    std::size_t store_size() const { return store_.size(); }

  private:
    /// A row's key: the encrypted index E_{K_B}(A,B) of an anonymous row, or
    /// the subject of a plain one. Anonymous rows sort first, in index byte
    /// order (the lowercase-hex order of the index), then plain rows by
    /// ascending subject: the order every digest, reply and push lists them.
    using RowKey = std::variant<util::Bytes, NodeId>;
    /// A plain row's payload: the subject's location and its update's
    /// timestamp.
    struct Fix {
        util::Vec2 loc;
        SimTime ts;
    };
    struct Row {
        /// Anonymous rows: the packet's grid. Plain rows: the subject's home
        /// grid.
        std::uint32_t grid{0};
        SimTime expires;
        /// Anti-entropy digest hash of the key, computed once when the row
        /// is first stored.
        std::uint64_t digest_hash{0};
        /// Anonymous rows: E_{K_B}(A, loc_A, ts). Plain rows: a Fix.
        std::variant<util::Bytes, Fix> payload;
    };
    using Store = std::map<RowKey, Row>;
    static bool is_plain(Store::const_iterator it) { return it->first.index() == 1; }
    /// The key a request names: its plain subject, else its index; nullopt
    /// for an index-free request.
    static std::optional<RowKey> requested_key(const Packet& req);

    /// On-air shape of one query round. The degradation ladder walks a
    /// mode-specific sequence of formats, each with its own retry budget:
    /// §3.3's heterogeneous fallback (the target may run the other service
    /// flavor) generalized with the index-free round as a middle rung — it
    /// needs no per-requester row, so it can hit any replica of the grid.
    enum class QueryFormat : std::uint8_t { kIndexed, kIndexFree, kPlainSubject };

    struct PendingQuery {
        NodeId target;
        std::function<void(std::optional<util::Vec2>)> cb;
        int attempts{0};        ///< sends within the current ladder stage
        std::uint8_t stage{0};  ///< index into the mode's degradation ladder
        SimTime started{};      ///< resolve() time, for failover latency
        sim::EventId timeout{sim::kInvalidEvent};
    };

    void send_update();
    void send_query(std::uint64_t query_id);
    void serve(const PacketPtr& pkt);
    void store_row(const PacketPtr& pkt);
    void answer_request(const PacketPtr& pkt);
    void on_reply(const PacketPtr& pkt);
    bool near_home_center(const PacketPtr& pkt) const;
    void charge(SimTime cost, std::function<void()> done);
    util::Bytes make_index(NodeId updater, NodeId requester) const;
    /// Query format for ladder stage `stage`, or nullopt past the last rung.
    std::optional<QueryFormat> stage_format(std::uint8_t stage) const;
    /// RetryPolicy delay after the `attempt`-th send of the current stage.
    SimTime retry_delay(int attempt);
    /// Close a pending query successfully: cancel the timeout, record the
    /// qid for duplicate suppression, sample failover latency, cache the
    /// result, run the cb.
    void complete_ok(std::uint64_t qid, util::Vec2 loc);

    // Replica-set maintenance (anti-entropy / handoff / sweep).
    void digest_tick();
    void send_digest(std::uint32_t grid);
    void handoff_grid(std::uint32_t grid);
    void on_digest(const PacketPtr& pkt);
    void sweep_expired();
    /// Broadcast the given rows, in store order: the anonymous ones as one
    /// kLocReplicate for `grid`, then one kLocReplicate per plain row (which
    /// keeps its timestamp).
    void push_rows(std::uint32_t grid, const std::vector<Store::const_iterator>& rows);

    Mode mode_;
    GridMap grid_;
    Params params_;
    Hooks hooks_;
    std::vector<NodeId> contacts_;
    sim::PeriodicTimer update_timer_;
    sim::PeriodicTimer digest_timer_;
    sim::PeriodicTimer sweep_timer_;

    /// Server-side rows of both formats (§3.3: any server stores both).
    Store store_;

    /// Grids this node currently serves (was inside server_radius_m at the
    /// last digest tick while holding rows); leaving one triggers handoff.
    std::set<std::uint32_t> serving_;
    /// Per-grid time of the last digest broadcast (reactive-digest limiter).
    std::map<std::uint32_t, SimTime> last_digest_;

    std::unordered_map<std::uint64_t, PendingQuery> pending_;
    /// Recently resolved query ids: replies from further replicas of the
    /// quorum are suppressed (counted, not treated as late). Purged by the
    /// expiry sweep after entry_ttl.
    std::map<std::uint64_t, SimTime> resolved_qids_;
    /// Resolved locations: target -> (location, resolved-at).
    std::unordered_map<NodeId, std::pair<util::Vec2, SimTime>> result_cache_;
    std::uint64_t next_query_id_{1};
    Stats stats_;
};

}  // namespace geoanon::routing
