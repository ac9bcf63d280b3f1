#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/ant.hpp"
#include "core/pseudonym.hpp"
#include "core/pseudonym_policy.hpp"
#include "core/seen_window.hpp"
#include "crypto/engine.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "routing/location_service.hpp"
#include "sim/simulator.hpp"

namespace geoanon::core {

using net::MacAddr;
using net::NodeId;
using net::Packet;
using net::PacketPtr;
using util::Vec2;

/// Anonymous Greedy Forwarding agent — the paper's scheme (§3).
///
/// - ANT (§3.1): pseudonymous hello beacons, optionally ring-signed for the
///   (k+1)-anonymous authenticated table.
/// - AGFW (§3.2): data header ⟨DATA, loc_d, n, trapdoor⟩; every transmission
///   is a local broadcast with no MAC addresses; only nodes inside the
///   last-hop region attempt the trapdoor; a stuck last-hop forwarder emits
///   the "last forwarding attempt" with n = 0. Reliability (the AGFW-ACK
///   variant of Figure 1) comes from broadcast network-layer ACKs, with
///   the forwarded copy itself acting as an implicit/piggybacked ACK.
/// - ALS (§3.3): optional anonymous location service; Figure-1 runs use the
///   perfect-location oracle instead, exactly as the paper's evaluation did.
class AgfwAgent final : public net::RoutingAgent {
  public:
    struct Params {
        util::SimTime hello_interval{util::SimTime::seconds(1.5)};
        AnonymousNeighborTable::Params ant{};
        /// ANT silence-based purge, in missed hello intervals: a neighbor
        /// whose newest hello is older than this many intervals (plus a
        /// 0.5 s slack) is treated as crashed even if its announced entry
        /// lifetime has not elapsed. Matches §3.1.1's rule that only a
        /// node's two latest pseudonyms are answered. 0 disables; ignored
        /// when ant.silence_timeout is set explicitly.
        int ant_silence_hellos{2};

        /// false reproduces the paper's "simple form of AGFW with no packet
        /// acknowledgment" curve.
        bool use_net_ack{true};
        util::SimTime ack_timeout{util::SimTime::millis(40)};
        /// Double the retransmit timeout on every attempt. On by default:
        /// fixed timers amplify congestion hotspots into retransmission
        /// storms (see bench/ablation_ack for the comparison).
        bool ack_backoff{true};
        /// Rebroadcasts to the same next hop before rerouting. One retry +
        /// quick rerouting beats hammering a dead pseudonym.
        int ack_retries{1};
        int reroute_limit{3};  ///< alternate next hops after ACK failure
        /// Rely on the overheard forwarded copy as an implicit ACK when the
        /// committed forwarder immediately relays (§3.2's piggybacking).
        bool piggyback_acks{true};
        /// §3.2: an ACK "does not necessarily acknowledge only one received
        /// packet at a time". Non-zero: collect uids for this long and send
        /// them as one ACK packet. Zero (default): acknowledge immediately.
        util::SimTime ack_aggregation{util::SimTime::zero()};

        /// Ring-signed hellos (§3.1.2): authenticated, (k+1)-anonymous ANT.
        /// Certificates travel by reference; a receiver fetches each unknown
        /// one once (§4).
        bool authenticated_hello{false};
        std::size_t ring_k{4};  ///< k other signers besides the sender

        /// When and how often hellos change their pseudonym — the
        /// countermeasure axis of the adversary experiments (DESIGN.md §16).
        /// The default (per-hello rotation) is the paper's §3.1.1 behavior
        /// and is bit-identical to the pre-policy code path.
        PseudonymPolicy pseudonym_policy{};

        /// Charge the modeled crypto CPU delays (§5: 0.5 ms / 8.5 ms).
        bool charge_crypto_costs{true};
        /// Attach a velocity hint to hellos (§3.1.1 predictable motion).
        bool send_velocity_hint{true};

        /// Perimeter-mode recovery at greedy local maxima — the extension §6
        /// leaves to future work. Off by default (the paper's AGFW drops at
        /// dead ends); bench/ablation_perimeter measures the gain.
        bool enable_perimeter{false};
    };

    struct Stats {
        std::uint64_t app_sent{0};
        std::uint64_t delivered{0};
        std::uint64_t forwarded{0};          ///< data broadcasts (first copies)
        std::uint64_t retransmissions{0};    ///< NL-ACK driven rebroadcasts
        std::uint64_t drop_no_route{0};      ///< greedy local maximum
        std::uint64_t drop_unreachable{0};   ///< NL-ACK + reroutes exhausted
        std::uint64_t drop_no_location{0};
        std::uint64_t stop_no_route{0};      ///< committed relay stuck (diag)
        std::uint64_t last_attempts{0};
        std::uint64_t trapdoor_attempts{0};
        std::uint64_t trapdoor_opens{0};
        std::uint64_t acks_sent{0};
        std::uint64_t implicit_acks{0};
        std::uint64_t explicit_acks_received{0};
        std::uint64_t hello_sent{0};
        std::uint64_t hello_verified{0};
        std::uint64_t hello_rejected{0};
        /// Hello slots skipped by the pseudonym policy (mix-zone / VPC
        /// silence) — the visibility cost of the countermeasure.
        std::uint64_t hello_suppressed{0};
        std::uint64_t pseudonym_rotations{0};
        std::uint64_t cert_fetches{0};       ///< unknown ring certs fetched (§4)
        std::uint64_t control_bytes{0};      ///< hellos + ACKs + cert traffic
        std::uint64_t data_bytes{0};
        std::uint64_t perimeter_entries{0};  ///< greedy failures recovered into
        std::uint64_t perimeter_forwards{0};
        std::uint64_t perimeter_recoveries{0};  ///< returned to greedy closer to D
        std::uint64_t perimeter_ttl_drops{0};
    };

    using DeliverFn = std::function<void(NodeId, const Packet&)>;
    using LocateFn = std::function<std::optional<Vec2>(NodeId)>;

    /// Authenticated hellos draw ring members from `engine.valid_users()`
    /// (§3.1.2: "randomly select k public keys among all valid users").
    AgfwAgent(net::Node& node, Params params, crypto::CryptoEngine& engine, LocateFn locate,
              DeliverFn deliver);

    /// Attach the anonymous location service (§3.3) in place of the oracle.
    void enable_location_service(routing::LocationService::Mode mode,
                                 routing::GridMap grid,
                                 routing::LocationService::Params ls_params,
                                 std::vector<NodeId> contacts);
    routing::LocationService* location_service() { return ls_.get(); }

    void start() override;
    void send_data(NodeId dst, net::FlowId flow, std::uint32_t seq, net::Bytes body) override;
    void on_packet(const PacketPtr& pkt, MacAddr src) override;
    void on_mac_tx_done(const PacketPtr& pkt, MacAddr dst, bool success) override;
    void on_node_restart() override;
    std::string name() const override;

    /// Geo-route an already-built packet toward pkt->dst_loc (location
    /// service traffic; also used by tests).
    void route_packet(std::shared_ptr<Packet> pkt);

    const Stats& stats() const { return stats_; }
    /// Fold this agent's counters (and its location service's, when one is
    /// attached) into the run metrics (agfw.*, ls.*).
    void publish_metrics(obs::MetricsRegistry& reg) const;
    const AnonymousNeighborTable& ant() const { return ant_; }
    const PseudonymManager& pseudonyms() const { return pseudonyms_; }
    const Params& params() const { return params_; }

  private:
    struct PendingAck {
        std::shared_ptr<Packet> copy;  ///< exact packet to rebroadcast
        Pseudonym next_hop{0};
        int attempts{0};
        int reroutes{0};
        std::vector<Pseudonym> tried;
        sim::EventId timer{sim::kInvalidEvent};
        /// Right-hand-rule reference for rerouting perimeter packets.
        Vec2 came_from{};
        bool was_perimeter{false};
    };

    void send_hello();
    /// Is the pseudonym policy holding this node's beacon right now (inside
    /// a mix zone, or in a virtual-pseudonym-change silence slot)?
    bool policy_silent(util::SimTime now) const;
    void handle_hello(const PacketPtr& pkt);
    void admit_hello(const PacketPtr& pkt);
    void handle_committed(const PacketPtr& pkt);
    void handle_last_attempt(const PacketPtr& pkt);
    void attempt_trapdoor(const PacketPtr& pkt, std::function<void(bool)> done);
    void deliver_local(const PacketPtr& pkt);

    /// Greedy-forward `pkt` to a fresh next hop; returns false at local max.
    bool try_forward(const PacketPtr& pkt, std::vector<Pseudonym> exclude = {});
    /// Perimeter-mode forwarding (right-hand rule over the RNG-planarized
    /// ANT). `came_from` is the incoming edge reference: the destination
    /// line when entering, the previous hop's position when continuing.
    bool try_perimeter(const PacketPtr& pkt, const Vec2& came_from,
                       std::vector<Pseudonym> exclude = {});
    /// Greedy with perimeter fallback (the §6 extension when enabled).
    bool forward_with_recovery(const PacketPtr& pkt);
    void register_pending(const std::shared_ptr<Packet>& copy, Pseudonym next,
                          const Vec2& came_from, bool was_perimeter);
    void broadcast_copy(const std::shared_ptr<Packet>& copy, bool retransmission);
    void arm_ack_timer(std::uint64_t uid);
    void on_ack_timeout(std::uint64_t uid);
    void resolve_ack(std::uint64_t uid, bool implicit);
    void send_ack(std::uint64_t uid);
    void flush_ack_batch();
    void last_attempt(const PacketPtr& pkt);

    bool in_last_hop_region(const Vec2& dst_loc) const;
    bool seen(std::uint64_t uid) const { return seen_.contains(uid); }
    void mark_seen(std::uint64_t uid) { seen_.mark(uid, node_.sim().now()); }
    void purge_soft_state();
    std::vector<Pseudonym> active_blacklist() const;
    void charge(util::SimTime cost, std::function<void()> done);
    /// Globally unique data-packet uid. The (id, counter) pair guarantees
    /// uniqueness across sources; the PRP hides that layout on the wire —
    /// raw (id << 32 | counter) uids would name the data source on every
    /// frame, and on every ACK that echoes the uid back (GL010's headline
    /// finding before this sanitized).
    std::uint64_t fresh_uid() {
        return engine_.anonymize_uid(
            (static_cast<std::uint64_t>(node_.id()) << 32) | next_uid_++);
    }

    net::Node& node_;
    Params params_;
    crypto::CryptoEngine& engine_;
    LocateFn locate_;
    DeliverFn deliver_;

    PseudonymManager pseudonyms_;
    AnonymousNeighborTable ant_;
    sim::PeriodicTimer hello_timer_;
    /// Pseudonym-policy state: when the pseudonym last rotated (kTimed) and
    /// this node's silence phase (kVirtualMixZone; drawn from the node RNG
    /// only when that policy is active, so other configs' RNG streams are
    /// untouched).
    util::SimTime last_rotation_{};
    util::SimTime vpc_phase_{};
    bool rotated_once_{false};

    SeenWindow seen_;
    std::unordered_map<Pseudonym, util::SimTime> blacklist_;  // value: expiry
    std::unordered_map<std::uint64_t, PendingAck> pending_;
    /// Aggregated-ACK batch (ack_aggregation > 0).
    std::vector<std::uint64_t> ack_batch_;
    sim::EventId ack_flush_event_{sim::kInvalidEvent};
    /// Certificates this node already holds (§4 cert-by-reference model).
    std::unordered_set<crypto::NodeIdNum> known_certs_;

    std::unique_ptr<routing::LocationService> ls_;
    std::uint32_t next_uid_{1};
    Stats stats_;
};

}  // namespace geoanon::core
