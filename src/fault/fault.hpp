#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "util/vec2.hpp"

namespace geoanon::fault {

using net::NodeId;
using util::SimTime;
using util::Vec2;

/// Declarative fault schedule for a scenario run. Everything here is
/// deterministic given `seed`: the same plan against the same scenario
/// replays the same crashes, bursts, and position errors.
///
/// Convention: a `stop` left at SimTime{} means "until the end of the run".
struct FaultPlan {
    /// Seed for the injector's own randomness (churn arrivals, burst dwell
    /// times). Independent of the scenario seed so fault schedules can be
    /// varied while traffic and mobility stay fixed.
    std::uint64_t seed{1};

    /// One scheduled crash: the node halts silently at `at` (no goodbye on
    /// the air), recovers with wiped protocol state after `duration`.
    /// duration == SimTime{} means the node stays down forever.
    struct NodeCrash {
        NodeId node{net::kInvalidNode};
        SimTime at{};
        SimTime duration{};
    };
    std::vector<NodeCrash> crashes;

    /// Random churn: crash arrivals form a Poisson process at
    /// `crash_rate_per_s`; each victim is drawn uniformly from the currently
    /// up nodes and stays down uniform[min_down, max_down].
    struct Churn {
        double crash_rate_per_s{0.1};
        SimTime start{};
        SimTime stop{};
        SimTime min_down{SimTime::seconds(5.0)};
        SimTime max_down{SimTime::seconds(20.0)};
        /// Cap on simultaneously-down nodes (a 20%-churn scenario caps at
        /// nodes/5); arrivals beyond the cap are skipped, not queued.
        int max_concurrent_down{0};  ///< 0 = no cap
    };
    std::optional<Churn> churn;

    /// Gilbert–Elliott two-state burst-loss channel impairment, layered on
    /// every link: the channel dwells exponentially in a good state (loss
    /// probability loss_good) and a bad state (loss_bad). Losses consume the
    /// frame for every receiver-local decode independently; the medium is
    /// still occupied (carrier sense and collisions behave normally).
    struct GilbertElliott {
        SimTime start{};
        SimTime stop{};
        double mean_good_s{2.0};
        double mean_bad_s{0.3};
        double loss_good{0.0};
        double loss_bad{0.8};
    };
    std::optional<GilbertElliott> gilbert_elliott;

    /// Jammed region: any receiver inside the circle decodes nothing while
    /// the jammer is active (transmitters inside still radiate — their
    /// frames are lost only at jammed receivers).
    struct Jam {
        Vec2 center{};
        double radius_m{150.0};
        SimTime start{};
        SimTime stop{};
    };
    std::vector<Jam> jams;

    /// GPS error: every node's self-reported position (hellos, location
    /// updates, greedy decisions) is offset by a per-node draw from
    /// N(0, sigma_m) on each axis, redrawn every second. The true physical
    /// position — what the radio propagation model uses — is unaffected.
    struct GpsNoise {
        double sigma_m{15.0};
        SimTime start{};
        SimTime stop{};
    };
    std::optional<GpsNoise> gps_noise;

    /// ALS server-grid outage: at `at`, crash every node currently inside
    /// `radius_m` of `target`'s home-grid center — the nodes that could be
    /// serving (or replicating) the target's location rows.
    struct AlsOutage {
        NodeId target{net::kInvalidNode};
        SimTime at{};
        SimTime duration{SimTime::seconds(30.0)};
        double radius_m{200.0};
    };
    std::vector<AlsOutage> als_outages;

    /// Network partition: while active, no frame crosses the vertical line
    /// x = boundary_x_m (enforced in the channel drop model, like Jam — the
    /// medium is still occupied, only cross-boundary decodes die). Align the
    /// boundary with a grid column edge to split home grids cleanly.
    struct Partition {
        double boundary_x_m{0.0};
        SimTime start{};
        /// Absolute heal time; SimTime{} = the split never heals.
        SimTime heal{};
    };
    std::vector<Partition> partitions;

    /// Server flap: every `period`, crash each currently-up node within
    /// `radius_m` of `target`'s home-grid center for `down_time` — rapid
    /// up/down cycling of the replica set, the pathological failover load.
    struct ServerFlap {
        NodeId target{net::kInvalidNode};
        SimTime start{};
        SimTime stop{};
        SimTime period{SimTime::seconds(4.0)};
        SimTime down_time{SimTime::seconds(2.0)};
        double radius_m{200.0};
    };
    std::vector<ServerFlap> server_flaps;

    bool empty() const {
        return crashes.empty() && !churn && !gilbert_elliott && jams.empty() &&
               !gps_noise && als_outages.empty() && partitions.empty() &&
               server_flaps.empty();
    }
};

/// Executes a FaultPlan against a Network: schedules crashes/recoveries,
/// installs the channel drop model, injects GPS error, and measures recovery
/// latency (crash-end → the node's routing state is warm again, via an
/// agent-specific probe).
///
/// Construct after the network is fully built, call arm() before sim.run().
class FaultInjector {
  public:
    /// Fault class that caused a crash; keys the per-class recovery-latency
    /// samplers so "how fast does the grid heal after an outage" can be told
    /// apart from ordinary churn recovery.
    enum class CrashCause : std::uint8_t { kScheduled, kChurn, kAlsOutage, kServerFlap };

    struct Stats {
        std::uint64_t faults_injected{0};   ///< crash events + impairment windows
        std::uint64_t node_crashes{0};
        std::uint64_t node_recoveries{0};
        std::uint64_t als_outages{0};       ///< outage events (≥1 node crashed)
        std::uint64_t churn_skipped{0};     ///< arrivals over max_concurrent_down
        std::uint64_t server_flap_cycles{0};  ///< flap cycles that downed ≥1 node
        std::uint64_t frames_lost_loss_burst{0};
        std::uint64_t frames_lost_jam{0};
        std::uint64_t frames_lost_partition{0};
        util::Sampler recovery_s;           ///< crash-end → probe-true latency
        // Per-class breakdown of recovery_s (same samples, keyed by cause).
        util::Sampler recovery_crash_s;
        util::Sampler recovery_churn_s;
        util::Sampler recovery_outage_s;
        util::Sampler recovery_flap_s;
    };

    FaultInjector(net::Network& network, FaultPlan plan);

    /// Probe that reports whether a node's routing state has re-warmed after
    /// recovery (e.g. its neighbor table is non-empty again). Optional; when
    /// unset, recovery latency is not measured.
    void set_recovered_probe(std::function<bool(NodeId)> probe) {
        recovered_probe_ = std::move(probe);
    }
    /// Maps a node id to its home-grid center (for AlsOutage targeting).
    /// Optional; AlsOutage entries are ignored without it.
    void set_home_center(std::function<Vec2(NodeId)> fn) {
        home_center_ = std::move(fn);
    }

    /// Schedule every fault in the plan and install the channel drop model.
    void arm();

    /// Crash `node` now; auto-recover after `duration` (SimTime{} = never).
    /// `cause` keys the per-class recovery-latency sampler.
    void crash_node(NodeId node, SimTime duration,
                    CrashCause cause = CrashCause::kScheduled);

    bool is_down(NodeId node) const { return down_[node]; }
    const Stats& stats() const { return stats_; }
    /// Fold the injector's counters into the run metrics (fault.*), plus the
    /// fault.recovery_s histogram.
    void publish_metrics(obs::MetricsRegistry& reg) const;

  private:
    bool should_drop(const Vec2& tx_pos, const Vec2& rx_pos);
    void advance_ge_chain(SimTime now);
    void recover_node(NodeId node);
    /// Schedule the next recovery-probe poll, kRecoveryPollS from now.
    void watch_recovery(NodeId node, SimTime recovered_at, CrashCause cause);
    /// One recovery-probe poll; polls again until the node is warm, crashes
    /// again or the watch window ends. Like flap_tick, a member tick: each
    /// event captures only plain values, which fit the simulator's inline
    /// callback storage.
    void poll_recovery(NodeId node, SimTime recovered_at, CrashCause cause);
    /// One cycle of plan_.server_flaps[i]; reschedules itself every period.
    void flap_tick(std::size_t i);
    void schedule_churn_arrival();
    void churn_arrival();
    void trigger_als_outage(const FaultPlan::AlsOutage& outage);
    void flap_once(const FaultPlan::ServerFlap& flap);
    void install_gps_noise();
    void install_drop_model();
    bool jam_active(const Vec2& rx_pos, SimTime now) const;
    bool partition_active(const Vec2& tx_pos, const Vec2& rx_pos, SimTime now) const;
    util::Sampler& recovery_sampler(CrashCause cause);

    net::Network& network_;
    FaultPlan plan_;
    util::Rng churn_rng_;
    util::Rng chan_rng_;

    std::vector<bool> down_;
    /// Cause of each node's most recent crash (valid while down / recovering).
    std::vector<CrashCause> crash_cause_;
    int down_count_{0};

    // Gilbert–Elliott chain state, advanced lazily at each decode decision.
    bool ge_bad_{false};
    SimTime ge_next_{};

    std::function<bool(NodeId)> recovered_probe_;
    std::function<Vec2(NodeId)> home_center_;
    Stats stats_;
};

}  // namespace geoanon::fault
