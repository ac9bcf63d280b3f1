#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/eavesdropper.hpp"
#include "adversary/observation.hpp"
#include "adversary/trajectory.hpp"
#include "analysis/invariant_checker.hpp"
#include "core/agfw.hpp"
#include "crypto/engine.hpp"
#include "fault/fault.hpp"
#include "mobility/mobility.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/gpsr.hpp"
#include "routing/location_service.hpp"
#include "util/stats.hpp"

namespace geoanon::workload {

/// Routing scheme under test — the three curves of Figure 1.
enum class Scheme {
    kGpsrGreedy,  ///< baseline: unicast + RTS/CTS, identity-bearing beacons
    kAgfwAck,     ///< AGFW with the network-layer acknowledgment
    kAgfwNoAck,   ///< "simple form of AGFW with no packet acknowledgment"
};

std::string scheme_name(Scheme s);

/// Full description of one simulation run. Defaults reproduce the paper's
/// setup (§5.1): 1500x300 m, 900 s, 250 m range, RWP <=20 m/s with 60 s
/// pause, 30 CBR flows from 20 senders.
struct ScenarioConfig {
    Scheme scheme{Scheme::kGpsrGreedy};
    std::uint64_t seed{1};

    std::size_t num_nodes{50};
    mobility::Area area{1500.0, 300.0};
    double min_speed_mps{1.0};
    double max_speed_mps{20.0};
    double pause_s{60.0};
    double sim_seconds{900.0};

    std::size_t num_flows{30};
    std::size_t num_senders{20};
    double cbr_pps{4.0};             ///< 64-byte packets at 4/s ~= 2 kb/s CBR
    double traffic_start_s{10.0};
    double traffic_stop_s{880.0};

    phy::PhyParams phy{};

    // Crypto / anonymity knobs -------------------------------------------
    bool use_real_crypto{false};  ///< real 512-bit RSA math (small runs only)
    /// §3.2: broadcast frames hide the sender MAC. Turning this off enables
    /// the correlation attack the paper warns about (privacy ablation).
    bool anonymous_mac{true};

    // Location service ----------------------------------------------------
    /// nullopt = perfect location oracle (the paper's Figure-1 setting).
    std::optional<routing::LocationService::Mode> location_service{};
    double ls_cell_m{300.0};
    routing::LocationService::Params ls_params{};

    /// Deterministic fault schedule (crashes, churn, loss bursts, jamming,
    /// GPS error, ALS outages). Empty = no injector is attached at all.
    fault::FaultPlan faults{};

    /// Flight-recorder settings. trace.enabled = false (the default) keeps
    /// every GEOANON_TRACE site down to a null-pointer test.
    obs::TraceParams trace{};

    bool attach_eavesdropper{false};
    /// Record a compact per-transmission observation log and run the offline
    /// pseudonym-linking / trajectory attack at aggregation time (results in
    /// the adv.* metrics). Implies the same single snoop tap the
    /// eavesdropper rides; the pseudonym-change countermeasure under test is
    /// configured via agfw.pseudonym_policy.
    bool attach_observer{false};
    /// Offline attacker strength. A zero linker.max_speed_mps is filled in
    /// from max_speed_mps — the attacker is assumed to know the mobility
    /// envelope.
    adversary::AttackParams attack{};
    /// Run the protocol invariant checker alongside the scenario (passive;
    /// cannot change the outcome). Results land in the inv.* metrics.
    bool check_invariants{true};

    /// Agent settings (ring-signed hellos, ring_k, crypto-cost charging,
    /// ACK timers, ...) live here and nowhere else; only agfw.use_net_ack is
    /// overwritten, derived from `scheme`.
    core::AgfwAgent::Params agfw{};
    routing::GpsrGreedyAgent::Params gpsr{};
};

/// Aggregated outcome of one run. Every result value lives in `metrics`,
/// the run's registry snapshot; the accessors below derive the paper's
/// delivery and latency metrics (§5), the mean hop count and the checker's
/// violation total from it.
struct ScenarioResult {
    /// Everything every layer, the checker and the adversary published into
    /// the run's MetricsRegistry, sorted by name.
    obs::MetricsSnapshot metrics{};

    // Copies that perfbench/main.cpp reads; read `metrics` everywhere else.
    /// app.sent and app.delivered (unique (flow, seq) at the destination).
    std::uint64_t app_sent{0};
    std::uint64_t app_delivered{0};
    /// adv.* (when attach_observer is on).
    adversary::AttackReport attack{};
    /// inv.* (when check_invariants is on).
    analysis::InvariantChecker::Counters invariants{};

    std::uint64_t events_processed{0};

    /// Host-side execution metrics. The only non-deterministic corner of the
    /// result: wall-clock and throughput vary run to run, so equivalence and
    /// replay comparisons (and the default bench JSON) exclude this block.
    /// peak_queue_depth (simulator high-water mark) IS deterministic.
    struct Perf {
        double wall_seconds{0.0};
        double events_per_sec{0.0};
        std::size_t peak_queue_depth{0};
    };
    Perf perf{};

    /// app.delivered / app.sent; 0 when nothing was sent.
    double delivery_fraction() const {
        const auto sent = static_cast<double>(metrics.counter("app.sent"));
        return sent > 0.0 ? static_cast<double>(metrics.counter("app.delivered")) / sent : 0.0;
    }
    /// Mean, median and 95th-percentile end-to-end latency of the delivered
    /// packets, in ms (app.latency_ms).
    double avg_latency_ms() const { return metrics.histogram("app.latency_ms").average(); }
    double p50_latency_ms() const { return metrics.histogram("app.latency_ms").p50; }
    double p95_latency_ms() const { return metrics.histogram("app.latency_ms").p95; }
    /// Mean hop count of the delivered packets (app.hops).
    double avg_hops() const { return metrics.histogram("app.hops").average(); }
    /// Sum of the checker's ten inv.* violation counters.
    std::uint64_t invariant_violations() const;
};

/// Builds the network for a ScenarioConfig, drives the CBR workload, runs
/// the simulation, and aggregates the result.
class ScenarioRunner {
  public:
    explicit ScenarioRunner(ScenarioConfig config);
    ~ScenarioRunner();

    /// Build everything (idempotent; called by run() if needed). Exposed so
    /// tests can inspect/poke the network before running.
    void setup();

    ScenarioResult run();

    net::Network& network() { return *network_; }
    core::AgfwAgent* agfw_agent(net::NodeId id);
    routing::GpsrGreedyAgent* gpsr_agent(net::NodeId id);
    /// The attached invariant checker (nullptr when check_invariants is off
    /// or setup() has not run yet).
    analysis::InvariantChecker* invariant_checker() { return checker_.get(); }
    /// The flight recorder (nullptr unless config.trace.enabled).
    obs::TraceRecorder* trace_recorder() { return recorder_.get(); }
    /// The shared adversary observation feed (nullptr unless
    /// attach_eavesdropper or attach_observer is set).
    adversary::ObservationFeed* observation_feed() { return feed_.get(); }
    /// Export the recorded trace as deterministic Chrome trace-event JSON.
    /// Empty string when tracing was off.
    std::string chrome_trace_json() const;

  private:
    struct Flow {
        net::FlowId id;
        net::NodeId src;
        net::NodeId dst;
        double start_s;
        std::uint32_t next_seq{0};
    };

    void build_nodes();
    void build_traffic();
    /// One CBR slot for flow `f`: emit a packet (unless the sender is down
    /// or traffic has stopped) and reschedule. Member function instead of a
    /// heap-held closure: the event captures only [this, f], which fits the
    /// simulator's inline callback storage.
    void cbr_tick(std::size_t f);
    void on_delivery(net::NodeId at, const net::Packet& pkt);
    ScenarioResult aggregate();

    ScenarioConfig config_;
    std::unique_ptr<crypto::CryptoEngine> engine_;
    /// Declared before network_: the simulator holds a raw pointer to the
    /// recorder, so it must outlive the network during teardown.
    std::unique_ptr<obs::TraceRecorder> recorder_;
    std::unique_ptr<net::Network> network_;
    /// Single snoop-registration path for all adversary components; created
    /// when either attach_eavesdropper or attach_observer is set.
    std::unique_ptr<adversary::ObservationFeed> feed_;
    std::unique_ptr<adversary::Eavesdropper> eavesdropper_;
    std::unique_ptr<analysis::InvariantChecker> checker_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::vector<Flow> flows_;
    std::vector<core::AgfwAgent*> agfw_agents_;
    std::vector<routing::GpsrGreedyAgent*> gpsr_agents_;

    // Delivery bookkeeping: unique (flow, seq).
    std::vector<std::vector<bool>> delivered_;
    util::Sampler latency_ms_;
    util::Sampler hops_;
    bool built_{false};
};

}  // namespace geoanon::workload
