#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace geoanon::fault {

namespace {
/// Time a recovered node is watched for re-warming before the sample is
/// censored (dropped) — long enough for several hello rounds.
constexpr double kRecoveryWatchS = 30.0;
constexpr double kRecoveryPollS = 0.25;
/// GPS error is redrawn once per epoch of this length.
constexpr SimTime kGpsNoiseEpoch = SimTime::seconds(1.0);

/// Uniform double in [0, 1) from one SplitMix64 draw.
double to_unit(std::uint64_t u) { return (u >> 11) * 0x1.0p-53; }
}  // namespace

FaultInjector::FaultInjector(net::Network& network, FaultPlan plan)
    : network_(network),
      plan_(std::move(plan)),
      churn_rng_(util::SplitMix64(plan_.seed).next()),
      chan_rng_(util::SplitMix64(plan_.seed ^ 0x6A09E667F3BCC908ULL).next()),
      down_(network.size(), false),
      crash_cause_(network.size(), CrashCause::kScheduled) {}

void FaultInjector::arm() {
    auto& sim = network_.sim();
    for (const auto& c : plan_.crashes)
        sim.at(c.at, [this, c] { crash_node(c.node, c.duration); });
    for (const auto& o : plan_.als_outages)
        sim.at(o.at, [this, o] { trigger_als_outage(o); });
    for (std::size_t i = 0; i < plan_.server_flaps.size(); ++i) {
        const auto& f = plan_.server_flaps[i];
        ++stats_.faults_injected;
        GEOANON_TRACE(sim, .type = obs::EventType::kFaultFired, .node = f.target,
                      .detail = static_cast<std::uint64_t>(obs::FaultKind::kServerFlap));
        sim.at(f.start, [this, i] { flap_tick(i); });
    }
    if (plan_.churn) schedule_churn_arrival();
    if (plan_.gps_noise) install_gps_noise();
    install_drop_model();
}

void FaultInjector::crash_node(NodeId node, SimTime duration, CrashCause cause) {
    if (node >= network_.size() || down_[node]) return;
    down_[node] = true;
    crash_cause_[node] = cause;
    ++down_count_;
    ++stats_.node_crashes;
    ++stats_.faults_injected;
    GEOANON_TRACE(network_.sim(), .type = obs::EventType::kFaultFired, .node = node,
                  .detail = static_cast<std::uint64_t>(obs::FaultKind::kCrash));
    network_.node(node).set_up(false);
    if (duration > SimTime{})
        network_.sim().after(duration, [this, node] { recover_node(node); });
}

void FaultInjector::recover_node(NodeId node) {
    if (!down_[node]) return;
    down_[node] = false;
    --down_count_;
    ++stats_.node_recoveries;
    GEOANON_TRACE(network_.sim(), .type = obs::EventType::kFaultFired, .node = node,
                  .detail = static_cast<std::uint64_t>(obs::FaultKind::kRecover));
    network_.node(node).set_up(true);
    watch_recovery(node, network_.sim().now(), crash_cause_[node]);
}

util::Sampler& FaultInjector::recovery_sampler(CrashCause cause) {
    switch (cause) {
        case CrashCause::kChurn: return stats_.recovery_churn_s;
        case CrashCause::kAlsOutage: return stats_.recovery_outage_s;
        case CrashCause::kServerFlap: return stats_.recovery_flap_s;
        case CrashCause::kScheduled: break;
    }
    return stats_.recovery_crash_s;
}

void FaultInjector::flap_tick(std::size_t i) {
    const auto& f = plan_.server_flaps[i];
    if (f.stop > SimTime{} && network_.sim().now() >= f.stop) return;
    flap_once(f);
    if (f.period > SimTime{}) network_.sim().after(f.period, [this, i] { flap_tick(i); });
}

void FaultInjector::watch_recovery(NodeId node, SimTime recovered_at,
                                   CrashCause cause) {
    if (!recovered_probe_) return;
    network_.sim().after(SimTime::seconds(kRecoveryPollS), [this, node, recovered_at, cause] {
        poll_recovery(node, recovered_at, cause);
    });
}

void FaultInjector::poll_recovery(NodeId node, SimTime recovered_at, CrashCause cause) {
    // Recovery latency is "recovered → routing state warm again" per the
    // agent probe. Crashing again, or staying cold past the watch window,
    // censors the sample.
    if (down_[node]) return;
    const SimTime now = network_.sim().now();
    if (recovered_probe_(node)) {
        stats_.recovery_s.add((now - recovered_at).to_seconds());
        recovery_sampler(cause).add((now - recovered_at).to_seconds());
        return;
    }
    if ((now - recovered_at).to_seconds() >= kRecoveryWatchS) return;
    watch_recovery(node, recovered_at, cause);
}

void FaultInjector::schedule_churn_arrival() {
    const auto& c = *plan_.churn;
    auto& sim = network_.sim();
    const SimTime gap =
        SimTime::seconds(churn_rng_.exponential(1.0 / c.crash_rate_per_s));
    const SimTime t = std::max(sim.now(), c.start) + gap;
    if (c.stop > SimTime{} && t > c.stop) return;
    sim.at(t, [this] { churn_arrival(); });
}

void FaultInjector::churn_arrival() {
    const auto& c = *plan_.churn;
    schedule_churn_arrival();
    if (c.max_concurrent_down > 0 && down_count_ >= c.max_concurrent_down) {
        ++stats_.churn_skipped;
        return;
    }
    std::vector<NodeId> up;
    for (NodeId id = 0; id < static_cast<NodeId>(network_.size()); ++id)
        if (!down_[id]) up.push_back(id);
    if (up.empty()) {
        ++stats_.churn_skipped;
        return;
    }
    const NodeId victim = up[static_cast<std::size_t>(
        churn_rng_.uniform_int(0, static_cast<std::int64_t>(up.size()) - 1))];
    const SimTime dur = SimTime::seconds(
        churn_rng_.uniform(c.min_down.to_seconds(), c.max_down.to_seconds()));
    crash_node(victim, dur, CrashCause::kChurn);
}

void FaultInjector::trigger_als_outage(const FaultPlan::AlsOutage& outage) {
    if (!home_center_) return;  // no grid in this scenario; outage is a no-op
    const Vec2 center = home_center_(outage.target);
    bool any = false;
    for (NodeId id = 0; id < static_cast<NodeId>(network_.size()); ++id) {
        if (down_[id]) continue;
        if (util::distance(network_.node(id).true_position(), center) <=
            outage.radius_m) {
            crash_node(id, outage.duration, CrashCause::kAlsOutage);
            any = true;
        }
    }
    if (any) {
        ++stats_.als_outages;
        GEOANON_TRACE(network_.sim(), .type = obs::EventType::kFaultFired,
                      .node = outage.target,
                      .detail = static_cast<std::uint64_t>(obs::FaultKind::kAlsOutage));
    }
}

void FaultInjector::flap_once(const FaultPlan::ServerFlap& flap) {
    if (!home_center_) return;  // no grid in this scenario; flap is a no-op
    const Vec2 center = home_center_(flap.target);
    bool any = false;
    for (NodeId id = 0; id < static_cast<NodeId>(network_.size()); ++id) {
        if (down_[id]) continue;
        if (util::distance(network_.node(id).true_position(), center) <=
            flap.radius_m) {
            crash_node(id, flap.down_time, CrashCause::kServerFlap);
            any = true;
        }
    }
    if (any) ++stats_.server_flap_cycles;
}

void FaultInjector::install_gps_noise() {
    const FaultPlan::GpsNoise g = *plan_.gps_noise;
    ++stats_.faults_injected;
    GEOANON_TRACE(network_.sim(), .type = obs::EventType::kFaultFired,
                  .detail = static_cast<std::uint64_t>(obs::FaultKind::kGpsNoise));
    for (auto& node : network_.nodes()) {
        const NodeId id = node.id();
        // Deterministic at any query time: the offset is a pure function of
        // (seed, node, epoch index) — Rng streams can't be sampled at
        // arbitrary times without perturbing replay.
        node.set_gps_error([g, id, seed = plan_.seed](SimTime now) -> Vec2 {
            if (now < g.start) return {};
            if (g.stop > SimTime{} && now >= g.stop) return {};
            const std::uint64_t epoch =
                static_cast<std::uint64_t>(now.ns() / kGpsNoiseEpoch.ns());
            util::SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ULL * (id + 1)) ^
                                (0xDA942042E4DD58B5ULL * (epoch + 1)));
            const double u1 = to_unit(sm.next());
            const double u2 = to_unit(sm.next());
            // Box–Muller: (dx, dy) iid N(0, sigma_m).
            const double r = g.sigma_m * std::sqrt(-2.0 * std::log(1.0 - u1));
            const double th = 2.0 * std::numbers::pi * u2;
            return Vec2{r * std::cos(th), r * std::sin(th)};
        });
    }
}

void FaultInjector::install_drop_model() {
    if (!plan_.gilbert_elliott && plan_.jams.empty() && plan_.partitions.empty())
        return;
    if (plan_.gilbert_elliott) {
        ++stats_.faults_injected;
        GEOANON_TRACE(network_.sim(), .type = obs::EventType::kFaultFired,
                      .detail = static_cast<std::uint64_t>(obs::FaultKind::kLossBurst));
    }
    stats_.faults_injected += plan_.jams.size();
    for (std::size_t i = 0; i < plan_.jams.size(); ++i) {
        GEOANON_TRACE(network_.sim(), .type = obs::EventType::kFaultFired,
                      .detail = static_cast<std::uint64_t>(obs::FaultKind::kJam));
    }
    stats_.faults_injected += plan_.partitions.size();
    for (std::size_t i = 0; i < plan_.partitions.size(); ++i) {
        GEOANON_TRACE(network_.sim(), .type = obs::EventType::kFaultFired,
                      .detail = static_cast<std::uint64_t>(obs::FaultKind::kPartition));
    }
    network_.channel().set_drop_model(
        [this](const phy::Frame&, const Vec2& tx_pos, const Vec2& rx_pos) {
            return should_drop(tx_pos, rx_pos);
        });
}

bool FaultInjector::jam_active(const Vec2& rx_pos, SimTime now) const {
    for (const auto& j : plan_.jams) {
        if (now < j.start) continue;
        if (j.stop > SimTime{} && now >= j.stop) continue;
        if (util::distance(rx_pos, j.center) <= j.radius_m) return true;
    }
    return false;
}

bool FaultInjector::partition_active(const Vec2& tx_pos, const Vec2& rx_pos,
                                     SimTime now) const {
    for (const auto& p : plan_.partitions) {
        if (now < p.start) continue;
        if (p.heal > SimTime{} && now >= p.heal) continue;
        if ((tx_pos.x < p.boundary_x_m) != (rx_pos.x < p.boundary_x_m)) return true;
    }
    return false;
}

bool FaultInjector::should_drop(const Vec2& tx_pos, const Vec2& rx_pos) {
    const SimTime now = network_.sim().now();
    if (partition_active(tx_pos, rx_pos, now)) {
        ++stats_.frames_lost_partition;
        return true;
    }
    if (jam_active(rx_pos, now)) {
        ++stats_.frames_lost_jam;
        return true;
    }
    if (plan_.gilbert_elliott) {
        const auto& ge = *plan_.gilbert_elliott;
        if (now >= ge.start && (ge.stop == SimTime{} || now < ge.stop)) {
            advance_ge_chain(now);
            const double p = ge_bad_ ? ge.loss_bad : ge.loss_good;
            if (p > 0.0 && chan_rng_.bernoulli(p)) {
                ++stats_.frames_lost_loss_burst;
                return true;
            }
        }
    }
    return false;
}

void FaultInjector::publish_metrics(obs::MetricsRegistry& reg) const {
    reg.add("fault.faults_injected", stats_.faults_injected);
    reg.add("fault.node_crashes", stats_.node_crashes);
    reg.add("fault.node_recoveries", stats_.node_recoveries);
    reg.add("fault.als_outages", stats_.als_outages);
    reg.add("fault.churn_skipped", stats_.churn_skipped);
    reg.add("fault.server_flap_cycles", stats_.server_flap_cycles);
    reg.add("fault.frames_lost_loss_burst", stats_.frames_lost_loss_burst);
    reg.add("fault.frames_lost_jam", stats_.frames_lost_jam);
    reg.add("fault.frames_lost_partition", stats_.frames_lost_partition);
    reg.observe_all("fault.recovery_s", stats_.recovery_s);
    reg.observe_all("fault.recovery_crash_s", stats_.recovery_crash_s);
    reg.observe_all("fault.recovery_churn_s", stats_.recovery_churn_s);
    reg.observe_all("fault.recovery_outage_s", stats_.recovery_outage_s);
    reg.observe_all("fault.recovery_flap_s", stats_.recovery_flap_s);
}

void FaultInjector::advance_ge_chain(SimTime now) {
    const auto& ge = *plan_.gilbert_elliott;
    if (ge_next_ == SimTime{}) {
        ge_bad_ = false;
        ge_next_ = ge.start + SimTime::seconds(chan_rng_.exponential(ge.mean_good_s));
    }
    while (ge_next_ <= now) {
        ge_bad_ = !ge_bad_;
        ge_next_ = ge_next_ + SimTime::seconds(chan_rng_.exponential(
                                  ge_bad_ ? ge.mean_bad_s : ge.mean_good_s));
    }
}

}  // namespace geoanon::fault
