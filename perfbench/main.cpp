// geoanon repository benchmark: three whole-scenario workloads, timed from
// outside the simulator, with correctness checks on every run.
//
//   perfbench --workload <paper-gpsr|privacy-als|scale-agfw-10k|all>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//
// A workload is one ScenarioConfig run on several scenario seeds derived
// from --seed; every metric is aggregated over those scenarios, because a
// single scenario's delivery, events and run time depend on its topology far
// more than on the host. --trace 0 measures the end-to-end metrics; --trace 1
// wraps each call into a layer in a bench-side span, runs the layer probes
// and reports the per-layer metrics. The last stdout line of a
// single-workload run is one JSON object: correct, attempted, failed,
// metrics. perfbench/README.md gives the reasons for each workload and the
// layer-to-end-to-end map.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/trajectory.hpp"
#include "core/pseudonym_policy.hpp"
#include "experiment/json.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workload/scenario.hpp"

using namespace geoanon;

namespace perfbench {
namespace {

// ---- Workloads ------------------------------------------------------------

/// Scenarios per run and simulated seconds per scenario. Sized so that one
/// pass over the scenarios takes about 20 s of host time on a 4-core x86
/// host, and so that the cross-seed spread of every end-to-end metric is a
/// small share of its bound (README.md, "Sizing"). Many short scenarios
/// average out topology far better than a few long ones.
struct WorkloadSpec {
    const char* name;
    std::size_t scenarios;
    double sim_seconds;
};
constexpr WorkloadSpec kSpecs[] = {
    {"paper-gpsr", 72, 20.0},
    {"privacy-als", 24, 40.0},
    {"scale-agfw-10k", 4, 15.0},
};

struct Workload {
    std::string name;
    std::vector<workload::ScenarioConfig> scenarios;
};

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

workload::ScenarioConfig base_config(const WorkloadSpec& spec) {
    workload::ScenarioConfig cfg;
    cfg.sim_seconds = spec.sim_seconds;
    const std::string name = spec.name;
    if (name == "paper-gpsr") {
        // Figure 1's baseline: GPSR greedy, 1500x300 m, RWP <=20 m/s with
        // 60 s pause, 30 CBR flows / 20 senders at 4 pps, perfect oracle.
        cfg.scheme = workload::Scheme::kGpsrGreedy;
        cfg.num_nodes = 150;
        cfg.traffic_start_s = 1.0;
        cfg.traffic_stop_s = cfg.sim_seconds - 3.0;
        cfg.check_invariants = false;
    } else if (name == "privacy-als") {
        // The full privacy stack: anonymous ALS, mix-zone pseudonym policy
        // (3 zones of 150 m, as bench/privacy_frontier gates on), the strong
        // global-matching attacker, and the invariant checker (the default).
        cfg.scheme = workload::Scheme::kAgfwAck;
        cfg.num_nodes = 100;
        cfg.traffic_stop_s = cfg.sim_seconds - 10.0;
        cfg.location_service = routing::LocationService::Mode::kAnonymous;
        cfg.agfw.pseudonym_policy.kind = core::PseudonymPolicy::Kind::kMixZone;
        cfg.agfw.pseudonym_policy.zones = core::PseudonymPolicy::grid_layout(cfg.area, 3, 150.0);
        cfg.attach_observer = true;
        cfg.attack.linker.global_matching = true;
        cfg.check_invariants = true;
    } else {
        // scale-agfw-10k: a square sized for mean degree ~10 (scaling_grid's
        // formula), continuously mobile, 50 flows; checker and observer off.
        cfg.scheme = workload::Scheme::kAgfwAck;
        cfg.num_nodes = 10000;
        const double r = cfg.phy.range_m;
        const double side =
            std::sqrt(static_cast<double>(cfg.num_nodes) * std::numbers::pi * r * r / 10.0);
        cfg.area = mobility::Area{side, side};
        cfg.pause_s = 0.0;
        cfg.num_flows = 50;
        cfg.num_senders = 50;
        cfg.traffic_start_s = 1.0;
        cfg.traffic_stop_s = cfg.sim_seconds - 2.0;
        cfg.check_invariants = false;
    }
    return cfg;
}

std::optional<Workload> make_workload(const std::string& name, std::uint64_t bench_seed) {
    for (const WorkloadSpec& spec : kSpecs) {
        if (name != spec.name) continue;
        // Scenario seeds come from the benchmark seed, the workload and the
        // scenario index, so seeds 1, 2, ... give unrelated scenarios.
        std::uint64_t salt = 0;
        for (const char c : name) salt = salt * 131 + static_cast<unsigned char>(c);
        Workload w{name, {}};
        for (std::size_t i = 0; i < spec.scenarios; ++i) {
            workload::ScenarioConfig cfg = base_config(spec);
            cfg.seed = splitmix64(splitmix64(bench_seed ^ splitmix64(salt)) + i) & 0xFFFFFFFFFFFFULL;
            w.scenarios.push_back(std::move(cfg));
        }
        return w;
    }
    return std::nullopt;
}

// ---- Host measurements ----------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so each
/// scenario run reports its own peak rather than the process's.
void reset_peak_rss() {
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
}

double peak_rss_mib() {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// One scenario run: construct + setup(), run(), deterministic serialization.
struct Rep {
    double setup_s{0};
    double run_s{0};
    double loop_s{0};  ///< ScenarioResult::perf.wall_seconds
    double total_s{0};
    double setup_rss_mib{0};
    double peak_rss_mib{0};
    double attack_s{0};  ///< traced runs of an observer workload only
    bool attack_matches{true};
    std::string json;
    workload::ScenarioResult result;
};

Rep run_rep(const workload::ScenarioConfig& cfg, SpanRecorder& spans) {
    Rep rep;
    reset_peak_rss();
    SpanRecorder::Scope whole(spans, "workload.scenario");
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<workload::ScenarioRunner> runner;
    {
        SpanRecorder::Scope s(spans, "workload.setup");
        runner = std::make_unique<workload::ScenarioRunner>(cfg);
        runner->setup();
    }
    rep.setup_s = seconds_since(t0);
    rep.setup_rss_mib = peak_rss_mib();
    const auto t1 = std::chrono::steady_clock::now();
    {
        SpanRecorder::Scope s(spans, "workload.run");
        rep.result = runner->run();
    }
    rep.run_s = seconds_since(t1);
    {
        SpanRecorder::Scope s(spans, "workload.serialize");
        rep.json = experiment::result_to_json(rep.result);
    }
    rep.total_s = seconds_since(t0);
    rep.peak_rss_mib = peak_rss_mib();
    rep.loop_s = rep.result.perf.wall_seconds;

    if (spans.enabled() && cfg.attach_observer) {
        // The report phase's offline attack, called again on the run's own
        // observation feed so that it is timed on its own.
        SpanRecorder::Scope s(spans, "adversary.run_attack");
        adversary::AttackParams ap = cfg.attack;
        if (ap.linker.max_speed_mps <= 0.0) ap.linker.max_speed_mps = cfg.max_speed_mps;
        const auto t3 = std::chrono::steady_clock::now();
        const adversary::AttackReport again =
            adversary::run_attack(*runner->observation_feed(), ap, cfg.sim_seconds);
        rep.attack_s = seconds_since(t3);
        rep.attack_matches = again.links_made == rep.result.attack.links_made &&
                             again.candidate_pairs == rep.result.attack.candidate_pairs;
    }
    SpanRecorder::Scope s(spans, "workload.teardown");
    runner.reset();
    return rep;
}

double setup_only(const workload::ScenarioConfig& cfg) {
    const auto t0 = std::chrono::steady_clock::now();
    auto runner = std::make_unique<workload::ScenarioRunner>(cfg);
    runner->setup();
    const double s = seconds_since(t0);
    runner.reset();
    return s;
}

// ---- Output ---------------------------------------------------------------

class Report {
  public:
    /// A metric for the result line (`in_json`) or a printed-only figure.
    void add(const std::string& name, double value, const std::string& unit,
             const std::string& detail = {}, bool in_json = true) {
        if (in_json) metrics_.push_back({name, value, unit});
        std::printf("  %-34s %18.6f %-6s %s\n", name.c_str(), value, unit.c_str(),
                    detail.c_str());
    }
    /// A ratio, printed with its numerator and denominator.
    void ratio(const std::string& name, double num, double den) {
        char detail[96];
        std::snprintf(detail, sizeof detail, "%.0f / %.0f", num, den);
        add(name, den > 0 ? num / den : 0.0, "ratio", detail);
    }
    /// A check over `total` scenarios, `failed` of which did not pass.
    void check(const std::string& what, std::size_t failed, std::size_t total) {
        std::printf("  check %-54s %s (%zu/%zu)\n", what.c_str(), failed ? "FAILED" : "ok",
                    total - failed, total);
        failed_checks_ += failed;
    }
    std::uint64_t failed_checks() const { return failed_checks_; }

    std::string json(std::uint64_t attempted, std::uint64_t failed) const {
        std::ostringstream o;
        o << "{\"correct\": " << (failed_checks_ == 0 ? "true" : "false")
          << ", \"attempted\": " << attempted << ", \"failed\": " << failed
          << ", \"metrics\": {";
        char buf[64];
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
            std::snprintf(buf, sizeof buf, "%.17g", v);
            o << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": " << buf
              << ", \"unit\": \"" << metrics_[i].unit << "\"}";
        }
        o << "}}";
        return o.str();
    }

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::uint64_t failed_checks_{0};
};

double counter(const workload::ScenarioResult& r, const char* name) {
    return static_cast<double>(r.metrics.counter(name));
}

/// A counter summed over the first run of every scenario.
double total(const std::vector<const workload::ScenarioResult*>& rs, const char* name) {
    double s = 0.0;
    for (const auto* r : rs) s += counter(*r, name);
    return s;
}

/// The correctness checks every scenario's result must pass.
void check_results(Report& out, const workload::ScenarioConfig& cfg,
                   const std::vector<const workload::ScenarioResult*>& rs) {
    const auto count_failed = [&](auto pred) {
        std::size_t n = 0;
        for (const auto* r : rs) n += pred(*r) ? 0 : 1;
        return n;
    };
    out.check("delivered <= sent, sent > 0",
              count_failed([](const auto& r) { return r.app_delivered <= r.app_sent && r.app_sent > 0; }),
              rs.size());
    out.check("events_processed > 0",
              count_failed([](const auto& r) { return r.events_processed > 0; }), rs.size());
    if (cfg.check_invariants)
        out.check("invariant violations == 0",
                  count_failed([](const auto& r) { return r.invariants.violations() == 0; }),
                  rs.size());
    if (cfg.attach_observer)
        out.check("adversary hello observations > 0",
                  count_failed([](const auto& r) { return r.attack.hello_observations > 0; }),
                  rs.size());
}

/// Prints the latency figures: the median over scenarios of each scenario's
/// p50, and of the highest of p99/p95/p50 with ten samples beyond it.
void latency_metrics(Report& out, const std::vector<const workload::ScenarioResult*>& rs,
                     bool in_json) {
    std::vector<double> p50, tail;
    std::uint64_t samples = 0;
    int lowest_pct = 99;
    for (const auto* r : rs) {
        obs::MetricsSnapshot::Hist h;
        for (const auto& x : r->metrics.histograms)
            if (x.name == "app.latency_ms") h = x;
        const double n = static_cast<double>(h.count);
        samples += h.count;
        p50.push_back(h.p50);
        const int pct = n * 0.01 >= 10 ? 99 : n * 0.05 >= 10 ? 95 : 50;
        tail.push_back(pct == 99 ? h.p99 : pct == 95 ? h.p95 : h.p50);
        lowest_pct = std::min(lowest_pct, pct);
    }
    char detail[128];
    std::snprintf(detail, sizeof detail, "median over %zu scenarios; %llu samples", rs.size(),
                  static_cast<unsigned long long>(samples));
    out.add("latency_p50_sim_ms", median(p50), "ms", detail, in_json);
    std::snprintf(detail, sizeof detail,
                  "median over %zu scenarios; p%d or higher, >=10 samples beyond", rs.size(),
                  lowest_pct);
    out.add("latency_p99_sim_ms", median(tail), "ms", detail, in_json);
}

/// Undelivered packets are failed operations, and so is every failed check.
std::string result_line(const Report& out, const std::vector<const workload::ScenarioResult*>& rs) {
    std::uint64_t sent = 0, lost = 0;
    for (const auto* r : rs) {
        sent += r->app_sent;
        lost += r->app_sent - std::min(r->app_delivered, r->app_sent);
    }
    return out.json(sent + out.failed_checks(), lost + out.failed_checks());
}

// ---- End-to-end mode ------------------------------------------------------

int run_end_to_end(const Workload& w, double budget_s) {
    SpanRecorder off(false);
    const std::size_t k = w.scenarios.size();
    const auto start = std::chrono::steady_clock::now();
    // One pass over the scenarios, then scenario 0 again for the determinism
    // check; leftover budget buys more repeats, in scenario order. Timings
    // are medians per scenario, averaged over scenarios, so the repeats
    // sharpen the figures without changing what they estimate.
    std::vector<std::vector<Rep>> reps(k);
    std::size_t runs = 0;
    while (runs <= k || seconds_since(start) * static_cast<double>(runs + 1) /
                                static_cast<double>(runs) <
                            budget_s * 0.9) {
        reps[runs % k].push_back(run_rep(w.scenarios[runs % k], off));
        ++runs;
    }
    // Set-up alone, repeated: on the small workloads it is well under a
    // millisecond and needs many samples to give a steady median.
    std::vector<double> setups;
    const auto setup_start = std::chrono::steady_clock::now();
    const double setup_budget = std::max(0.5, budget_s * 0.1);
    for (std::size_t i = 0; setups.size() < 5 ||
                            (seconds_since(setup_start) < setup_budget && setups.size() < 20000);
         ++i) {
        setups.push_back(setup_only(w.scenarios[i % k]));
    }

    std::vector<const workload::ScenarioResult*> rs;
    std::vector<double> total_s, loop_s, rss;
    double events = 0.0;
    std::size_t nondeterministic = 0;
    for (const std::vector<Rep>& per : reps) {
        rs.push_back(&per.front().result);
        std::vector<double> t, l, m;
        for (const Rep& r : per) {
            t.push_back(r.total_s);
            l.push_back(r.loop_s);
            m.push_back(r.peak_rss_mib);
            if (r.json != per.front().json) ++nondeterministic;
        }
        total_s.push_back(median(t));
        loop_s.push_back(median(l));
        rss.push_back(median(m));
        events += static_cast<double>(per.front().result.events_processed);
    }

    Report out;
    const workload::ScenarioConfig& cfg = w.scenarios.front();
    std::printf("workload %s: %zu scenarios of %zu nodes, %.0f simulated s each; "
                "%zu scenario runs, %zu set-ups\n",
                w.name.c_str(), k, cfg.num_nodes, cfg.sim_seconds, runs, setups.size());
    check_results(out, cfg, rs);
    out.check("result JSON identical on every repeat of a seed", nondeterministic,
              runs - k);

    char detail[128];
    std::snprintf(detail, sizeof detail, "median of %zu set-ups", setups.size());
    out.add("setup_s", median(setups), "s", detail);
    std::snprintf(detail, sizeof detail, "set-up + run() + serialize; mean over %zu scenarios", k);
    out.add("total_s", mean(total_s), "s", detail);
    double loop_sum = 0.0;
    for (const double l : loop_s) loop_sum += l;
    std::snprintf(detail, sizeof detail, "%.0f events / %.3f loop s", events, loop_sum);
    out.add("sim_events_per_s", events / loop_sum, "1/s", detail);
    std::snprintf(detail, sizeof detail, "mean over %zu scenarios", k);
    out.add("peak_rss_mib", mean(rss), "MiB", detail);
    double sent = 0.0, delivered = 0.0;
    for (const auto* r : rs) {
        sent += static_cast<double>(r->app_sent);
        delivered += static_cast<double>(r->app_delivered);
    }
    out.ratio("delivery_fraction", delivered, sent);
    // The two privacy metrics exist only where the observer and the ALS run.
    // Elsewhere they read 1 (n/a), so that every workload reports a nonzero
    // value for every metric.
    if (cfg.attach_observer) {
        std::vector<double> tracking;
        for (const auto* r : rs) tracking.push_back(r->attack.tracking_success_rate);
        std::snprintf(detail, sizeof detail, "strong attacker, mix zones; mean over %zu", k);
        out.add("tracking_success_rate", mean(tracking), "ratio", detail);
    } else {
        out.add("tracking_success_rate", 1.0, "ratio", "n/a: no observer on this workload");
    }
    if (cfg.location_service)
        out.ratio("als_resolve_fraction", total(rs, "ls.resolved_ok"),
                  total(rs, "ls.resolved_ok") + total(rs, "ls.resolved_fail"));
    else
        out.add("als_resolve_fraction", 1.0, "ratio", "n/a: perfect location oracle");
    // Latency spreads too widely across seeds to bound (README.md); it is
    // printed here and reported as a per-layer metric by the traced mode.
    latency_metrics(out, rs, false);

    std::printf("%s\n", result_line(out, rs).c_str());
    return out.failed_checks() == 0 ? 0 : 1;
}

// ---- Traced mode ----------------------------------------------------------

void write_spans(const SpanRecorder& spans, const std::string& path) {
    experiment::JsonWriter j;
    j.begin_object();
    j.key("spans").begin_array();
    for (const Span& s : spans.spans()) {
        j.begin_object();
        j.key("name").value(s.name);
        j.key("run").value(s.run_id);
        j.key("start_s").value(s.start_s);
        j.key("end_s").value(s.end_s);
        j.key("parent").value(static_cast<std::int64_t>(s.parent));
        j.end_object();
    }
    j.end_array();
    j.key("self_s").begin_object();
    for (const auto& [name, self] : spans.self_seconds()) j.key(name).value(self);
    j.end_object();
    j.end_object();
    if (!experiment::write_text_file(path, j.str()))
        std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
}

int run_traced(const Workload& w, const std::string& spans_out) {
    SpanRecorder spans(true);
    SpanRecorder off(false);
    const std::size_t k = w.scenarios.size();
    const workload::ScenarioConfig& cfg = w.scenarios.front();
    // Untraced and traced runs of each scenario alternate, so both see the
    // same host load; their difference is the tracing overhead.
    std::vector<Rep> plain, traced;
    for (std::size_t i = 0; i < k; ++i) {
        plain.push_back(run_rep(w.scenarios[i], off));
        spans.set_run_id(w.name + "#" + std::to_string(i));
        traced.push_back(run_rep(w.scenarios[i], spans));
    }
    std::vector<const workload::ScenarioResult*> rs;
    std::size_t diverged = 0, attack_mismatch = 0;
    for (std::size_t i = 0; i < k; ++i) {
        rs.push_back(&traced[i].result);
        if (traced[i].json != plain[i].json) ++diverged;
        if (!traced[i].attack_matches) ++attack_mismatch;
    }
    const auto mean_of = [](const std::vector<Rep>& reps, auto field) {
        std::vector<double> v;
        for (const Rep& x : reps) v.push_back(field(x));
        return mean(v);
    };

    Report out;
    std::printf("workload %s (traced): %zu scenarios, each run untraced and traced\n",
                w.name.c_str(), k);
    check_results(out, cfg, rs);
    out.check("traced result JSON identical to untraced", diverged, k);
    if (cfg.attach_observer) out.check("re-run attack reproduces the run's links", attack_mismatch, k);
    char detail[128];

    // workload
    out.add("workload.setup_rss_mib", mean_of(plain, [](const Rep& x) { return x.setup_rss_mib; }),
            "MiB", "peak RSS right after setup(); mean over scenarios");
    out.add("workload.aggregate_s", mean_of(plain, [](const Rep& x) { return x.run_s - x.loop_s; }),
            "s", "run() minus the simulation loop; mean over scenarios");

    // app: the simulated latency, which spreads too widely to bound
    latency_metrics(out, rs, true);

    // sim
    double events = 0.0, loop_s = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
        events += static_cast<double>(rs[i]->events_processed);
        loop_s += plain[i].loop_s;
    }
    std::size_t pending = 0;
    for (const auto* r : rs) pending = std::max(pending, r->perf.peak_queue_depth);
    out.add("sim.events", events, "count", "summed over scenarios");
    out.add("sim.peak_pending", static_cast<double>(pending), "count", "max over scenarios");
    std::snprintf(detail, sizeof detail, "%.3f loop s / %.0f events", loop_s, events);
    out.add("sim.ns_per_event", loop_s * 1e9 / events, "ns", detail);
    spans.set_run_id(w.name + "#probes");
    {
        SpanRecorder::Scope s(spans, "probe.sim.kernel");
        std::snprintf(detail, sizeof detail, "timer churn, %zu timers", pending);
        out.add("sim.kernel_ns_per_event", kernel_ns_per_event(pending, 4000000), "ns", detail);
    }

    // phy
    out.add("phy.transmissions", total(rs, "phy.transmissions"), "count");
    out.add("phy.deliveries", total(rs, "phy.deliveries"), "count");
    out.ratio("phy.deliveries_per_tx", total(rs, "phy.deliveries"), total(rs, "phy.transmissions"));
    out.ratio("phy.corrupt_ratio", total(rs, "phy.frames_corrupted"),
              total(rs, "phy.frames_delivered") + total(rs, "phy.frames_corrupted"));
    mobility::RandomWaypoint::Params rwp;
    rwp.min_speed_mps = cfg.min_speed_mps;
    rwp.max_speed_mps = cfg.max_speed_mps;
    rwp.pause = util::SimTime::seconds(cfg.pause_s);
    {
        SpanRecorder::Scope s(spans, "probe.phy.channel");
        const ChannelProbe cp = channel_probe(cfg.num_nodes, cfg.area, rwp, cfg.phy, 200000);
        std::snprintf(detail, sizeof detail, "bare channel, %llu tx, %llu deliveries",
                      static_cast<unsigned long long>(cp.transmissions),
                      static_cast<unsigned long long>(cp.deliveries));
        out.add("phy.channel_ns_per_tx", cp.ns_per_tx, "ns", detail);
    }

    // mac
    out.add("mac.rts_sent", total(rs, "mac.rts_sent"), "count");
    out.add("mac.retries", total(rs, "mac.retries"), "count");
    out.ratio("mac.retry_ratio", total(rs, "mac.retries"), total(rs, "mac.data_sent"));
    out.add("mac.unicast_drop_retry", total(rs, "mac.unicast_drop_retry"), "count");
    out.add("mac.drop_queue_full", total(rs, "mac.drop_queue_full"), "count");

    // core (AGFW / ANT)
    out.add("agfw.hello_sent", total(rs, "agfw.hello_sent"), "count");
    out.add("agfw.forwarded", total(rs, "agfw.forwarded"), "count");
    out.ratio("agfw.retx_ratio", total(rs, "agfw.retransmissions"), total(rs, "agfw.forwarded"));
    out.ratio("agfw.trapdoor_open_ratio", total(rs, "agfw.trapdoor_opens"),
              total(rs, "agfw.trapdoor_attempts"));
    out.add("agfw.last_attempts", total(rs, "agfw.last_attempts"), "count");
    out.add("agfw.hello_suppressed", total(rs, "agfw.hello_suppressed"), "count");

    // routing
    out.add("gpsr.forwarded", total(rs, "gpsr.forwarded"), "count");
    out.add("gpsr.drop_mac", total(rs, "gpsr.drop_mac"), "count");
    out.add("ls.queries_sent", total(rs, "ls.queries_sent"), "count");
    out.add("ls.decrypt_attempts", total(rs, "ls.decrypt_attempts"), "count");
    out.add("ls.replica.digests_sent", total(rs, "ls.replica.digests_sent"), "count");

    // crypto: probe cost per call x the calls the runs made, each count read
    // off the counter that moves once per call.
    {
        SpanRecorder::Scope s(spans, "probe.crypto");
        const std::map<std::string, double> ns = crypto_ns_per_call(20000);
        const AlsUpdateSizes sz = als_update_sizes();
        const double rows =
            cfg.location_service
                ? (total(rs, "ls.update_bytes") -
                   total(rs, "ls.updates_sent") * static_cast<double>(sz.empty_bytes)) /
                      static_cast<double>(sz.row_bytes)
                : 0.0;
        const double trapdoors = total(rs, "agfw.app_sent") - total(rs, "agfw.drop_no_location");
        const std::map<std::string, double> calls = {
            {"make_pseudonym", total(rs, "agfw.pseudonym_rotations")},
            {"anonymize_uid", trapdoors + total(rs, "agfw.acks_sent")},
            {"make_trapdoor", trapdoors},
            {"try_open_trapdoor", total(rs, "agfw.trapdoor_attempts")},
            {"encrypt_for", rows},
            {"try_decrypt", total(rs, "ls.decrypt_attempts")},
            {"als_index", rows + total(rs, "ls.queries_sent")},
        };
        double busy_ns = 0.0;
        for (const auto& [op, per_call] : ns) {
            std::snprintf(detail, sizeof detail, "x %.0f calls in the runs", calls.at(op));
            out.add("crypto.ns_per_call." + op, per_call, "ns", detail);
            busy_ns += per_call * calls.at(op);
        }
        std::snprintf(detail, sizeof detail, "calls x ns per call, per scenario");
        out.add("crypto.est_busy_s", busy_ns * 1e-9 / static_cast<double>(k), "s", detail);
    }

    // mobility
    {
        SpanRecorder::Scope s(spans, "probe.mobility");
        out.add("mobility.ns_per_position",
                mobility_ns_per_position(cfg.num_nodes, cfg.area, rwp, 4000000), "ns",
                "RandomWaypoint::position_at");
    }

    // adversary
    double pairs = 0.0, links = 0.0, hellos = 0.0;
    for (const auto* r : rs) {
        pairs += static_cast<double>(r->attack.candidate_pairs);
        links += static_cast<double>(r->attack.links_made);
        hellos += static_cast<double>(r->attack.hello_observations);
    }
    out.add("adv.hello_observations", hellos, "count");
    out.add("adv.candidate_pairs", pairs, "count");
    out.ratio("adv.link_yield", links, pairs);
    out.add("adversary.run_attack_s", mean_of(traced, [](const Rep& x) { return x.attack_s; }),
            "s", "run_attack on observation_feed(); mean over scenarios");

    // analysis
    double frames_checked = 0.0, violations = 0.0;
    for (const auto* r : rs) {
        frames_checked += static_cast<double>(r->invariants.frames_checked);
        violations += static_cast<double>(r->invariants.violations());
    }
    out.add("inv.frames_checked", frames_checked, "count");
    out.add("inv.violations", violations, "count");
    double checker_s = 0.0;
    if (cfg.check_invariants) {
        std::vector<Rep> unchecked;
        for (std::size_t i = 0; i < k; ++i) {
            workload::ScenarioConfig no_checker = w.scenarios[i];
            no_checker.check_invariants = false;
            spans.set_run_id(w.name + "#" + std::to_string(i) + "-no-checker");
            unchecked.push_back(run_rep(no_checker, spans));
        }
        checker_s = mean_of(plain, [](const Rep& x) { return x.run_s; }) -
                    mean_of(unchecked, [](const Rep& x) { return x.run_s; });
    }
    out.add("analysis.checker_overhead_s", checker_s, "s",
            "run() with the checker minus without; mean over scenarios");

    // bench
    out.add("bench.trace_overhead_s",
            mean_of(traced, [](const Rep& x) { return x.total_s; }) -
                mean_of(plain, [](const Rep& x) { return x.total_s; }),
            "s", "traced total_s minus untraced total_s");

    std::printf("  span self time (s), summed over runs:\n");
    for (const auto& [name, self] : spans.self_seconds())
        std::printf("    %-32s %12.6f\n", name.c_str(), self);
    if (!spans_out.empty()) write_spans(spans, spans_out);

    std::printf("%s\n", result_line(out, rs).c_str());
    return out.failed_checks() == 0 ? 0 : 1;
}

struct Args {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{20.0};
    int trace{0};
    std::string spans_dir;
};

std::optional<Args> parse(int argc, char** argv) {
    if (argc % 2 != 1) return std::nullopt;
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        char* end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else if (k == "--spans-dir") {
            a.spans_dir = v;
        } else {
            return std::nullopt;
        }
        if (end != nullptr && (*end != '\0' || v.empty())) return std::nullopt;
    }
    if (a.workload.empty() || !(a.seconds > 0) || (a.trace != 0 && a.trace != 1))
        return std::nullopt;
    return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    const std::optional<Args> args = parse(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <paper-gpsr|privacy-als|scale-agfw-10k|all> "
                     "--seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]\n");
        return 2;
    }
    std::vector<std::string> names;
    if (args->workload == "all") {
        for (const WorkloadSpec& spec : kSpecs) names.emplace_back(spec.name);
    } else {
        names.push_back(args->workload);
    }
    int rc = 0;
    for (const std::string& name : names) {
        const std::optional<Workload> w = make_workload(name, args->seed);
        if (!w) {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
            return 2;
        }
        std::string spans_out;
        if (!args->spans_dir.empty())
            spans_out = args->spans_dir + "/" + name + "-seed" + std::to_string(args->seed) + ".json";
        const int one = args->trace ? run_traced(*w, spans_out) : run_end_to_end(*w, args->seconds);
        std::fflush(stdout);
        rc = std::max(rc, one);
    }
    return rc;
}
