// Golden result JSON: two short scenarios whose serialized ScenarioResult
// must match tests/golden/*.json byte for byte. The result is the registry
// snapshot: {"metrics": {counters, gauges, histograms}, "series",
// "events_processed", "peak_queue_depth"}. The files pin that schema
// (registry names, key order, number formatting) and the simulated outcome
// together, so any change to either shows up here first.
//
// To regenerate after a deliberate change, run test_golden: on a mismatch it
// writes the new output next to the test binary as <name>.actual.json; review
// the diff and copy it over tests/golden/<name>.json.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "experiment/json.hpp"
#include "published_metrics.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using fault::FaultPlan;
using util::SimTime;
using workload::ScenarioConfig;

/// GPSR greedy over the plain (identity-bearing) location service.
ScenarioConfig gpsr_plain_als() {
    ScenarioConfig cfg;
    cfg.scheme = workload::Scheme::kGpsrGreedy;
    cfg.seed = 11;
    cfg.num_nodes = 30;
    cfg.num_flows = 8;
    cfg.num_senders = 6;
    cfg.sim_seconds = 40.0;
    cfg.traffic_stop_s = 35.0;
    cfg.location_service = routing::LocationService::Mode::kPlain;
    return cfg;
}

/// AGFW with network-layer ACKs over the anonymous location service, under
/// every fault class that feeds the fault.* metrics, with the eavesdropper,
/// the observer (offline attack) and the invariant checker attached.
ScenarioConfig agfw_ack_faults() {
    ScenarioConfig cfg;
    cfg.scheme = workload::Scheme::kAgfwAck;
    cfg.seed = 23;
    cfg.num_nodes = 40;
    cfg.num_flows = 8;
    cfg.num_senders = 6;
    cfg.sim_seconds = 45.0;
    cfg.traffic_stop_s = 40.0;
    cfg.location_service = routing::LocationService::Mode::kAnonymous;
    cfg.attach_eavesdropper = true;
    cfg.attach_observer = true;
    cfg.check_invariants = true;

    FaultPlan& plan = cfg.faults;
    plan.seed = 5;
    plan.crashes.push_back({3, SimTime::seconds(12.0), SimTime::seconds(8.0)});
    FaultPlan::Churn churn;
    churn.crash_rate_per_s = 0.2;
    churn.start = SimTime::seconds(5.0);
    churn.stop = SimTime::seconds(35.0);
    churn.min_down = SimTime::seconds(3.0);
    churn.max_down = SimTime::seconds(6.0);
    churn.max_concurrent_down = 4;
    plan.churn = churn;
    plan.jams.push_back({util::Vec2{750.0, 150.0}, 120.0, SimTime::seconds(15.0),
                         SimTime::seconds(22.0)});
    plan.partitions.push_back({900.0, SimTime::seconds(24.0), SimTime::seconds(30.0)});
    FaultPlan::AlsOutage outage;
    outage.target = 2;
    outage.at = SimTime::seconds(18.0);
    outage.duration = SimTime::seconds(10.0);
    plan.als_outages.push_back(outage);
    return cfg;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void expect_golden(const std::string& name, const ScenarioConfig& cfg) {
    const std::string actual =
        experiment::result_to_json(workload::ScenarioRunner(cfg).run()) + "\n";
    const std::string golden = slurp(std::string(GEOANON_GOLDEN_DIR) + "/" + name + ".json");
    if (actual == golden) return;
    const std::string out = name + ".actual.json";
    std::ofstream(out, std::ios::binary) << actual;
    ADD_FAILURE() << "result JSON differs from tests/golden/" << name << ".json; "
                  << "this run's output is in " << out;
}

TEST(GoldenResult, GpsrPlainAls) { expect_golden("gpsr_plain_als", gpsr_plain_als()); }

TEST(GoldenResult, AgfwAckAnonymousAlsUnderFaults) {
    expect_golden("agfw_ack_faults", agfw_ack_faults());
}

// The accessors derive the paper's metrics from the snapshot; they must
// agree with the values the JSON prints.
TEST(GoldenResult, AccessorsMatchTheJson) {
    const workload::ScenarioResult r = workload::ScenarioRunner(agfw_ack_faults()).run();
    const std::string json = experiment::result_to_json(r);
    const auto printed_counter = [&](const std::string& name) {
        const std::size_t at = json.find("\"" + name + "\":");
        EXPECT_NE(at, std::string::npos) << name;
        return at == std::string::npos ? 0.0 : std::stod(json.substr(at + name.size() + 3));
    };
    const double sent = printed_counter("app.sent");
    ASSERT_GT(sent, 0.0);
    EXPECT_EQ(r.delivery_fraction(), printed_counter("app.delivered") / sent);

    // "p50":<v>, and "p95":<v>, inside the app.latency_ms histogram object.
    const auto printed = [](const char* key, double v) {
        experiment::JsonWriter w;
        w.begin_object().key(key).value(v).end_object();
        return "," + w.str().substr(1, w.str().size() - 2) + ",";
    };
    const std::size_t hist = json.find("\"app.latency_ms\":{");
    ASSERT_NE(hist, std::string::npos);
    const std::string latency = json.substr(hist, json.find('}', hist) - hist);
    EXPECT_NE(latency.find(printed("p50", r.p50_latency_ms())), std::string::npos) << latency;
    EXPECT_NE(latency.find(printed("p95", r.p95_latency_ms())), std::string::npos) << latency;
}

// ScenarioResult keeps app_sent/app_delivered, the attack report and the
// checker counters only because perfbench reads them; they must equal the
// registry values the JSON prints.
TEST(GoldenResult, PerfbenchCopiesMatchTheRegistry) {
    const workload::ScenarioResult r = workload::ScenarioRunner(agfw_ack_faults()).run();
    const obs::MetricsSnapshot& m = r.metrics;
    const auto counter = [&](const char* name) { return test::published_counter(m, name); };
    const auto gauge = [&](const char* name) { return test::published_gauge(m, name); };

    EXPECT_EQ(r.app_sent, counter("app.sent"));
    EXPECT_EQ(r.app_delivered, counter("app.delivered"));

    const adversary::AttackReport& a = r.attack;
    EXPECT_EQ(a.hello_observations, counter("adv.hello_observations"));
    EXPECT_EQ(a.tracklets, counter("adv.tracklets"));
    EXPECT_EQ(a.chains, counter("adv.chains"));
    EXPECT_EQ(a.candidate_pairs, counter("adv.candidate_pairs"));
    EXPECT_EQ(a.links_made, counter("adv.links_made"));
    EXPECT_EQ(a.links_correct, counter("adv.links_correct"));
    EXPECT_EQ(a.link_precision, gauge("adv.link_precision"));
    EXPECT_EQ(a.link_recall, gauge("adv.link_recall"));
    EXPECT_EQ(a.tracking_success_rate, gauge("adv.tracking_success_rate"));
    EXPECT_EQ(a.mean_anonymity_set, gauge("adv.mean_anonymity_set"));
    EXPECT_EQ(a.max_anonymity_set, gauge("adv.max_anonymity_set"));
    EXPECT_EQ(a.mean_path_error_m, gauge("adv.mean_path_error_m"));
    ASSERT_EQ(m.series.size(), 1u);
    EXPECT_EQ(m.series.front().first, "adv.anonymity_over_time");
    EXPECT_EQ(m.series.front().second, a.anonymity_over_time);

    const analysis::InvariantChecker::Counters& c = r.invariants;
    EXPECT_EQ(c.frames_checked, counter("inv.frames_checked"));
    EXPECT_EQ(c.packets_checked, counter("inv.packets_checked"));
    EXPECT_EQ(c.ant_entries_checked, counter("inv.ant_entries_checked"));
    EXPECT_EQ(c.sweeps, counter("inv.sweeps"));
    EXPECT_EQ(c.rotated_out_targets, counter("inv.rotated_out_targets"));
    EXPECT_EQ(c.last_attempt_frames, counter("inv.last_attempt_frames"));
    EXPECT_EQ(c.plain_ls_fallbacks, counter("inv.plain_ls_fallbacks"));
    const std::pair<std::uint64_t, const char*> violations[] = {
        {c.cleartext_identity, "inv.cleartext_identity"},
        {c.mac_address_exposed, "inv.mac_address_exposed"},
        {c.missing_trapdoor, "inv.missing_trapdoor"},
        {c.unknown_pseudonym, "inv.unknown_pseudonym"},
        {c.stale_pseudonym_target, "inv.stale_pseudonym_target"},
        {c.overlong_ant_ttl, "inv.overlong_ant_ttl"},
        {c.stale_ant_entry, "inv.stale_ant_entry"},
        {c.ack_without_delivery, "inv.ack_without_delivery"},
        {c.codec_reject, "inv.codec_reject"},
        {c.wire_size_mismatch, "inv.wire_size_mismatch"},
    };
    std::uint64_t sum = 0;
    for (const auto& [copy, name] : violations) {
        EXPECT_EQ(copy, counter(name)) << name;
        sum += counter(name);
    }
    EXPECT_EQ(c.violations(), sum);
    EXPECT_EQ(r.invariant_violations(), sum);

    // The run is clean, so give each violation counter its own bit:
    // invariant_violations() must read exactly these ten names.
    workload::ScenarioResult bits;
    std::uint64_t bit = 1;
    for (const auto& [copy, name] : violations) {
        bits.metrics.counters.emplace_back(name, bit);
        bit <<= 1;
    }
    std::sort(bits.metrics.counters.begin(), bits.metrics.counters.end());
    EXPECT_EQ(bits.invariant_violations(), bit - 1);
}

}  // namespace
