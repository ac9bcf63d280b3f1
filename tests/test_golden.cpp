// Golden result JSON: two short scenarios whose serialized ScenarioResult
// must match tests/golden/*.json byte for byte. The files pin the result
// schema (key names, key order, number formatting) and the simulated
// outcome together, so any change to either shows up here first.
//
// To regenerate after a deliberate change, run test_golden: on a mismatch it
// writes the new output next to the test binary as <name>.actual.json; review
// the diff and copy it over tests/golden/<name>.json.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "experiment/json.hpp"
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
/// every fault class that feeds the resilience block, with the eavesdropper,
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

// The accessors and the result table derive the same values on their own
// paths; both must print the same bytes.
TEST(GoldenResult, AccessorsMatchTheJson) {
    const workload::ScenarioResult r = workload::ScenarioRunner(agfw_ack_faults()).run();
    const std::string json = experiment::result_to_json(r);
    const auto expect_printed = [&](const char* key, double v) {
        experiment::JsonWriter w;
        w.begin_object().key(key).value(v).end_object();
        // "key":value followed by the next key's comma.
        const std::string kv = w.str().substr(1, w.str().size() - 2) + ",";
        EXPECT_NE(json.find(kv), std::string::npos) << kv;
    };
    expect_printed("delivery_fraction", r.delivery_fraction());
    expect_printed("avg_latency_ms", r.avg_latency_ms());
    expect_printed("p50_latency_ms", r.p50_latency_ms());
    expect_printed("p95_latency_ms", r.p95_latency_ms());
    expect_printed("avg_hops", r.avg_hops());
}

// MetricsSnapshot reads 0 for a name nobody publishes, so a misspelled
// registry name in the result table would print 0 without any error. Every
// name the table reads must be published by one of the golden runs.
TEST(GoldenResult, ResultTableReadsOnlyPublishedNames) {
    const obs::MetricsSnapshot gpsr = workload::ScenarioRunner(gpsr_plain_als()).run().metrics;
    const obs::MetricsSnapshot agfw = workload::ScenarioRunner(agfw_ack_faults()).run().metrics;
    const auto published = [&](const char* name, bool histogram) {
        for (const obs::MetricsSnapshot* m : {&gpsr, &agfw}) {
            if (histogram && m->histogram(name).name == name) return true;
            for (const auto& [counter, v] : m->counters)
                if (!histogram && counter == name) return true;
        }
        return false;
    };
    using Read = experiment::ResultKey::Read;
    for (const experiment::ResultKey& k : experiment::result_keys()) {
        const bool histogram = k.read != Read::kCounter && k.read != Read::kRatio;
        EXPECT_TRUE(published(k.name, histogram)) << k.key << " reads " << k.name;
        if (k.name2) {
            EXPECT_TRUE(published(k.name2, histogram)) << k.key << " reads " << k.name2;
        }
    }
}

}  // namespace
