#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/trajectory.hpp"
#include "analysis/invariant_checker.hpp"
#include "core/agfw.hpp"
#include "experiment/json.hpp"
#include "fault/fault.hpp"
#include "mac/mac80211.hpp"
#include "experiment/sweep.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"
#include "phy/channel.hpp"
#include "routing/gpsr.hpp"
#include "routing/location_service.hpp"
#include "util/json.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using obs::DropCause;
using obs::Event;
using obs::EventType;
using util::SimTime;

// ---------------------------------------------------------------- recorder

TEST(TraceRecorder, AssignsMonotonicIdsAndTimestamps) {
    obs::TraceRecorder rec;
    rec.record(SimTime::millis(1), Event{.type = EventType::kAppSend, .node = 3});
    rec.record(SimTime::millis(2), Event{.type = EventType::kNetDeliver, .node = 4});
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].id, 1u);
    EXPECT_EQ(events[1].id, 2u);
    EXPECT_EQ(events[0].t, SimTime::millis(1));
    EXPECT_EQ(rec.recorded(), 2u);
    EXPECT_EQ(rec.evicted(), 0u);
}

TEST(TraceRecorder, RingEvictsOldestPerShardButIdsStayStable) {
    obs::TraceParams p;
    p.shard_capacity = 4;
    obs::TraceRecorder rec(p);
    // 10 events on node 1, interleaved with 2 on node 2: node 1's shard
    // keeps its newest 4; node 2 is untouched by node 1's pressure.
    for (std::uint32_t i = 0; i < 10; ++i)
        rec.record(SimTime::millis(i), Event{.type = EventType::kPhyTx, .node = 1, .seq = i});
    rec.record(SimTime::millis(100), Event{.type = EventType::kPhyRx, .node = 2});
    rec.record(SimTime::millis(101), Event{.type = EventType::kPhyRx, .node = 2});

    const auto events = rec.events();
    ASSERT_EQ(events.size(), 6u);
    EXPECT_EQ(rec.recorded(), 12u);
    EXPECT_EQ(rec.evicted(), 6u);
    // Sorted by id = record order; node 1's survivors are seq 6..9.
    EXPECT_EQ(events[0].seq, 6u);
    EXPECT_EQ(events[3].seq, 9u);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LT(events[i - 1].id, events[i].id);
}

TEST(TraceNames, RoundTripEveryEnumerator) {
    for (const EventType t : obs::kAllEventTypes) {
        EventType back{};
        ASSERT_TRUE(obs::event_type_from_name(obs::event_type_name(t), back))
            << obs::event_type_name(t);
        EXPECT_EQ(back, t);
    }
    for (const DropCause c : obs::kAllDropCauses) {
        DropCause back{};
        ASSERT_TRUE(obs::drop_cause_from_name(obs::drop_cause_name(c), back));
        EXPECT_EQ(back, c);
    }
    EventType t{};
    EXPECT_FALSE(obs::event_type_from_name("not_an_event", t));
}

// ---------------------------------------------------------------- metrics

TEST(MetricsRegistry, CountersGaugesHistograms) {
    obs::MetricsRegistry reg;
    reg.add("mac.retries", 3);
    reg.add("mac.retries", 2);
    reg.set_gauge("phy.range_m", 250.0);
    util::Sampler latency;
    for (int i = 1; i <= 100; ++i) latency.add(i);
    reg.observe_all("app.latency_ms", latency);

    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("mac.retries"), 5u);
    EXPECT_EQ(snap.counter("never.touched"), 0u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(snap.gauges[0].second, 250.0);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, 100u);
    EXPECT_DOUBLE_EQ(snap.histograms[0].p50, 50.0);
    EXPECT_DOUBLE_EQ(snap.histograms[0].min, 1.0);
    EXPECT_DOUBLE_EQ(snap.histograms[0].max, 100.0);
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
    obs::MetricsRegistry reg;
    reg.add("zeta", 1);
    reg.add("alpha", 1);
    reg.add("mid", 1);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 3u);
    EXPECT_EQ(snap.counters[0].first, "alpha");
    EXPECT_EQ(snap.counters[2].first, "zeta");
}

TEST(Metrics, EveryCounterNameIsDistinctAndCarriesItsLayerPrefix) {
    // Two counters published under one name would silently merge.
    std::set<std::string> names;
    std::size_t listed = 0;
    const auto walk = [&](const auto& stats, const std::string& prefix) {
        stats.for_each([&](const char* name, std::uint64_t value) {
            ++listed;
            EXPECT_EQ(value, 0u) << name;
            EXPECT_EQ(std::string(name).rfind(prefix, 0), 0u) << name << " lacks " << prefix;
            EXPECT_TRUE(names.insert(name).second) << "duplicate counter name " << name;
        });
    };
    walk(core::AgfwAgent::Stats{}, "agfw.");
    walk(routing::LocationService::Stats{}, "ls.");
    walk(routing::GpsrGreedyAgent::Stats{}, "gpsr.");
    walk(mac::MacStats{}, "mac.");
    walk(phy::Radio::Stats{}, "phy.");
    walk(phy::Channel::Stats{}, "phy.");
    walk(fault::FaultInjector::Stats{}, "fault.");
    walk(analysis::InvariantChecker::Counters{}, "inv.");
    walk(adversary::AttackReport{}, "adv.");
    EXPECT_EQ(listed, 111u);

    // Counters published one by one, because they are not struct fields.
    for (const char* name :
         {"app.sent", "app.delivered", "trace.recorded", "trace.evicted",
          "eav.identity_sightings", "eav.pseudonym_sightings", "eav.mac_pseudonym_links",
          "eav.nodes_ever_localized", "eav.index_linkages", "eav.relationship_pairs_learned",
          "adv.frames_observed"})
        EXPECT_TRUE(names.insert(name).second) << "duplicate counter name " << name;
}

TEST(Metrics, AddAllPublishesEachFieldUnderItsListedName) {
    mac::MacStats stats;
    stats.retries = 7;
    stats.rx_duplicates = 2;
    obs::MetricsRegistry reg;
    reg.add_all(stats);
    reg.add_all(stats);
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.size(), 12u);
    EXPECT_EQ(snap.counter("mac.retries"), 14u);
    EXPECT_EQ(snap.counter("mac.rx_duplicates"), 4u);
    EXPECT_EQ(snap.counter("mac.rts_sent"), 0u);
}

/// `a += b` over two structs whose i-th listed counter holds bit 2i (in a)
/// and bit 2i+1 (in b): every listed name must read 3 << 2i afterwards, so a
/// field summed into another, or left out, shows.
template <typename S>
void expect_sum_by_field(S a, const S& b) {
    S& sum = (a += b);
    EXPECT_EQ(&sum, &a);
    unsigned bit = 0;
    sum.for_each([&](const char* name, std::uint64_t v) {
        EXPECT_EQ(v, std::uint64_t{3} << bit) << name;
        bit += 2;
    });
}

TEST(Metrics, CounterStructsSumFieldByField) {
#define GEOANON_TEST_BITS(field, name)       \
    ASSERT_LT(bit + 1, 64u) << name;         \
    a.field = std::uint64_t{1} << bit;       \
    b.field = std::uint64_t{1} << (bit + 1); \
    bit += 2;
#define GEOANON_TEST_SUM(Type, LIST) \
    {                                \
        Type a;                      \
        Type b;                      \
        unsigned bit = 0;            \
        LIST(GEOANON_TEST_BITS)      \
        expect_sum_by_field(a, b);   \
    }
    GEOANON_TEST_SUM(core::AgfwAgent::Stats, GEOANON_AGFW_COUNTERS)
    GEOANON_TEST_SUM(routing::LocationService::Stats, GEOANON_LS_COUNTERS)
    GEOANON_TEST_SUM(routing::GpsrGreedyAgent::Stats, GEOANON_GPSR_COUNTERS)
    GEOANON_TEST_SUM(mac::MacStats, GEOANON_MAC_COUNTERS)
    GEOANON_TEST_SUM(phy::Radio::Stats, GEOANON_RADIO_COUNTERS)
    GEOANON_TEST_SUM(phy::Channel::Stats, GEOANON_CHANNEL_COUNTERS)
    GEOANON_TEST_SUM(fault::FaultInjector::Stats, GEOANON_FAULT_COUNTERS)
    GEOANON_TEST_SUM(analysis::InvariantChecker::Counters, GEOANON_INV_COUNTERS)
    GEOANON_TEST_SUM(adversary::AttackReport, GEOANON_ADV_COUNTERS)
#undef GEOANON_TEST_SUM
#undef GEOANON_TEST_BITS
}

// ---------------------------------------------------------------- flights

TEST(FlightIndex, DeliveredFlightBuildsHopChain) {
    std::vector<Event> ev;
    auto push = [&](EventType t, net::NodeId node, std::uint64_t uid) {
        Event e{.type = t, .node = node, .uid = uid};
        e.id = ev.size() + 1;
        e.t = SimTime::millis(static_cast<std::int64_t>(ev.size()));
        ev.push_back(e);
    };
    push(EventType::kAppSend, 1, 42);
    push(EventType::kNetForward, 1, 42);  // duplicate custody at origin collapses
    push(EventType::kNetForward, 2, 42);
    push(EventType::kNetDeliver, 3, 42);

    const obs::FlightIndex index(ev);
    const obs::Flight* f = index.find(42);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->status, obs::Flight::Status::kDelivered);
    EXPECT_TRUE(f->is_data);
    EXPECT_EQ(f->origin, 1u);
    EXPECT_EQ(f->end_node, 3u);
    EXPECT_EQ(f->hop_chain, (std::vector<net::NodeId>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(f->latency_ms(), 3.0);
}

TEST(FlightIndex, DerivesCauseForSilentFlights) {
    // Three flights with no terminal event: last custody decides the cause.
    std::vector<Event> ev;
    std::uint64_t id = 0;
    auto push = [&](EventType t, std::uint64_t uid) {
        Event e{.type = t, .node = 1, .uid = uid};
        e.id = ++id;
        ev.push_back(e);
    };
    push(EventType::kAppSend, 1);
    push(EventType::kNetForward, 1);  // committed, nobody took custody
    push(EventType::kAppSend, 2);
    push(EventType::kLastAttempt, 2);  // final broadcast, no trapdoor
    push(EventType::kAppSend, 3);
    push(EventType::kNetStuck, 3);  // relay had no next hop

    const obs::FlightIndex index(ev);
    EXPECT_EQ(index.find(1)->cause, DropCause::kNextHopSilent);
    EXPECT_EQ(index.find(2)->cause, DropCause::kLastAttemptUnanswered);
    EXPECT_EQ(index.find(3)->cause, DropCause::kRelayStuck);
    for (const auto* f : index.undelivered_data())
        EXPECT_EQ(f->status, obs::Flight::Status::kDropped);
    EXPECT_EQ(index.undelivered_data().size(), 3u);
}

TEST(FlightIndex, ExplicitDropBeatsDerivedCause) {
    std::vector<Event> ev;
    Event a{.type = EventType::kAppSend, .node = 1, .uid = 9};
    a.id = 1;
    Event b{.type = EventType::kNetDrop, .cause = DropCause::kNoRoute, .node = 2, .uid = 9};
    b.id = 2;
    ev.push_back(a);
    ev.push_back(b);
    const obs::FlightIndex index(ev);
    EXPECT_EQ(index.find(9)->cause, DropCause::kNoRoute);
    EXPECT_EQ(index.find(9)->status, obs::Flight::Status::kDropped);
}

// ------------------------------------------------------- scenario integration

workload::ScenarioConfig traced_agfw_config() {
    workload::ScenarioConfig cfg;
    cfg.scheme = workload::Scheme::kAgfwAck;
    cfg.num_nodes = 50;
    cfg.sim_seconds = 30.0;
    cfg.traffic_stop_s = 25.0;
    cfg.seed = 7;
    cfg.check_invariants = false;
    cfg.trace.enabled = true;
    cfg.trace.shard_capacity = 1 << 16;  // large enough that nothing evicts
    return cfg;
}

TEST(TraceScenario, EveryUndeliveredPacketHasCauseAndHopChain) {
    workload::ScenarioRunner runner(traced_agfw_config());
    const workload::ScenarioResult r = runner.run();
    ASSERT_NE(runner.trace_recorder(), nullptr);
    ASSERT_EQ(runner.trace_recorder()->evicted(), 0u);

    const obs::FlightIndex index(runner.trace_recorder()->events());
    std::size_t data = 0, delivered = 0;
    for (const obs::Flight& f : index.flights()) {
        if (!f.is_data) continue;
        ++data;
        if (f.status == obs::Flight::Status::kDelivered) ++delivered;
    }
    EXPECT_EQ(data, r.metrics.counter("app.sent"));
    // Delivered flights = unique delivered uids = unique (flow, seq).
    EXPECT_EQ(delivered, r.metrics.counter("app.delivered"));

    const auto lost = index.undelivered_data();
    EXPECT_EQ(lost.size(), data - delivered);
    for (const obs::Flight* f : lost) {
        EXPECT_NE(f->cause, DropCause::kNone) << "uid " << f->uid;
        EXPECT_FALSE(f->hop_chain.empty()) << "uid " << f->uid;
        EXPECT_NE(f->end_node, net::kInvalidNode) << "uid " << f->uid;
    }
}

TEST(TraceScenario, TracingDoesNotPerturbTheRun) {
    workload::ScenarioConfig cfg = traced_agfw_config();
    cfg.check_invariants = true;
    cfg.attach_observer = true;
    workload::ScenarioRunner traced(cfg);
    workload::ScenarioResult a = traced.run();

    cfg.trace.enabled = false;
    workload::ScenarioRunner untraced(cfg);
    const workload::ScenarioResult b = untraced.run();

    // Only the recorder's own trace.* counters may differ. The result JSON
    // carries every other counter, gauge, histogram and series, including
    // the attack's adv.* and the checker's inv.* values.
    EXPECT_GT(a.metrics.counter("trace.recorded"), 0u);
    std::erase_if(a.metrics.counters,
                  [](const auto& kv) { return kv.first.starts_with("trace."); });
    EXPECT_GT(b.metrics.counter("adv.hello_observations"), 0u);
    EXPECT_GT(b.metrics.counter("inv.frames_checked"), 0u);
    EXPECT_EQ(experiment::result_to_json(a), experiment::result_to_json(b));
}

// ---------------------------------------------------------------- export

TEST(TraceExport, ByteIdenticalAcrossRepeatedRuns) {
    workload::ScenarioRunner a(traced_agfw_config());
    a.run();
    workload::ScenarioRunner b(traced_agfw_config());
    b.run();
    const std::string ja = a.chrome_trace_json();
    const std::string jb = b.chrome_trace_json();
    ASSERT_FALSE(ja.empty());
    EXPECT_EQ(ja, jb);
}

TEST(TraceExport, RoundTripsThroughTheReader) {
    workload::ScenarioRunner runner(traced_agfw_config());
    runner.run();
    const std::string json = runner.chrome_trace_json();

    obs::LoadedTrace loaded;
    std::string error;
    ASSERT_TRUE(obs::load_chrome_trace(json, loaded, error)) << error;
    EXPECT_EQ(loaded.meta.scheme, "agfw-ack");
    EXPECT_EQ(loaded.meta.seed, 7u);

    const auto original = runner.trace_recorder()->events();
    ASSERT_EQ(loaded.events.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded.events[i].id, original[i].id);
        EXPECT_EQ(loaded.events[i].type, original[i].type);
        EXPECT_EQ(loaded.events[i].cause, original[i].cause);
        EXPECT_EQ(loaded.events[i].node, original[i].node);
        EXPECT_EQ(loaded.events[i].uid, original[i].uid);
        EXPECT_EQ(loaded.events[i].detail, original[i].detail);
    }
    // Flight reconstruction from the decoded file matches the in-memory one.
    const obs::FlightIndex from_file(loaded.events);
    const obs::FlightIndex from_memory(original);
    EXPECT_EQ(from_file.undelivered_data().size(), from_memory.undelivered_data().size());
}

TEST(TraceExport, EveryEventTypeHasALayerCategory) {
    obs::TraceRecorder rec;
    for (const EventType t : obs::kAllEventTypes)
        rec.record(SimTime::millis(1), Event{.type = t, .node = 0});
    const std::string json = obs::to_chrome_trace_json(rec.events(), obs::TraceMeta{});

    util::JsonValue doc;
    std::string error;
    ASSERT_TRUE(util::parse_json(json, doc, error)) << error;
    const util::JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array.size(), std::size(obs::kAllEventTypes));
    const std::set<std::string> layers = {"phy", "mac", "net", "ant", "agfw", "ls", "fault"};
    for (const util::JsonValue& e : events->array) {
        const util::JsonValue* cat = e.find("cat");
        ASSERT_NE(cat, nullptr);
        EXPECT_TRUE(layers.contains(cat->string))
            << e.find("name")->string << " has category " << cat->string;
    }
}

TEST(TraceRead, RejectsMalformedInput) {
    obs::LoadedTrace out;
    std::string error;
    EXPECT_FALSE(obs::load_chrome_trace("not json at all", out, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(obs::load_chrome_trace("{\"traceEvents\":[]}", out, error));
    // Schema check: a valid JSON document with an unknown event name fails.
    const std::string bad =
        "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"scheme\":\"x\",\"seed\":1,"
        "\"num_nodes\":1,\"sim_seconds\":1,\"recorded\":1,\"evicted\":0},"
        "\"traceEvents\":[{\"name\":\"bogus_event\",\"cat\":\"net\",\"ph\":\"i\","
        "\"ts\":0,\"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{}}]}";
    EXPECT_FALSE(obs::load_chrome_trace(bad, out, error));
    EXPECT_NE(error.find("traceEvents[0]"), std::string::npos);
}

// ---------------------------------------------------------------- sweep

std::string slurp(const std::filesystem::path& p) {
    std::ifstream f(p, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

TEST(TraceSweep, ArtifactsAreByteIdenticalForAnyJobs) {
    experiment::SweepSpec spec;
    spec.base.num_nodes = 20;
    spec.base.sim_seconds = 10.0;
    spec.base.traffic_stop_s = 9.0;
    spec.base.num_flows = 6;
    spec.base.num_senders = 4;
    spec.base.check_invariants = false;
    spec.axes.push_back(experiment::Axis::schemes(
        {workload::Scheme::kGpsrGreedy, workload::Scheme::kAgfwAck}));
    spec.seeds_per_point = 2;

    const auto base = std::filesystem::temp_directory_path() / "geoanon_trace_sweep";
    std::filesystem::remove_all(base);
    experiment::SweepRunner::Options o1;
    o1.jobs = 1;
    o1.trace_dir = (base / "j1").string();
    experiment::SweepRunner::Options o4;
    o4.jobs = 4;
    o4.trace_dir = (base / "j4").string();

    const auto p1 = experiment::SweepRunner(spec, o1).run();
    const auto p4 = experiment::SweepRunner(spec, o4).run();
    // Merged sweep JSON is byte-identical, traces and all.
    EXPECT_EQ(experiment::sweep_to_json("t", spec, p1),
              experiment::sweep_to_json("t", spec, p4));

    std::size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(base / "j1")) {
        ++files;
        const auto other = base / "j4" / entry.path().filename();
        ASSERT_TRUE(std::filesystem::exists(other)) << other;
        EXPECT_EQ(slurp(entry.path()), slurp(other)) << entry.path();
    }
    EXPECT_EQ(files, spec.num_runs());
    std::filesystem::remove_all(base);
}

// ---------------------------------------------------------------- json block

TEST(ResultJson, IncludesMetricsBlock) {
    workload::ScenarioConfig cfg = traced_agfw_config();
    cfg.num_nodes = 20;
    cfg.sim_seconds = 10.0;
    cfg.traffic_stop_s = 9.0;
    workload::ScenarioRunner runner(cfg);
    const std::string json = experiment::result_to_json(runner.run());
    EXPECT_NE(json.find("\"metrics\":{\"counters\":{"), std::string::npos);
    EXPECT_NE(json.find("\"app.latency_ms\":{\"count\":"), std::string::npos);
    EXPECT_NE(json.find("\"agfw.forwarded\":"), std::string::npos);
}

}  // namespace
