// SweepSpec expansion, SweepRunner parallel determinism, and the ordered
// JSON emitter that backs the byte-identity contract.

#include <gtest/gtest.h>

#include "experiment/json.hpp"
#include "experiment/sweep.hpp"

namespace {

using namespace geoanon;
using experiment::Axis;
using experiment::JsonWriter;
using experiment::PointRecord;
using experiment::SweepRunner;
using experiment::SweepSpec;
using workload::ScenarioConfig;
using workload::ScenarioResult;
using workload::Scheme;

SweepSpec small_spec() {
    SweepSpec spec;
    spec.base.scheme = Scheme::kAgfwAck;
    spec.base.num_nodes = 20;
    spec.base.sim_seconds = 20.0;
    spec.base.traffic_stop_s = 18.0;
    spec.axes = {Axis::nodes({20, 30}),
                 Axis::schemes({Scheme::kGpsrGreedy, Scheme::kAgfwAck})};
    spec.seeds_per_point = 2;
    spec.seed_base = 100;
    return spec;
}

TEST(SweepSpec, ExpansionOrderRowMajorFirstAxisSlowest) {
    const SweepSpec spec = small_spec();
    EXPECT_EQ(spec.num_points(), 4u);
    EXPECT_EQ(spec.num_runs(), 8u);
    // Points: (20,gpsr), (20,agfw), (30,gpsr), (30,agfw).
    EXPECT_EQ(spec.point_coords(0), (std::vector<std::size_t>{0, 0}));
    EXPECT_EQ(spec.point_coords(1), (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(spec.point_coords(2), (std::vector<std::size_t>{1, 0}));
    EXPECT_EQ(spec.point_coords(3), (std::vector<std::size_t>{1, 1}));
}

TEST(SweepSpec, ConfigForAppliesAxesAndSeeds) {
    const SweepSpec spec = small_spec();
    const ScenarioConfig c = spec.config_for(2, 1);
    EXPECT_EQ(c.num_nodes, 30u);
    EXPECT_EQ(c.scheme, Scheme::kGpsrGreedy);
    EXPECT_EQ(c.seed, 101u);
    const ScenarioConfig c0 = spec.config_for(1, 0);
    EXPECT_EQ(c0.num_nodes, 20u);
    EXPECT_EQ(c0.scheme, Scheme::kAgfwAck);
    EXPECT_EQ(c0.seed, 100u);
}

TEST(SweepSpec, AxisLabels) {
    const Axis schemes = Axis::schemes({Scheme::kGpsrGreedy, Scheme::kAgfwNoAck});
    EXPECT_EQ(schemes.label(0), "gpsr-greedy");
    EXPECT_EQ(schemes.label(1), "agfw-noack");
    const Axis nodes = Axis::nodes({50, 150});
    EXPECT_EQ(nodes.label(1), "150");
    int applied = 0;
    const Axis var = Axis::variants("case", {"a", "b"},
                                    [&](ScenarioConfig&, double) { ++applied; });
    EXPECT_EQ(var.values, (std::vector<double>{0.0, 1.0}));
    EXPECT_EQ(var.label(1), "b");
}

TEST(SweepRunner, ParallelOutputByteIdenticalToSerial) {
    // The headline determinism contract: merged results are in spec order
    // and every run is self-contained, so the serialized sweep is identical
    // for any worker count.
    SweepSpec spec = small_spec();
    SweepRunner::Options four_jobs;
    four_jobs.jobs = 4;
    const auto serial = SweepRunner(spec).run();
    const auto parallel = SweepRunner(spec, four_jobs).run();
    ASSERT_EQ(serial.size(), parallel.size());
    const std::string a = experiment::sweep_to_json("t", spec, serial);
    const std::string b = experiment::sweep_to_json("t", spec, parallel);
    EXPECT_EQ(a, b);
}

TEST(SweepRunner, PointRecordsCarryCoordsLabelsAndSeeds) {
    SweepSpec spec = small_spec();
    const auto points = SweepRunner(spec).run();
    ASSERT_EQ(points.size(), 4u);
    const PointRecord& p2 = points[2];
    EXPECT_EQ(p2.index, 2u);
    EXPECT_EQ(p2.values, (std::vector<double>{30.0, 0.0}));
    EXPECT_EQ(p2.labels, (std::vector<std::string>{"30", "gpsr-greedy"}));
    ASSERT_EQ(p2.runs.size(), 2u);
    EXPECT_EQ(p2.runs[0].seed, 100u);
    EXPECT_EQ(p2.runs[1].seed, 101u);
    EXPECT_GT(p2.mean([](const ScenarioResult& r) { return r.delivery_fraction(); }),
              0.0);
}

TEST(SweepRunner, PerfBlockPopulated) {
    SweepSpec spec = small_spec();
    spec.axes = {};
    spec.seeds_per_point = 1;
    const auto points = SweepRunner(spec).run();
    ASSERT_EQ(points.size(), 1u);
    const ScenarioResult& r = points[0].runs[0].result;
    EXPECT_GT(r.perf.wall_seconds, 0.0);
    EXPECT_GT(r.perf.events_per_sec, 0.0);
    EXPECT_GT(r.perf.peak_queue_depth, 0u);
}

TEST(SweepRunner, ProgressCallbackCoversEveryRun) {
    SweepSpec spec = small_spec();
    std::size_t calls = 0, last_done = 0;
    SweepRunner::Options opt;
    opt.jobs = 2;
    opt.on_progress = [&](std::size_t done, std::size_t total) {
        ++calls;
        last_done = done;
        EXPECT_EQ(total, 8u);
    };
    SweepRunner(spec, opt).run();
    EXPECT_EQ(calls, 8u);
    EXPECT_EQ(last_done, 8u);
}

TEST(Json, WriterShapesAndEscaping) {
    JsonWriter w;
    w.begin_object();
    w.key("s").value("a\"b\\c\n");
    w.key("i").value(std::uint64_t{42});
    w.key("d").value(0.5);
    w.key("b").value(true);
    w.key("arr").begin_array().value(std::int64_t{-1}).value("x").end_array();
    w.key("o").begin_object().key("k").value("v").end_object();
    w.end_object();
    EXPECT_EQ(w.str(),
              "{\"s\":\"a\\\"b\\\\c\\n\",\"i\":42,\"d\":0.5,\"b\":true,"
              "\"arr\":[-1,\"x\"],\"o\":{\"k\":\"v\"}}");
}

TEST(Json, ResultSerializationIsDeterministic) {
    ScenarioResult r;
    r.metrics.counters = {{"app.delivered", 1}, {"app.sent", 10}};
    r.perf.wall_seconds = 1.25;  // non-deterministic field
    ScenarioResult same = r;
    same.perf.wall_seconds = 9.75;  // must not affect the default view
    EXPECT_EQ(experiment::result_to_json(r), experiment::result_to_json(same));
    EXPECT_NE(experiment::result_to_json(r, /*include_perf=*/true),
              experiment::result_to_json(same, /*include_perf=*/true));
}

}  // namespace
