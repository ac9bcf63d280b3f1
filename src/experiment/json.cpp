#include "experiment/json.hpp"

namespace geoanon::experiment {

void result_to_json(JsonWriter& w, const workload::ScenarioResult& r, bool include_perf) {
    // The registry snapshot is name-sorted, so the output is byte-stable for
    // identical runs.
    const obs::MetricsSnapshot& m = r.metrics;
    w.begin_object();
    w.key("metrics").begin_object();
    w.key("counters").begin_object();
    for (const auto& [name, v] : m.counters) w.key(name).value(v);
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& [name, v] : m.gauges) w.key(name).value(v);
    w.end_object();
    w.key("histograms").begin_object();
    for (const auto& h : m.histograms) {
        w.key(h.name).begin_object();
        w.key("count").value(h.count);
        w.key("mean").value(h.mean);
        w.key("min").value(h.min);
        w.key("max").value(h.max);
        w.key("p50").value(h.p50);
        w.key("p95").value(h.p95);
        w.key("p99").value(h.p99);
        w.end_object();
    }
    w.end_object();
    w.end_object();

    w.key("series").begin_object();
    for (const auto& [name, values] : m.series) {
        w.key(name).begin_array();
        for (const double v : values) w.value(v);
        w.end_array();
    }
    w.end_object();

    w.key("events_processed").value(r.events_processed);
    w.key("peak_queue_depth").value(static_cast<std::uint64_t>(r.perf.peak_queue_depth));

    if (include_perf) {
        w.key("perf").begin_object();
        w.key("wall_seconds").value(r.perf.wall_seconds);
        w.key("events_per_sec").value(r.perf.events_per_sec);
        w.end_object();
    }
    w.end_object();
}

std::string result_to_json(const workload::ScenarioResult& r, bool include_perf) {
    JsonWriter w;
    result_to_json(w, r, include_perf);
    return w.str();
}

std::string sweep_to_json(const std::string& bench_name, const SweepSpec& spec,
                          const std::vector<PointRecord>& points, bool include_perf) {
    JsonWriter w;
    w.begin_object();
    w.key("bench").value(bench_name);
    w.key("axes").begin_array();
    for (const Axis& a : spec.axes) {
        w.begin_object();
        w.key("name").value(a.name);
        w.key("values").begin_array();
        for (const double v : a.values) w.value(v);
        w.end_array();
        if (!a.labels.empty()) {
            w.key("labels").begin_array();
            for (const std::string& l : a.labels) w.value(l);
            w.end_array();
        }
        w.end_object();
    }
    w.end_array();
    w.key("seeds_per_point").value(static_cast<std::uint64_t>(spec.seeds_per_point));
    w.key("seed_base").value(spec.seed_base);
    w.key("points").begin_array();
    for (const PointRecord& pt : points) {
        w.begin_object();
        w.key("point").value(static_cast<std::uint64_t>(pt.index));
        w.key("coords").begin_object();
        for (std::size_t i = 0; i < spec.axes.size(); ++i)
            w.key(spec.axes[i].name).value(pt.values[i]);
        w.end_object();
        w.key("labels").begin_object();
        for (std::size_t i = 0; i < spec.axes.size(); ++i)
            w.key(spec.axes[i].name).value(pt.labels[i]);
        w.end_object();
        w.key("runs").begin_array();
        for (const RunRecord& run : pt.runs) {
            w.begin_object();
            w.key("seed").value(run.seed);
            w.key("result");
            result_to_json(w, run.result, include_perf);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

}  // namespace geoanon::experiment
