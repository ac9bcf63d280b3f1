#include "obs/metrics.hpp"

#include <algorithm>

namespace geoanon::obs {

namespace {

/// Value of `name` in a name-sorted list; V{} when absent.
template <typename V>
V find_value(const std::vector<std::pair<std::string, V>>& sorted, std::string_view name) {
    const auto it =
        std::lower_bound(sorted.begin(), sorted.end(), name,
                         [](const auto& kv, std::string_view n) { return kv.first < n; });
    return it != sorted.end() && it->first == name ? it->second : V{};
}

}  // namespace

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
    return find_value(counters, name);
}

double MetricsSnapshot::gauge(std::string_view name) const { return find_value(gauges, name); }

const MetricsSnapshot::Hist& MetricsSnapshot::histogram(std::string_view name) const {
    static const Hist kAbsent{};
    const auto it = std::lower_bound(histograms.begin(), histograms.end(), name,
                                     [](const Hist& h, std::string_view n) { return h.name < n; });
    return it != histograms.end() && it->name == name ? *it : kAbsent;
}

void MetricsRegistry::add(const std::string& name, std::uint64_t delta) {
    const util::MutexLock lock(mu_);
    counters_[name] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double v) {
    const util::MutexLock lock(mu_);
    gauges_[name] = v;
}

void MetricsRegistry::observe_all(const std::string& name, const util::Sampler& s) {
    const util::MutexLock lock(mu_);
    util::Sampler& h = hists_[name];
    for (const double x : s.samples()) h.add(x);
}

void MetricsRegistry::set_series(const std::string& name, std::vector<double> values) {
    const util::MutexLock lock(mu_);
    series_[name] = std::move(values);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    const util::MutexLock lock(mu_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, v] : counters_) snap.counters.emplace_back(name, v);
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, v] : gauges_) snap.gauges.emplace_back(name, v);
    snap.histograms.reserve(hists_.size());
    for (const auto& [name, samples] : hists_) {
        // Welford's moments over the samples in insertion order.
        util::RunningStat stat;
        for (const double x : samples.samples()) stat.add(x);
        MetricsSnapshot::Hist out;
        out.name = name;
        out.count = stat.count();
        out.mean = stat.mean();
        out.min = stat.min();
        out.max = stat.max();
        out.p50 = samples.percentile(50);
        out.p95 = samples.percentile(95);
        out.p99 = samples.percentile(99);
        out.sum = stat.sum();
        snap.histograms.push_back(std::move(out));
    }
    snap.series.assign(series_.begin(), series_.end());
    return snap;
}

}  // namespace geoanon::obs
