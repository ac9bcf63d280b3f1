#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace geoanon::obs {

/// Point-in-time copy of a registry, sorted by name — the deterministic
/// form stored in ScenarioResult and serialized to JSON.
struct MetricsSnapshot {
    struct Hist {
        std::string name;
        std::uint64_t count{0};
        double mean{0.0};
        double min{0.0};
        double max{0.0};
        double p50{0.0};
        double p95{0.0};
        double p99{0.0};
        /// The samples summed in insertion order; never serialized. sum/count
        /// is the arithmetic mean the result's derived values print, which
        /// can differ from the Welford `mean` in the last bits.
        double sum{0.0};

        /// sum / count; 0 when there are no samples.
        double average() const { return count ? sum / static_cast<double>(count) : 0.0; }
    };

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<Hist> histograms;
    /// Named value sequences, e.g. one value per time window.
    std::vector<std::pair<std::string, std::vector<double>>> series;

    /// Counter and gauge lookup; 0 when the name was never published. A
    /// published value may still be 0, so 0 does not mean "absent".
    std::uint64_t counter(std::string_view name) const;
    double gauge(std::string_view name) const;
    /// Histogram lookup; an all-zero Hist with an empty name when the name
    /// was never published.
    const Hist& histogram(std::string_view name) const;
};

/// Name-keyed counters/gauges/histograms every layer publishes into at the
/// end of a run. Names are dotted layer-prefixed strings ("mac.retries",
/// "agfw.drop_unreachable"); the std::map keeps snapshots sorted and
/// therefore byte-stable in JSON. A struct of counters declared with
/// GEOANON_COUNTERS (obs/counters.hpp) publishes through add_all(); add() is
/// for values that are not struct fields (app.*, trace.*, eav.*,
/// adv.frames_observed). ScenarioRunner::aggregate() builds one registry per
/// scenario and publishes every layer into it on one thread.
///
/// The maps still sit behind mu_ (clang -Wthread-safety checked), so
/// publishing from several threads would stay safe. Determinism would be
/// unaffected: counters commute, and snapshots are name-sorted regardless of
/// publish order.
class MetricsRegistry {
  public:
    void add(const std::string& name, std::uint64_t delta);
    /// add() each counter of a GEOANON_COUNTERS struct under its listed name,
    /// in list order.
    template <typename S>
    void add_all(const S& counters) {
        counters.for_each([this](const char* name, std::uint64_t v) { add(name, v); });
    }
    void set_gauge(const std::string& name, double v);
    /// Append a layer-owned sampler's samples to the named histogram.
    void observe_all(const std::string& name, const util::Sampler& s);
    void set_series(const std::string& name, std::vector<double> values);

    MetricsSnapshot snapshot() const;

  private:
    mutable util::Mutex mu_;
    std::map<std::string, std::uint64_t> counters_ GEOANON_GUARDED_BY(mu_);
    std::map<std::string, double> gauges_ GEOANON_GUARDED_BY(mu_);
    /// One sample store per histogram; the snapshot derives the moments.
    std::map<std::string, util::Sampler> hists_ GEOANON_GUARDED_BY(mu_);
    std::map<std::string, std::vector<double>> series_ GEOANON_GUARDED_BY(mu_);
};

}  // namespace geoanon::obs
