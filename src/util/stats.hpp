#pragma once

#include <cstddef>
#include <vector>

namespace geoanon::util {

/// Streaming mean/variance/min/max via Welford's algorithm.
/// O(1) memory; use Sampler when percentiles are needed.
class RunningStat {
  public:
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /// Sample variance (n-1 denominator); 0 when fewer than two samples.
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

    /// Merge another accumulator into this one (parallel Welford).
    void merge(const RunningStat& o);

  private:
    std::size_t n_{0};
    double mean_{0.0};
    double m2_{0.0};
    double min_{0.0};
    double max_{0.0};
    double sum_{0.0};
};

/// Stores all samples for exact percentiles; use for latency distributions.
class Sampler {
  public:
    void add(double x);
    std::size_t count() const { return samples_.size(); }
    double mean() const;
    double min() const;
    double max() const;
    /// Exact percentile by nearest-rank on the sorted samples, p in [0,100].
    /// Returns 0 for an empty sampler.
    double percentile(double p) const;
    const std::vector<double>& samples() const { return samples_; }

  private:
    void ensure_sorted() const;
    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool dirty_{false};
};

}  // namespace geoanon::util
