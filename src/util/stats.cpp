#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace geoanon::util {

void RunningStat::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::merge(const RunningStat& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
        *this = o;
        return;
    }
    const double delta = o.mean_ - mean_;
    const auto n = static_cast<double>(n_ + o.n_);
    m2_ += o.m2_ + delta * delta * static_cast<double>(n_) * static_cast<double>(o.n_) / n;
    mean_ = (mean_ * static_cast<double>(n_) + o.mean_ * static_cast<double>(o.n_)) / n;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    sum_ += o.sum_;
    n_ += o.n_;
}

void Sampler::add(double x) {
    samples_.push_back(x);
    dirty_ = true;
}

double Sampler::mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0.0;
    for (double x : samples_) s += x;
    return s / static_cast<double>(samples_.size());
}

double Sampler::min() const {
    if (samples_.empty()) return 0.0;
    return *std::min_element(samples_.begin(), samples_.end());
}

double Sampler::max() const {
    if (samples_.empty()) return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

void Sampler::ensure_sorted() const {
    if (dirty_ || sorted_.size() != samples_.size()) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        dirty_ = false;
    }
}

double Sampler::percentile(double p) const {
    if (samples_.empty()) return 0.0;
    ensure_sorted();
    const double clamped = std::clamp(p, 0.0, 100.0);
    const auto rank = static_cast<std::size_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(sorted_.size())));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    return sorted_[std::min(idx, sorted_.size() - 1)];
}

}  // namespace geoanon::util
