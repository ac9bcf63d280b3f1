#include "sim/simulator.hpp"

#include <cstdint>
#include <utility>

namespace geoanon::sim {

void PeriodicTimer::start(Simulator& sim, SimTime period, SimTime first_delay,
                          std::function<void()> tick) {
    stop();
    sim_ = &sim;
    period_ = period;
    jitter_ = SimTime::zero();
    jitter_rng_ = nullptr;
    tick_ = std::move(tick);
    arm(first_delay);
}

void PeriodicTimer::start(Simulator& sim, SimTime period, SimTime first_delay,
                          SimTime jitter, util::Rng& rng, std::function<void()> tick) {
    stop();
    sim_ = &sim;
    period_ = period;
    jitter_ = jitter;
    jitter_rng_ = &rng;
    tick_ = std::move(tick);
    arm(first_delay);
}

void PeriodicTimer::arm(SimTime delay) {
    if (jitter_rng_ != nullptr && jitter_ > SimTime::zero()) {
        delay += SimTime::nanos(
            jitter_rng_->uniform_int(std::int64_t{0}, jitter_.ns()));
    }
    pending_ = sim_->after(delay, [this] {
        pending_ = kInvalidEvent;
        // Re-arm before ticking so the callback may stop() the timer.
        arm(period_);
        tick_();
    });
}

void PeriodicTimer::stop() {
    if (sim_ != nullptr && pending_ != kInvalidEvent) sim_->cancel(pending_);
    pending_ = kInvalidEvent;
    sim_ = nullptr;
}

}  // namespace geoanon::sim
