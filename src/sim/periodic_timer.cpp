#include "sim/simulator.hpp"

#include <utility>

namespace geoanon::sim {

void PeriodicTimer::start(Simulator& sim, SimTime period, SimTime first_delay,
                          std::function<void()> tick) {
    stop();
    sim_ = &sim;
    period_ = period;
    tick_ = std::move(tick);
    arm(first_delay);
}

void PeriodicTimer::arm(SimTime delay) {
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
