#pragma once

#include <cstdint>
#include <vector>

#include "adversary/linker.hpp"
#include "adversary/observation.hpp"

namespace geoanon::obs {
class MetricsRegistry;
}

namespace geoanon::adversary {

/// Offline attack configuration: the linker's strength.
struct AttackParams {
    LinkerParams linker{};
};

/// The offline attack's output, scored against ground truth. Every field is
/// a pure function of the observation log, so identical runs produce
/// byte-identical reports (and JSON) regardless of --jobs or host.
struct AttackReport {
    std::uint64_t hello_observations{0};
    std::uint64_t tracklets{0};
    std::uint64_t chains{0};
    std::uint64_t candidate_pairs{0};
    std::uint64_t links_made{0};
    std::uint64_t links_correct{0};

    /// Fraction of committed links that join two tracklets of one node.
    double link_precision{0.0};
    /// Fraction of ground-truth adjacent same-node tracklet pairs that ended
    /// up in the same chain. Silence gaps the linker refuses to bridge land
    /// in the denominator — that loss IS the countermeasure working.
    double link_recall{0.0};
    /// Mean over nodes of the best single chain's coverage: the time span of
    /// the node's own sightings inside one chain whose majority owner is the
    /// node, divided by the run length. "How continuously can the attacker
    /// follow someone under one reconstructed identity."
    double tracking_success_rate{0.0};
    /// Anonymity set of a pseudonym change: gate-passing predecessor count
    /// at each committed link (1 = the change was unambiguous).
    double mean_anonymity_set{0.0};
    double max_anonymity_set{0.0};
    /// Mean distance from a reconstructed chain's sightings to the majority
    /// owner's true (interpolated) track — contamination from wrong links.
    double mean_path_error_m{0.0};
    /// Per-window mean anonymity set (30 s buckets over the run; 0 = no
    /// pseudonym change was linked in that window).
    std::vector<double> anonymity_over_time;

    /// Publish the report as adv.* counters, gauges and the
    /// adv.anonymity_over_time series.
    void publish_metrics(obs::MetricsRegistry& reg) const;
};

/// Run pseudonym linking + trajectory reconstruction over a recorded
/// observation log and score the result. Ground truth (Observation::
/// true_sender) is consumed here and only here — strictly for scoring; the
/// linker input type cannot carry it.
AttackReport run_attack(const std::vector<Observation>& observations,
                        const AttackParams& params, double total_seconds);
AttackReport run_attack(const ObservationFeed& feed, const AttackParams& params,
                        double total_seconds);

}  // namespace geoanon::adversary
