#include "experiment/json.hpp"

#include <string_view>

namespace geoanon::experiment {

namespace {

using Read = ResultKey::Read;

// Sums such as drop_no_route read the AGFW and the GPSR counter; only one
// scheme runs per scenario, so one of the two is always absent (0).
constexpr ResultKey kResultKeys[] = {
    {"", "app_sent", Read::kCounter, "app.sent"},
    {"", "app_delivered", Read::kCounter, "app.delivered"},
    {"", "delivery_fraction", Read::kRatio, "app.delivered", "app.sent"},
    {"", "avg_latency_ms", Read::kAverage, "app.latency_ms"},
    {"", "p50_latency_ms", Read::kP50, "app.latency_ms"},
    {"", "p95_latency_ms", Read::kP95, "app.latency_ms"},
    {"", "avg_hops", Read::kAverage, "app.hops"},

    {"", "mac_collisions", Read::kCounter, "phy.frames_corrupted"},
    {"", "mac_retries", Read::kCounter, "mac.retries"},
    {"", "mac_drop_retry", Read::kCounter, "mac.unicast_drop_retry"},
    {"", "rts_sent", Read::kCounter, "mac.rts_sent"},
    {"", "data_frames", Read::kCounter, "mac.data_sent"},
    {"", "transmissions", Read::kCounter, "phy.transmissions"},

    {"", "drop_no_route", Read::kCounter, "agfw.drop_no_route", "gpsr.drop_no_route"},
    {"", "drop_unreachable", Read::kCounter, "agfw.drop_unreachable", "gpsr.drop_mac"},
    {"", "drop_no_location", Read::kCounter, "agfw.drop_no_location", "gpsr.drop_no_location"},
    {"", "nl_retransmissions", Read::kCounter, "agfw.retransmissions"},
    {"", "last_attempts", Read::kCounter, "agfw.last_attempts"},
    {"", "trapdoor_attempts", Read::kCounter, "agfw.trapdoor_attempts"},
    {"", "trapdoor_opens", Read::kCounter, "agfw.trapdoor_opens"},
    {"", "acks_sent", Read::kCounter, "agfw.acks_sent"},
    {"", "implicit_acks", Read::kCounter, "agfw.implicit_acks"},
    {"", "hello_sent", Read::kCounter, "agfw.hello_sent", "gpsr.hello_sent"},
    {"", "hello_suppressed", Read::kCounter, "agfw.hello_suppressed"},
    {"", "pseudonym_rotations", Read::kCounter, "agfw.pseudonym_rotations"},
    {"", "cert_fetches", Read::kCounter, "agfw.cert_fetches"},
    {"", "control_bytes", Read::kCounter, "agfw.control_bytes", "gpsr.control_bytes"},
    {"", "data_bytes", Read::kCounter, "agfw.data_bytes", "gpsr.data_bytes"},
    {"", "perimeter_entries", Read::kCounter, "agfw.perimeter_entries"},
    {"", "perimeter_recoveries", Read::kCounter, "agfw.perimeter_recoveries"},
    {"", "perimeter_forwards", Read::kCounter, "agfw.perimeter_forwards"},

    {"ls", "updates_sent", Read::kCounter, "ls.updates_sent"},
    {"ls", "update_bytes", Read::kCounter, "ls.update_bytes"},
    {"ls", "queries_sent", Read::kCounter, "ls.queries_sent"},
    {"ls", "query_bytes", Read::kCounter, "ls.query_bytes"},
    {"ls", "replies_sent", Read::kCounter, "ls.replies_sent"},
    {"ls", "reply_bytes", Read::kCounter, "ls.reply_bytes"},
    {"ls", "replications", Read::kCounter, "ls.replications"},
    {"ls", "store_hits", Read::kCounter, "ls.store_hits"},
    {"ls", "store_misses", Read::kCounter, "ls.store_misses"},
    {"ls", "resolved_ok", Read::kCounter, "ls.resolved_ok"},
    {"ls", "resolved_fail", Read::kCounter, "ls.resolved_fail"},
    {"ls", "decrypt_attempts", Read::kCounter, "ls.decrypt_attempts"},
    {"ls", "query_reissues", Read::kCounter, "ls.query_reissues"},
    {"ls", "query_fallbacks", Read::kCounter, "ls.query_fallbacks"},
    {"ls", "late_replies", Read::kCounter, "ls.late_replies"},
    {"ls", "pending_wiped", Read::kCounter, "ls.pending_wiped"},
    {"ls", "store_expired", Read::kCounter, "ls.store.expired"},
    {"ls", "digests_sent", Read::kCounter, "ls.replica.digests_sent"},
    {"ls", "digest_bytes", Read::kCounter, "ls.replica.digest_bytes"},
    {"ls", "repairs_sent", Read::kCounter, "ls.replica.repairs_sent"},
    {"ls", "handoffs", Read::kCounter, "ls.replica.handoffs"},
    {"ls", "read_repairs", Read::kCounter, "ls.replica.read_repairs"},
    {"ls", "duplicates_suppressed", Read::kCounter, "ls.replica.duplicates_suppressed"},
    {"ls", "stale_reads", Read::kCounter, "ls.failover.stale_reads"},

    {"resilience", "faults_injected", Read::kCounter, "fault.faults_injected"},
    {"resilience", "node_crashes", Read::kCounter, "fault.node_crashes"},
    {"resilience", "node_recoveries", Read::kCounter, "fault.node_recoveries"},
    {"resilience", "als_outages", Read::kCounter, "fault.als_outages"},
    // Frames that reached a crashed radio.
    {"resilience", "frames_lost_node_down", Read::kCounter, "phy.frames_missed_down"},
    {"resilience", "frames_lost_loss_burst", Read::kCounter, "fault.frames_lost_loss_burst"},
    {"resilience", "frames_lost_jam", Read::kCounter, "fault.frames_lost_jam"},
    {"resilience", "frames_lost_partition", Read::kCounter, "fault.frames_lost_partition"},
    {"resilience", "server_flap_cycles", Read::kCounter, "fault.server_flap_cycles"},
    {"resilience", "ls_pending_wiped", Read::kCounter, "ls.pending_wiped"},
    {"resilience", "recoveries_measured", Read::kCount, "fault.recovery_s"},
    {"resilience", "recovery_latency_p50_s", Read::kP50, "fault.recovery_s"},
    {"resilience", "recovery_latency_p95_s", Read::kP95, "fault.recovery_s"},
    {"resilience", "recovery_outage_p95_s", Read::kP95, "fault.recovery_outage_s"},
    {"resilience", "recovery_flap_p95_s", Read::kP95, "fault.recovery_flap_s"},
};

/// Writes the table's keys of `section`, inside an object of that name
/// unless it is the top level.
void write_section(JsonWriter& w, const obs::MetricsSnapshot& m, const char* section) {
    if (*section) w.key(section).begin_object();
    for (const ResultKey& k : kResultKeys) {
        if (std::string_view(section) != k.section) continue;
        w.key(k.key);
        switch (k.read) {
            case Read::kCounter:
                w.value(m.counter(k.name) + (k.name2 ? m.counter(k.name2) : 0));
                break;
            case Read::kRatio: {
                const auto den = static_cast<double>(m.counter(k.name2));
                w.value(den > 0.0 ? static_cast<double>(m.counter(k.name)) / den : 0.0);
                break;
            }
            case Read::kAverage: w.value(m.histogram(k.name).average()); break;
            case Read::kCount: w.value(m.histogram(k.name).count); break;
            case Read::kP50: w.value(m.histogram(k.name).p50); break;
            case Read::kP95: w.value(m.histogram(k.name).p95); break;
        }
    }
    if (*section) w.end_object();
}

}  // namespace

std::span<const ResultKey> result_keys() { return kResultKeys; }

void result_to_json(JsonWriter& w, const workload::ScenarioResult& r, bool include_perf) {
    w.begin_object();
    write_section(w, r.metrics, "");
    write_section(w, r.metrics, "ls");

    w.key("adversary").begin_object();
    w.key("frames_observed").value(r.adversary.frames_observed);
    w.key("identity_sightings").value(r.adversary.identity_sightings);
    w.key("pseudonym_sightings").value(r.adversary.pseudonym_sightings);
    w.key("mac_pseudonym_links").value(r.adversary.mac_pseudonym_links);
    w.key("nodes_ever_localized").value(r.adversary.nodes_ever_localized);
    w.key("index_linkages").value(r.adversary.index_linkages);
    w.key("relationship_pairs_learned").value(r.adversary.relationship_pairs_learned);
    w.key("mean_tracking_coverage").value(r.adversary.mean_tracking_coverage);
    w.end_object();

    w.key("attack").begin_object();
    w.key("hello_observations").value(r.attack.hello_observations);
    w.key("tracklets").value(r.attack.tracklets);
    w.key("chains").value(r.attack.chains);
    w.key("candidate_pairs").value(r.attack.candidate_pairs);
    w.key("links_made").value(r.attack.links_made);
    w.key("links_correct").value(r.attack.links_correct);
    w.key("link_precision").value(r.attack.link_precision);
    w.key("link_recall").value(r.attack.link_recall);
    w.key("tracking_success_rate").value(r.attack.tracking_success_rate);
    w.key("mean_anonymity_set").value(r.attack.mean_anonymity_set);
    w.key("max_anonymity_set").value(r.attack.max_anonymity_set);
    w.key("mean_path_error_m").value(r.attack.mean_path_error_m);
    w.key("anonymity_over_time").begin_array();
    for (const double v : r.attack.anonymity_over_time) w.value(v);
    w.end_array();
    w.end_object();

    w.key("invariants").begin_object();
    w.key("frames_checked").value(r.invariants.frames_checked);
    w.key("packets_checked").value(r.invariants.packets_checked);
    w.key("ant_entries_checked").value(r.invariants.ant_entries_checked);
    w.key("sweeps").value(r.invariants.sweeps);
    w.key("cleartext_identity").value(r.invariants.cleartext_identity);
    w.key("mac_address_exposed").value(r.invariants.mac_address_exposed);
    w.key("missing_trapdoor").value(r.invariants.missing_trapdoor);
    w.key("unknown_pseudonym").value(r.invariants.unknown_pseudonym);
    w.key("stale_pseudonym_target").value(r.invariants.stale_pseudonym_target);
    w.key("overlong_ant_ttl").value(r.invariants.overlong_ant_ttl);
    w.key("stale_ant_entry").value(r.invariants.stale_ant_entry);
    w.key("ack_without_delivery").value(r.invariants.ack_without_delivery);
    w.key("codec_reject").value(r.invariants.codec_reject);
    w.key("wire_size_mismatch").value(r.invariants.wire_size_mismatch);
    w.key("rotated_out_targets").value(r.invariants.rotated_out_targets);
    w.key("last_attempt_frames").value(r.invariants.last_attempt_frames);
    w.key("plain_ls_fallbacks").value(r.invariants.plain_ls_fallbacks);
    w.end_object();

    // The fault injector always publishes fault.recovery_s; without one the
    // section reads an empty snapshot and stays all-zero.
    static const obs::MetricsSnapshot kNoFaults;
    const bool faulted = !r.metrics.histogram("fault.recovery_s").name.empty();
    write_section(w, faulted ? r.metrics : kNoFaults, "resilience");

    // Full registry snapshot: already name-sorted (std::map), so the block
    // is byte-stable for identical runs.
    w.key("metrics").begin_object();
    w.key("counters").begin_object();
    for (const auto& [name, v] : r.metrics.counters) w.key(name).value(v);
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& [name, v] : r.metrics.gauges) w.key(name).value(v);
    w.end_object();
    w.key("histograms").begin_object();
    for (const auto& h : r.metrics.histograms) {
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
