#include "workload/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "obs/export.hpp"

namespace geoanon::workload {

using util::SimTime;

std::string scheme_name(Scheme s) {
    switch (s) {
        case Scheme::kGpsrGreedy: return "gpsr-greedy";
        case Scheme::kAgfwAck: return "agfw-ack";
        case Scheme::kAgfwNoAck: return "agfw-noack";
    }
    return "?";
}

ScenarioRunner::ScenarioRunner(ScenarioConfig config) : config_(std::move(config)) {}
ScenarioRunner::~ScenarioRunner() = default;

core::AgfwAgent* ScenarioRunner::agfw_agent(net::NodeId id) {
    // Agents are created in node-id order, one per node.
    return id < agfw_agents_.size() ? agfw_agents_[id] : nullptr;
}

routing::GpsrGreedyAgent* ScenarioRunner::gpsr_agent(net::NodeId id) {
    return id < gpsr_agents_.size() ? gpsr_agents_[id] : nullptr;
}

void ScenarioRunner::setup() {
    if (built_) return;
    built_ = true;

    if (config_.use_real_crypto) {
        engine_ = std::make_unique<crypto::RealCryptoEngine>(config_.seed * 7919 + 17,
                                                             config_.modulus_bits);
    } else {
        engine_ = std::make_unique<crypto::ModeledCryptoEngine>(config_.seed * 7919 + 17,
                                                                config_.modulus_bits);
    }
    network_ = std::make_unique<net::Network>(config_.phy, config_.seed);
    if (config_.trace.enabled) {
        recorder_ = std::make_unique<obs::TraceRecorder>(config_.trace);
        network_->set_trace(recorder_.get());
    }

    build_nodes();
    build_traffic();

    if (!config_.faults.empty()) {
        injector_ = std::make_unique<fault::FaultInjector>(*network_, config_.faults);
        // Recovery probe: the node's neighbor state has re-warmed (it can
        // route again). Agent-specific because the tables differ.
        injector_->set_recovered_probe([this](net::NodeId id) {
            if (auto* a = agfw_agent(id)) return a->ant().size() > 0;
            if (auto* g = gpsr_agent(id)) return g->neighbor_count() > 0;
            return false;
        });
        const routing::GridMap grid(config_.area, config_.ls_cell_m);
        injector_->set_home_center([grid](net::NodeId id) {
            return grid.center_of(grid.home_grid(id));
        });
        injector_->arm();
    }

    if (config_.check_invariants) {
        analysis::InvariantChecker::Params ip;
        ip.expect_anonymous = config_.scheme != Scheme::kGpsrGreedy;
        ip.expect_anonymous_mac = config_.anonymous_mac;
        ip.expect_anonymous_ls =
            !config_.location_service ||
            *config_.location_service != routing::LocationService::Mode::kPlain;
        ip.ant_ttl = config_.agfw.ant.ttl;
        ip.hello_interval = config_.agfw.hello_interval;
        checker_ = std::make_unique<analysis::InvariantChecker>(*network_, ip);
        checker_->attach();
    }

    if (config_.attach_eavesdropper || config_.attach_observer) {
        // One audit tap feeds every adversary component. MAC address =
        // id + 1 (see net/node.cpp) — scoring-only knowledge.
        adversary::ObservationFeed::Params fp;
        fp.record = config_.attach_observer;
        feed_ = std::make_unique<adversary::ObservationFeed>(
            network_->channel(),
            [](net::MacAddr mac) { return static_cast<net::NodeId>(mac - 1); }, fp);
    }
    if (config_.attach_eavesdropper) {
        eavesdropper_ =
            std::make_unique<adversary::Eavesdropper>(*feed_, network_->size());
        // §3.3: an attacker holding everyone's certificates can precompute
        // every E_{K_B}(A,B) index and match observed ALS queries.
        if (config_.location_service &&
            *config_.location_service != routing::LocationService::Mode::kPlain) {
            std::unordered_map<std::string, std::pair<net::NodeId, net::NodeId>> dict;
            for (std::size_t a = 0; a < config_.num_nodes; ++a) {
                for (std::size_t b = 0; b < config_.num_nodes; ++b) {
                    if (a == b) continue;
                    dict.emplace(util::to_hex(engine_->als_index(a, b)),
                                 std::make_pair(static_cast<net::NodeId>(a),
                                                static_cast<net::NodeId>(b)));
                }
            }
            eavesdropper_->set_index_dictionary(std::move(dict));
        }
    }
}

void ScenarioRunner::build_nodes() {
    const bool agfw = config_.scheme != Scheme::kGpsrGreedy;

    mac::MacParams mac_params;
    mac_params.use_rtscts = !agfw;  // AGFW never unicasts; GPSR uses RTS/CTS
    mac_params.anonymous_source = agfw && config_.anonymous_mac;

    // Everyone is a valid certified user; rings draw from the whole network.
    for (std::size_t i = 0; i < config_.num_nodes; ++i)
        engine_->register_node(static_cast<crypto::NodeIdNum>(i));

    mobility::RandomWaypoint::Params rwp;
    rwp.min_speed_mps = config_.min_speed_mps;
    rwp.max_speed_mps = config_.max_speed_mps;
    rwp.pause = SimTime::seconds(config_.pause_s);

    auto locate = [this](net::NodeId id) -> std::optional<util::Vec2> {
        return network_->true_position(id);
    };
    auto deliver = [this](net::NodeId at, const net::Packet& pkt) {
        on_delivery(at, pkt);
    };

    for (std::size_t i = 0; i < config_.num_nodes; ++i) {
        const util::Vec2 start = config_.area.random_point(network_->rng());
        auto mob = std::make_unique<mobility::RandomWaypoint>(config_.area, start, rwp,
                                                              network_->rng().fork());
        net::Node& node = network_->add_node(std::move(mob), mac_params);

        if (agfw) {
            core::AgfwAgent::Params ap = config_.agfw;
            ap.use_net_ack = config_.scheme == Scheme::kAgfwAck;
            ap.authenticated_hello = config_.authenticated_hello;
            ap.ring_k = config_.ring_k;
            ap.charge_crypto_costs = config_.charge_crypto_costs;
            auto agent =
                std::make_unique<core::AgfwAgent>(node, ap, *engine_, locate, deliver);
            agfw_agents_.push_back(agent.get());
            node.set_agent(std::move(agent));
        } else {
            auto agent = std::make_unique<routing::GpsrGreedyAgent>(node, config_.gpsr,
                                                                    locate, deliver);
            gpsr_agents_.push_back(agent.get());
            node.set_agent(std::move(agent));
        }
    }
}

void ScenarioRunner::build_traffic() {
    util::Rng traffic_rng(config_.seed ^ 0xC0FFEE123456789AULL);

    // Pick the sending nodes, then assign flows round-robin over them with
    // uniformly random distinct destinations (the paper: 30 CBR flows from
    // 20 sending nodes).
    std::vector<net::NodeId> senders;
    {
        std::vector<net::NodeId> all(config_.num_nodes);
        for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<net::NodeId>(i);
        for (std::size_t i = 0; i < std::min(config_.num_senders, all.size()); ++i) {
            const auto j = static_cast<std::size_t>(
                traffic_rng.uniform_int(static_cast<std::int64_t>(i),
                                        static_cast<std::int64_t>(all.size()) - 1));
            std::swap(all[i], all[j]);
            senders.push_back(all[i]);
        }
    }

    flows_.clear();
    for (std::size_t f = 0; f < config_.num_flows; ++f) {
        Flow flow;
        flow.id = static_cast<net::FlowId>(f);
        flow.src = senders[f % senders.size()];
        do {
            flow.dst = static_cast<net::NodeId>(
                traffic_rng.uniform_int(0, static_cast<std::int64_t>(config_.num_nodes) - 1));
        } while (flow.dst == flow.src);
        flow.start_s = config_.traffic_start_s + traffic_rng.uniform(0.0, 10.0);
        flows_.push_back(flow);
    }

    delivered_.assign(flows_.size(), {});
    sent_per_flow_.assign(flows_.size(), 0);

    // ALS contacts: a node's anticipated requesters are the flow sources
    // that will query it (§3.3: the updater must anticipate its senders).
    if (config_.location_service) {
        std::vector<std::vector<net::NodeId>> contacts(config_.num_nodes);
        for (const Flow& f : flows_) contacts[f.dst].push_back(f.src);

        const routing::GridMap grid(config_.area, config_.ls_cell_m);
        for (std::size_t i = 0; i < config_.num_nodes; ++i) {
            const auto id = static_cast<net::NodeId>(i);
            if (auto* a = agfw_agent(id)) {
                a->enable_location_service(*config_.location_service, grid,
                                           config_.ls_params, contacts[i]);
            } else if (auto* g = gpsr_agent(id)) {
                g->enable_location_service(grid, config_.ls_params);
            }
        }
    }

    // CBR generators: fixed inter-packet gap, self-rescheduling member
    // ticks. Each scheduled event captures only [this, f] (16 bytes, inline
    // in sim::Callback) — no heap-held closures, no self-ownership cycles.
    auto& sim = network_->sim();
    for (std::size_t f = 0; f < flows_.size(); ++f) {
        sim.at(SimTime::seconds(flows_[f].start_s), [this, f] { cbr_tick(f); });
    }
}

void ScenarioRunner::cbr_tick(std::size_t f) {
    auto& sim = network_->sim();
    Flow& flow = flows_[f];
    if (sim.now().to_seconds() > config_.traffic_stop_s) return;
    const SimTime gap = SimTime::seconds(1.0 / config_.cbr_pps);
    if (!network_->node(flow.src).up()) {
        // A crashed sender skips its slots (app offers no load while down)
        // but the generator keeps ticking for its recovery.
        sim.after(gap, [this, f] { cbr_tick(f); });
        return;
    }
    net::Bytes body(config_.cbr_payload_bytes, 0xAB);
    const std::uint32_t seq = flow.next_seq++;
    ++sent_per_flow_[f];
    network_->node(flow.src).agent().send_data(flow.dst, flow.id, seq, std::move(body));
    sim.after(gap, [this, f] { cbr_tick(f); });
}

void ScenarioRunner::on_delivery(net::NodeId at, const net::Packet& pkt) {
    if (pkt.flow >= flows_.size()) return;
    const Flow& flow = flows_[pkt.flow];
    if (at != flow.dst) return;  // delivered to the wrong node (shouldn't happen)
    auto& seen = delivered_[pkt.flow];
    if (pkt.seq >= seen.size()) seen.resize(pkt.seq + 1, false);
    if (seen[pkt.seq]) return;  // duplicate delivery
    seen[pkt.seq] = true;
    ++app_delivered_;
    latency_ms_.add((network_->sim().now() - pkt.created_at).to_millis());
    hops_.add(static_cast<double>(pkt.hops));
}

ScenarioResult ScenarioRunner::run() {
    setup();
    network_->start_agents();
    // geoanon-lint: allow(wallclock) -- host perf measurement; lands only in ScenarioResult::perf, which deterministic JSON omits (include_perf=false)
    const auto wall_start = std::chrono::steady_clock::now();
    network_->sim().run_until(SimTime::seconds(config_.sim_seconds));
    // geoanon-lint: allow(wallclock) -- host perf measurement; see above
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
    ScenarioResult r = aggregate();
    r.perf.wall_seconds = wall.count();
    r.perf.events_per_sec =
        wall.count() > 0.0 ? static_cast<double>(r.events_processed) / wall.count() : 0.0;
    return r;
}

ScenarioResult ScenarioRunner::aggregate() {
    // Every layer publishes into one registry; the legacy named fields of
    // ScenarioResult are then *derived* from the registry so the two views
    // can never drift apart.
    obs::MetricsRegistry reg;

    std::uint64_t app_sent = 0;
    for (std::uint32_t s : sent_per_flow_) app_sent += s;
    reg.add("app.sent", app_sent);
    reg.add("app.delivered", app_delivered_);
    reg.observe_all("app.latency_ms", latency_ms_);
    reg.observe_all("app.hops", hops_);

    network_->publish_metrics(reg);  // phy.* + mac.* across all nodes
    for (auto* a : agfw_agents_) a->publish_metrics(reg);   // agfw.* + ls.*
    for (auto* g : gpsr_agents_) g->publish_metrics(reg);   // gpsr.* + ls.*
    if (injector_) injector_->publish_metrics(reg);         // fault.*
    if (recorder_) {
        reg.add("trace.recorded", recorder_->recorded());
        reg.add("trace.evicted", recorder_->evicted());
    }

    ScenarioResult r;
    r.app_sent = reg.counter("app.sent");
    r.app_delivered = reg.counter("app.delivered");
    r.delivery_fraction =
        r.app_sent > 0 ? static_cast<double>(r.app_delivered) / static_cast<double>(r.app_sent)
                       : 0.0;
    r.avg_latency_ms = latency_ms_.mean();
    r.p50_latency_ms = latency_ms_.percentile(50);
    r.p95_latency_ms = latency_ms_.percentile(95);
    r.avg_hops = hops_.mean();

    r.mac_collisions = reg.counter("phy.frames_corrupted");
    r.mac_retries = reg.counter("mac.retries");
    r.mac_drop_retry = reg.counter("mac.unicast_drop_retry");
    r.rts_sent = reg.counter("mac.rts_sent");
    r.data_frames = reg.counter("mac.data_sent");
    r.transmissions = reg.counter("phy.transmissions");

    r.drop_no_route = reg.counter("agfw.drop_no_route") + reg.counter("gpsr.drop_no_route");
    r.drop_unreachable =
        reg.counter("agfw.drop_unreachable") + reg.counter("gpsr.drop_mac");
    r.drop_no_location =
        reg.counter("agfw.drop_no_location") + reg.counter("gpsr.drop_no_location");
    r.nl_retransmissions = reg.counter("agfw.retransmissions");
    r.last_attempts = reg.counter("agfw.last_attempts");
    r.trapdoor_attempts = reg.counter("agfw.trapdoor_attempts");
    r.trapdoor_opens = reg.counter("agfw.trapdoor_opens");
    r.acks_sent = reg.counter("agfw.acks_sent");
    r.implicit_acks = reg.counter("agfw.implicit_acks");
    r.hello_sent = reg.counter("agfw.hello_sent") + reg.counter("gpsr.hello_sent");
    r.hello_suppressed = reg.counter("agfw.hello_suppressed");
    r.pseudonym_rotations = reg.counter("agfw.pseudonym_rotations");
    r.cert_fetches = reg.counter("agfw.cert_fetches");
    r.control_bytes = reg.counter("agfw.control_bytes") + reg.counter("gpsr.control_bytes");
    r.data_bytes = reg.counter("agfw.data_bytes") + reg.counter("gpsr.data_bytes");
    r.perimeter_entries = reg.counter("agfw.perimeter_entries");
    r.perimeter_recoveries = reg.counter("agfw.perimeter_recoveries");
    r.perimeter_forwards = reg.counter("agfw.perimeter_forwards");

    r.ls.updates_sent = reg.counter("ls.updates_sent");
    r.ls.update_bytes = reg.counter("ls.update_bytes");
    r.ls.queries_sent = reg.counter("ls.queries_sent");
    r.ls.query_bytes = reg.counter("ls.query_bytes");
    r.ls.replies_sent = reg.counter("ls.replies_sent");
    r.ls.reply_bytes = reg.counter("ls.reply_bytes");
    r.ls.replications = reg.counter("ls.replications");
    r.ls.store_hits = reg.counter("ls.store_hits");
    r.ls.store_misses = reg.counter("ls.store_misses");
    r.ls.resolved_ok = reg.counter("ls.resolved_ok");
    r.ls.resolved_fail = reg.counter("ls.resolved_fail");
    r.ls.decrypt_attempts = reg.counter("ls.decrypt_attempts");
    r.ls.query_reissues = reg.counter("ls.query_reissues");
    r.ls.query_fallbacks = reg.counter("ls.query_fallbacks");
    r.ls.late_replies = reg.counter("ls.late_replies");
    r.ls.pending_wiped = reg.counter("ls.pending_wiped");
    r.ls.store_expired = reg.counter("ls.store.expired");
    r.ls.digests_sent = reg.counter("ls.replica.digests_sent");
    r.ls.digest_bytes = reg.counter("ls.replica.digest_bytes");
    r.ls.repairs_sent = reg.counter("ls.replica.repairs_sent");
    r.ls.handoffs = reg.counter("ls.replica.handoffs");
    r.ls.read_repairs = reg.counter("ls.replica.read_repairs");
    r.ls.duplicates_suppressed = reg.counter("ls.replica.duplicates_suppressed");
    r.ls.stale_reads = reg.counter("ls.failover.stale_reads");

    if (injector_) {
        const auto& fs = injector_->stats();
        r.resilience.faults_injected = reg.counter("fault.faults_injected");
        r.resilience.node_crashes = reg.counter("fault.node_crashes");
        r.resilience.node_recoveries = reg.counter("fault.node_recoveries");
        r.resilience.als_outages = reg.counter("fault.als_outages");
        r.resilience.server_flap_cycles = reg.counter("fault.server_flap_cycles");
        r.resilience.frames_lost_loss_burst = reg.counter("fault.frames_lost_loss_burst");
        r.resilience.frames_lost_jam = reg.counter("fault.frames_lost_jam");
        r.resilience.frames_lost_partition = reg.counter("fault.frames_lost_partition");
        r.resilience.frames_lost_node_down = reg.counter("phy.frames_missed_down");
        r.resilience.ls_pending_wiped = r.ls.pending_wiped;
        r.resilience.recoveries_measured = fs.recovery_s.count();
        r.resilience.recovery_latency_p50_s = fs.recovery_s.percentile(50);
        r.resilience.recovery_latency_p95_s = fs.recovery_s.percentile(95);
        r.resilience.recovery_outage_p95_s = fs.recovery_outage_s.percentile(95);
        r.resilience.recovery_flap_p95_s = fs.recovery_flap_s.percentile(95);
    }

    if (eavesdropper_) r.adversary = eavesdropper_->report(config_.sim_seconds);
    if (feed_ && config_.attach_observer) {
        adversary::AttackParams ap = config_.attack;
        // The attacker knows the mobility envelope unless pinned explicitly.
        if (ap.linker.max_speed_mps <= 0.0) ap.linker.max_speed_mps = config_.max_speed_mps;
        r.attack = adversary::run_attack(*feed_, ap, config_.sim_seconds);
        reg.add("adv.frames_observed", feed_->frames_seen());
        reg.add("adv.observations_dropped", feed_->observations_dropped());
        reg.add("adv.hello_observations", r.attack.hello_observations);
        reg.add("adv.tracklets", r.attack.tracklets);
        reg.add("adv.chains", r.attack.chains);
        reg.add("adv.links_made", r.attack.links_made);
        reg.add("adv.links_correct", r.attack.links_correct);
        reg.set_gauge("adv.link_precision", r.attack.link_precision);
        reg.set_gauge("adv.link_recall", r.attack.link_recall);
        reg.set_gauge("adv.tracking_success_rate", r.attack.tracking_success_rate);
        reg.set_gauge("adv.mean_anonymity_set", r.attack.mean_anonymity_set);
        reg.set_gauge("adv.mean_path_error_m", r.attack.mean_path_error_m);
    }
    if (checker_) r.invariants = checker_->counters();
    r.events_processed = network_->sim().events_processed();
    r.perf.peak_queue_depth = network_->sim().peak_pending();
    r.metrics = reg.snapshot();
    return r;
}

std::string ScenarioRunner::chrome_trace_json() const {
    if (!recorder_) return {};
    obs::TraceMeta meta;
    meta.scheme = scheme_name(config_.scheme);
    meta.seed = config_.seed;
    meta.num_nodes = config_.num_nodes;
    meta.sim_seconds = config_.sim_seconds;
    meta.evicted = recorder_->evicted();
    return obs::to_chrome_trace_json(recorder_->events(), meta);
}

}  // namespace geoanon::workload
