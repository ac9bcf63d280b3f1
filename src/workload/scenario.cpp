#include "workload/scenario.hpp"

#include <algorithm>
#include <chrono>

#include "obs/export.hpp"

namespace geoanon::workload {

using util::SimTime;

namespace {
/// CBR packet body: 64-byte packets at 4/s is the paper's ~2 kb/s CBR load.
constexpr std::size_t kCbrPayloadBytes = 64;
}  // namespace

std::string scheme_name(Scheme s) {
    switch (s) {
        case Scheme::kGpsrGreedy: return "gpsr-greedy";
        case Scheme::kAgfwAck: return "agfw-ack";
        case Scheme::kAgfwNoAck: return "agfw-noack";
    }
    return "?";
}

std::uint64_t ScenarioResult::invariant_violations() const {
    std::uint64_t n = 0;
    for (const char* name :
         {"inv.cleartext_identity", "inv.mac_address_exposed", "inv.missing_trapdoor",
          "inv.unknown_pseudonym", "inv.stale_pseudonym_target", "inv.overlong_ant_ttl",
          "inv.stale_ant_entry", "inv.ack_without_delivery", "inv.codec_reject",
          "inv.wire_size_mismatch"})
        n += metrics.counter(name);
    return n;
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
        engine_ = std::make_unique<crypto::RealCryptoEngine>(config_.seed * 7919 + 17);
    } else {
        engine_ = std::make_unique<crypto::ModeledCryptoEngine>(config_.seed * 7919 + 17);
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
    net::Bytes body(kCbrPayloadBytes, 0xAB);
    const std::uint32_t seq = flow.next_seq++;
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
    // Every layer publishes into one registry; its snapshot is the result.
    obs::MetricsRegistry reg;

    ScenarioResult r;
    for (const Flow& f : flows_) r.app_sent += f.next_seq;  // seqs start at 0
    r.app_delivered = latency_ms_.count();  // one sample per unique delivery
    reg.add("app.sent", r.app_sent);
    reg.add("app.delivered", r.app_delivered);
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

    if (feed_) reg.add("adv.frames_observed", feed_->frames_seen());
    if (eavesdropper_) eavesdropper_->publish_metrics(reg, config_.sim_seconds);  // eav.*
    if (feed_ && config_.attach_observer) {
        adversary::AttackParams ap = config_.attack;
        // The attacker knows the mobility envelope unless pinned explicitly.
        if (ap.linker.max_speed_mps <= 0.0) ap.linker.max_speed_mps = config_.max_speed_mps;
        r.attack = adversary::run_attack(*feed_, ap, config_.sim_seconds);
        r.attack.publish_metrics(reg);  // adv.*
    }
    if (checker_) {
        r.invariants = checker_->counters();
        checker_->publish_metrics(reg);  // inv.*
    }
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
