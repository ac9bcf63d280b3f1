#include "adversary/trajectory.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "obs/metrics.hpp"

namespace geoanon::adversary {

namespace {

/// Bucket size of the anonymity-set-over-time series.
constexpr double kWindowSeconds = 30.0;

/// Majority element of a small owner list (ties -> smaller id). The list is
/// consumed (sorted in place).
net::NodeId majority(std::vector<net::NodeId>& owners) {
    if (owners.empty()) return net::kInvalidNode;
    std::sort(owners.begin(), owners.end());
    net::NodeId best = owners.front();
    std::size_t best_count = 0;
    for (std::size_t i = 0; i < owners.size();) {
        std::size_t j = i;
        while (j < owners.size() && owners[j] == owners[i]) ++j;
        if (j - i > best_count) {
            best_count = j - i;
            best = owners[i];
        }
        i = j;
    }
    return best;
}

/// One node's true track, rebuilt from its own sightings: piecewise-linear
/// interpolation between beacons, clamped at the ends.
struct TrueTrack {
    std::vector<double> t;
    std::vector<util::Vec2> p;

    util::Vec2 at(double when) const {
        const auto it = std::lower_bound(t.begin(), t.end(), when);
        if (it == t.begin()) return p.front();
        if (it == t.end()) return p.back();
        const auto i = static_cast<std::size_t>(it - t.begin());
        const double span = t[i] - t[i - 1];
        if (span <= 0.0) return p[i];
        const double a = (when - t[i - 1]) / span;
        return {p[i - 1].x + (p[i].x - p[i - 1].x) * a,
                p[i - 1].y + (p[i].y - p[i - 1].y) * a};
    }
};

}  // namespace

void AttackReport::publish_metrics(obs::MetricsRegistry& reg) const {
    reg.add_all(*this);
    reg.set_gauge("adv.link_precision", link_precision);
    reg.set_gauge("adv.link_recall", link_recall);
    reg.set_gauge("adv.tracking_success_rate", tracking_success_rate);
    reg.set_gauge("adv.mean_anonymity_set", mean_anonymity_set);
    reg.set_gauge("adv.max_anonymity_set", max_anonymity_set);
    reg.set_gauge("adv.mean_path_error_m", mean_path_error_m);
    reg.set_series("adv.anonymity_over_time", anonymity_over_time);
}

AttackReport run_attack(const ObservationFeed& feed, const AttackParams& params,
                        double total_seconds) {
    return run_attack(feed.observations(), params, total_seconds);
}

AttackReport run_attack(const std::vector<Observation>& observations,
                        const AttackParams& params, double total_seconds) {
    AttackReport rep;

    // Split each hello observation into the attack-visible sighting and the
    // scoring-only ground truth. HelloSighting cannot carry the true sender,
    // so the linker below decides on (time, position, handle) alone.
    std::vector<HelloSighting> sightings;
    std::vector<net::NodeId> truth;
    for (const Observation& o : observations) {
        if (o.handle == 0) continue;
        sightings.push_back({o.t_s, o.pos, o.handle});
        truth.push_back(o.true_sender);
    }
    rep.hello_observations = sightings.size();
    if (sightings.empty()) return rep;
    if (total_seconds <= 0.0) {
        for (const HelloSighting& s : sightings)
            total_seconds = std::max(total_seconds, s.t_s);
    }
    total_seconds = std::max(total_seconds, 1e-9);

    LinkerParams lp = params.linker;
    if (lp.max_speed_mps <= 0.0) lp.max_speed_mps = 20.0;
    const LinkResult linked = link_pseudonyms(sightings, lp);

    rep.tracklets = linked.tracklets.size();
    rep.chains = linked.chains.size();
    rep.candidate_pairs = linked.candidate_pairs;
    rep.links_made = linked.links.size();

    // Carry the ground truth through the linker's canonical sort.
    std::vector<net::NodeId> owner(linked.sightings.size(), net::kInvalidNode);
    for (std::size_t i = 0; i < linked.sightings.size(); ++i)
        owner[i] = truth[linked.original_index[i]];

    // Per-tracklet owner (majority over its sightings; one node in practice,
    // pseudonyms are per-node hash outputs).
    const auto n = static_cast<std::uint32_t>(linked.tracklets.size());
    std::vector<net::NodeId> tracklet_owner(n, net::kInvalidNode);
    for (std::uint32_t t = 0; t < n; ++t) {
        const Tracklet& tk = linked.tracklets[t];
        std::vector<net::NodeId> owners(owner.begin() + tk.first,
                                        owner.begin() + tk.first + tk.count);
        tracklet_owner[t] = majority(owners);
    }

    // Link precision.
    for (const Link& l : linked.links) {
        if (tracklet_owner[l.from] != net::kInvalidNode &&
            tracklet_owner[l.from] == tracklet_owner[l.to])
            ++rep.links_correct;
    }
    rep.link_precision =
        rep.links_made > 0
            ? static_cast<double>(rep.links_correct) / static_cast<double>(rep.links_made)
            : 0.0;

    // Recall: of the ground-truth adjacent tracklet pairs of each node, how
    // many landed in one chain? std::map keeps the node iteration sorted so
    // float accumulation order is fixed.
    std::map<net::NodeId, std::vector<std::uint32_t>> tracklets_of;
    for (std::uint32_t t = 0; t < n; ++t) {
        if (tracklet_owner[t] != net::kInvalidNode)
            tracklets_of[tracklet_owner[t]].push_back(t);
    }
    std::uint64_t truth_pairs = 0, truth_pairs_chained = 0;
    for (auto& [node, ts] : tracklets_of) {
        std::sort(ts.begin(), ts.end(), [&](std::uint32_t x, std::uint32_t y) {
            return std::tie(linked.tracklets[x].t_begin, x) <
                   std::tie(linked.tracklets[y].t_begin, y);
        });
        for (std::size_t i = 1; i < ts.size(); ++i) {
            ++truth_pairs;
            if (linked.chain_of[ts[i - 1]] == linked.chain_of[ts[i]])
                ++truth_pairs_chained;
        }
    }
    rep.link_recall = truth_pairs > 0 ? static_cast<double>(truth_pairs_chained) /
                                            static_cast<double>(truth_pairs)
                                      : 0.0;

    // True tracks (scoring only), then per-chain majority owner.
    std::map<net::NodeId, TrueTrack> tracks;
    for (std::size_t i = 0; i < linked.sightings.size(); ++i) {
        if (owner[i] == net::kInvalidNode) continue;
        tracks[owner[i]].t.push_back(linked.sightings[i].t_s);
        tracks[owner[i]].p.push_back(linked.sightings[i].pos);
    }
    for (auto& [node, tr] : tracks) {
        std::vector<std::size_t> idx(tr.t.size());
        for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
        std::sort(idx.begin(), idx.end(), [&](std::size_t x, std::size_t y) {
            return std::tie(tr.t[x], x) < std::tie(tr.t[y], y);
        });
        TrueTrack sorted;
        sorted.t.reserve(idx.size());
        sorted.p.reserve(idx.size());
        for (const std::size_t i : idx) {
            sorted.t.push_back(tr.t[i]);
            sorted.p.push_back(tr.p[i]);
        }
        tr = std::move(sorted);
    }

    const auto chain_count = static_cast<std::uint32_t>(linked.chains.size());
    std::vector<net::NodeId> chain_owner(chain_count, net::kInvalidNode);
    for (std::uint32_t c = 0; c < chain_count; ++c) {
        std::vector<net::NodeId> owners;
        for (const std::uint32_t t : linked.chains[c].tracklets) {
            const Tracklet& tk = linked.tracklets[t];
            owners.insert(owners.end(), owner.begin() + tk.first,
                          owner.begin() + tk.first + tk.count);
        }
        chain_owner[c] = majority(owners);
    }

    // Tracking success + path error, per chain in chain order (fixed float
    // accumulation order).
    std::map<net::NodeId, double> best_span;
    double error_sum = 0.0;
    std::uint64_t error_count = 0;
    for (std::uint32_t c = 0; c < chain_count; ++c) {
        const net::NodeId v = chain_owner[c];
        if (v == net::kInvalidNode) continue;
        const TrueTrack& track = tracks[v];
        double own_first = 0.0, own_last = 0.0;
        bool any_own = false;
        for (const std::uint32_t t : linked.chains[c].tracklets) {
            const Tracklet& tk = linked.tracklets[t];
            for (std::uint32_t i = tk.first; i < tk.first + tk.count; ++i) {
                const HelloSighting& s = linked.sightings[i];
                error_sum += util::distance(s.pos, track.at(s.t_s));
                ++error_count;
                if (owner[i] != v) continue;
                if (!any_own) {
                    own_first = own_last = s.t_s;
                    any_own = true;
                } else {
                    own_first = std::min(own_first, s.t_s);
                    own_last = std::max(own_last, s.t_s);
                }
            }
        }
        if (any_own) {
            double& span = best_span[v];
            span = std::max(span, own_last - own_first);
        }
    }
    rep.mean_path_error_m =
        error_count > 0 ? error_sum / static_cast<double>(error_count) : 0.0;

    // Mean over the nodes that beaconed at all (tracks' keys).
    if (!tracks.empty()) {
        double sum = 0.0;
        for (const auto& [node, tr] : tracks) {
            const auto it = best_span.find(node);
            sum += (it != best_span.end() ? it->second : 0.0) / total_seconds;
        }
        rep.tracking_success_rate = sum / static_cast<double>(tracks.size());
    }

    // Anonymity-set statistics over the committed links.
    const std::size_t windows = static_cast<std::size_t>(
        std::max(1.0, std::ceil(total_seconds / kWindowSeconds)));
    std::vector<double> win_sum(windows, 0.0);
    std::vector<std::uint64_t> win_count(windows, 0);
    double anon_sum = 0.0;
    for (const Link& l : linked.links) {
        const auto cand = static_cast<double>(l.candidates);
        anon_sum += cand;
        rep.max_anonymity_set = std::max(rep.max_anonymity_set, cand);
        auto w = static_cast<std::size_t>(l.t_s / kWindowSeconds);
        w = std::min(w, windows - 1);
        win_sum[w] += cand;
        ++win_count[w];
    }
    rep.mean_anonymity_set =
        rep.links_made > 0 ? anon_sum / static_cast<double>(rep.links_made) : 0.0;
    rep.anonymity_over_time.resize(windows, 0.0);
    for (std::size_t w = 0; w < windows; ++w) {
        if (win_count[w] > 0)
            rep.anonymity_over_time[w] = win_sum[w] / static_cast<double>(win_count[w]);
    }
    return rep;
}

}  // namespace geoanon::adversary
