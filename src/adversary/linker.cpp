#include "adversary/linker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

namespace geoanon::adversary {

namespace {

/// Link plausibility gate: could the owner of predecessor `a` physically
/// have produced successor `b`? Fills the implied-speed cost on success.
bool gate(const Tracklet& a, const Tracklet& b, const LinkerParams& p, double& cost) {
    const double gap = b.t_begin - a.t_end;
    if (gap <= 0.0 || gap > p.max_gap_s) return false;
    const double dist = util::distance(a.p_end, b.p_begin);
    if (dist > p.max_speed_mps * gap + p.slack_m) return false;
    cost = dist / gap;
    return true;
}

/// Candidate predecessor→successor pair, ordered by plausibility:
/// (cost, gap, from, to). The full tuple tie-break keeps the global matching
/// independent of enumeration order (and therefore deterministic across
/// platforms). The gap is recomputed from the tracklets on a cost tie rather
/// than stored, which keeps a pair at 16 bytes: the strong attacker holds
/// every gate-passing pair of the run.
struct Pair {
    double cost;
    std::uint32_t from;
    std::uint32_t to;
};

}  // namespace

LinkResult link_pseudonyms(std::vector<HelloSighting> sightings,
                           const LinkerParams& params) {
    LinkResult r;

    // Canonical order: handle-major, time-minor, with position and input
    // index breaking any remaining ties. Every tracklet becomes one
    // contiguous run.
    std::vector<std::uint32_t> order(sightings.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
        const HelloSighting& a = sightings[x];
        const HelloSighting& b = sightings[y];
        return std::tie(a.handle, a.t_s, a.pos.x, a.pos.y, x) <
               std::tie(b.handle, b.t_s, b.pos.x, b.pos.y, y);
    });
    r.sightings.reserve(sightings.size());
    r.original_index = order;
    for (const std::uint32_t i : order) r.sightings.push_back(sightings[i]);

    // Tracklets: maximal same-handle runs. A handle reappearing after any
    // silence still belongs to the same tracklet — the attacker links equal
    // handles for free, which is exactly what makes slow rotation weak.
    for (std::uint32_t i = 0; i < r.sightings.size();) {
        std::uint32_t j = i;
        while (j < r.sightings.size() && r.sightings[j].handle == r.sightings[i].handle)
            ++j;
        Tracklet t;
        t.handle = r.sightings[i].handle;
        t.first = i;
        t.count = j - i;
        t.t_begin = r.sightings[i].t_s;
        t.t_end = r.sightings[j - 1].t_s;
        t.p_begin = r.sightings[i].pos;
        t.p_end = r.sightings[j - 1].pos;
        r.tracklets.push_back(t);
        i = j;
    }
    const auto n = static_cast<std::uint32_t>(r.tracklets.size());

    // Tracklet scan orders. by_begin drives successor processing; by_end
    // gives a binary-searchable window of plausible predecessors.
    std::vector<std::uint32_t> by_begin(n), by_end(n);
    for (std::uint32_t i = 0; i < n; ++i) by_begin[i] = by_end[i] = i;
    std::sort(by_begin.begin(), by_begin.end(), [&](std::uint32_t x, std::uint32_t y) {
        return std::tie(r.tracklets[x].t_begin, x) < std::tie(r.tracklets[y].t_begin, y);
    });
    std::sort(by_end.begin(), by_end.end(), [&](std::uint32_t x, std::uint32_t y) {
        return std::tie(r.tracklets[x].t_end, x) < std::tie(r.tracklets[y].t_end, y);
    });
    std::vector<double> end_times(n);
    for (std::uint32_t i = 0; i < n; ++i) end_times[i] = r.tracklets[by_end[i]].t_end;

    std::vector<std::uint32_t> succ(n, n), pred(n, n);
    // Ambiguity per successor: gate-passing predecessors, availability
    // ignored — the information-theoretic anonymity set of the change.
    std::vector<std::uint32_t> pred_count(n, 0);

    if (params.global_matching) {
        // Strong attacker: enumerate every gate-passing pair, then commit
        // links globally in cost order so a cheap link is never preempted by
        // an earlier greedy mistake elsewhere.
        //
        // Each successor's pairs form one contiguous segment, kept as a
        // min-heap; a heap of segments keyed by their cheapest pair yields
        // the pairs in global order. Committing a link retires its
        // successor's whole segment, and those pairs are exactly the ones a
        // cost-sorted scan would skip for `pred[to] != n`, so the links are
        // those of the full sort without sorting every pair.
        std::vector<Pair> pairs;
        std::vector<std::uint32_t> seg_begin, seg_end;
        for (std::uint32_t bi = 0; bi < n; ++bi) {
            const std::uint32_t b = by_begin[bi];
            const Tracklet& tb = r.tracklets[b];
            const auto first = static_cast<std::uint32_t>(pairs.size());
            const auto lo = std::lower_bound(end_times.begin(), end_times.end(),
                                             tb.t_begin - params.max_gap_s);
            for (auto it = lo; it != end_times.end() && *it < tb.t_begin; ++it) {
                const std::uint32_t a = by_end[static_cast<std::size_t>(
                    it - end_times.begin())];
                double cost = 0.0;
                if (!gate(r.tracklets[a], tb, params, cost)) continue;
                ++r.candidate_pairs;
                ++pred_count[b];
                pairs.push_back({cost, a, b});
            }
            if (pairs.size() == first) continue;
            seg_begin.push_back(first);
            seg_end.push_back(static_cast<std::uint32_t>(pairs.size()));
        }
        const auto pair_less = [&](const Pair& x, const Pair& y) {
            if (x.cost != y.cost) return x.cost < y.cost;
            const double gx = r.tracklets[x.to].t_begin - r.tracklets[x.from].t_end;
            const double gy = r.tracklets[y.to].t_begin - r.tracklets[y.from].t_end;
            return std::tie(gx, x.from, x.to) < std::tie(gy, y.from, y.to);
        };
        // Min-heaps through the std max-heap algorithms: invert the order.
        const auto pair_after = [&](const Pair& x, const Pair& y) { return pair_less(y, x); };
        const auto seg_after = [&](std::uint32_t x, std::uint32_t y) {
            return pair_less(pairs[seg_begin[y]], pairs[seg_begin[x]]);
        };
        std::vector<std::uint32_t> heads(seg_begin.size());
        for (std::uint32_t s = 0; s < heads.size(); ++s) {
            heads[s] = s;
            std::make_heap(pairs.begin() + seg_begin[s], pairs.begin() + seg_end[s],
                           pair_after);
        }
        std::make_heap(heads.begin(), heads.end(), seg_after);
        while (!heads.empty()) {
            std::pop_heap(heads.begin(), heads.end(), seg_after);
            const std::uint32_t s = heads.back();
            const Pair p = pairs[seg_begin[s]];
            if (succ[p.from] != n) {
                // Predecessor taken by a cheaper link: try this successor's
                // next-cheapest pair, if it has one.
                std::pop_heap(pairs.begin() + seg_begin[s], pairs.begin() + seg_end[s],
                              pair_after);
                if (--seg_end[s] != seg_begin[s])
                    std::push_heap(heads.begin(), heads.end(), seg_after);
                else
                    heads.pop_back();
                continue;
            }
            heads.pop_back();  // successor matched: its segment retires
            succ[p.from] = p.to;
            pred[p.to] = p.from;
            r.links.push_back({p.from, p.to, r.tracklets[p.to].t_begin,
                               std::max<std::uint32_t>(pred_count[p.to], 1)});
        }
    } else {
        // Weak attacker: take successors in time order and give each the
        // best predecessor still available — an online nearest-neighbor
        // tracker with no lookahead.
        for (std::uint32_t bi = 0; bi < n; ++bi) {
            const std::uint32_t b = by_begin[bi];
            const Tracklet& tb = r.tracklets[b];
            double best_cost = std::numeric_limits<double>::infinity();
            double best_gap = 0.0;
            std::uint32_t best = n;
            const auto lo = std::lower_bound(end_times.begin(), end_times.end(),
                                             tb.t_begin - params.max_gap_s);
            for (auto it = lo; it != end_times.end() && *it < tb.t_begin; ++it) {
                const std::uint32_t a = by_end[static_cast<std::size_t>(
                    it - end_times.begin())];
                double cost = 0.0;
                if (!gate(r.tracklets[a], tb, params, cost)) continue;
                ++r.candidate_pairs;
                ++pred_count[b];
                if (succ[a] != n) continue;  // already consumed by an earlier B
                const double gap = tb.t_begin - r.tracklets[a].t_end;
                if (std::tie(cost, gap, a) < std::tie(best_cost, best_gap, best)) {
                    best_cost = cost;
                    best_gap = gap;
                    best = a;
                }
            }
            if (best == n) continue;
            succ[best] = b;
            pred[b] = best;
            r.links.push_back({best, b, tb.t_begin,
                               std::max<std::uint32_t>(pred_count[b], 1)});
        }
    }
    // Reported in decision-time order for either attacker.
    std::sort(r.links.begin(), r.links.end(), [](const Link& x, const Link& y) {
        return std::tie(x.t_s, x.from, x.to) < std::tie(y.t_s, y.from, y.to);
    });

    // Chains: follow successor pointers from every head (no predecessor),
    // heads visited in (t_begin, idx) order so chain ids are deterministic.
    r.chain_of.assign(n, 0);
    for (std::uint32_t bi = 0; bi < n; ++bi) {
        const std::uint32_t head = by_begin[bi];
        if (pred[head] != n) continue;
        const auto chain_id = static_cast<std::uint32_t>(r.chains.size());
        Chain c;
        for (std::uint32_t t = head; t != n; t = succ[t]) {
            c.tracklets.push_back(t);
            r.chain_of[t] = chain_id;
        }
        r.chains.push_back(std::move(c));
    }
    return r;
}

}  // namespace geoanon::adversary
