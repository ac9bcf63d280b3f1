#pragma once

// Reference pseudonym linker: adversary::link_pseudonyms as it was before the
// strong attacker's per-successor heap merge, kept outside the product as a
// differential oracle. The strong attacker collects every gate-passing pair,
// sorts them all by (cost, gap, from, to) and scans the sorted list greedily;
// the weak attacker and everything around the matching are unchanged. Any
// difference in the LinkResult from the product linker is a product bug
// (test_adversary_attacks, LinkingAttack.HeapMergeMatchesSortedGreedy).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "adversary/linker.hpp"

namespace geoanon::reference {

namespace sorted_greedy_detail {

inline bool gate(const adversary::Tracklet& a, const adversary::Tracklet& b,
                 const adversary::LinkerParams& p, double& cost) {
    const double gap = b.t_begin - a.t_end;
    if (gap <= 0.0 || gap > p.max_gap_s) return false;
    const double dist = util::distance(a.p_end, b.p_begin);
    if (dist > p.max_speed_mps * gap + p.slack_m) return false;
    cost = dist / gap;
    return true;
}

struct Pair {
    double cost;
    double gap;
    std::uint32_t from;
    std::uint32_t to;

    bool operator<(const Pair& o) const {
        return std::tie(cost, gap, from, to) < std::tie(o.cost, o.gap, o.from, o.to);
    }
};

}  // namespace sorted_greedy_detail

inline adversary::LinkResult link_pseudonyms_sorted(
    std::vector<adversary::HelloSighting> sightings,
    const adversary::LinkerParams& params) {
    using adversary::Chain;
    using adversary::HelloSighting;
    using adversary::Link;
    using adversary::Tracklet;
    using sorted_greedy_detail::gate;
    using sorted_greedy_detail::Pair;
    adversary::LinkResult r;

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
    std::vector<std::uint32_t> pred_count(n, 0);

    if (params.global_matching) {
        std::vector<Pair> pairs;
        for (std::uint32_t bi = 0; bi < n; ++bi) {
            const std::uint32_t b = by_begin[bi];
            const Tracklet& tb = r.tracklets[b];
            const auto lo = std::lower_bound(end_times.begin(), end_times.end(),
                                             tb.t_begin - params.max_gap_s);
            for (auto it = lo; it != end_times.end() && *it < tb.t_begin; ++it) {
                const std::uint32_t a = by_end[static_cast<std::size_t>(
                    it - end_times.begin())];
                double cost = 0.0;
                if (!gate(r.tracklets[a], tb, params, cost)) continue;
                ++r.candidate_pairs;
                ++pred_count[b];
                pairs.push_back({cost, tb.t_begin - r.tracklets[a].t_end, a, b});
            }
        }
        std::sort(pairs.begin(), pairs.end());
        for (const Pair& p : pairs) {
            if (succ[p.from] != n || pred[p.to] != n) continue;
            succ[p.from] = p.to;
            pred[p.to] = p.from;
            r.links.push_back({p.from, p.to, r.tracklets[p.to].t_begin,
                               std::max<std::uint32_t>(pred_count[p.to], 1)});
        }
    } else {
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
                if (succ[a] != n) continue;
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
    std::sort(r.links.begin(), r.links.end(), [](const Link& x, const Link& y) {
        return std::tie(x.t_s, x.from, x.to) < std::tie(y.t_s, y.from, y.to);
    });

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

}  // namespace geoanon::reference
