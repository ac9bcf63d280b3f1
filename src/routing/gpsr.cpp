#include "routing/gpsr.hpp"

#include <algorithm>

#include "net/codec.hpp"
#include "obs/trace.hpp"

namespace geoanon::routing {

namespace {
/// A neighbor is forgotten 4.5 s after its last hello (three default hello
/// intervals).
constexpr util::SimTime kNeighborTtl = util::SimTime::seconds(4.5);
}  // namespace

GpsrGreedyAgent::GpsrGreedyAgent(net::Node& node, Params params, LocateFn locate,
                                 DeliverFn deliver)
    : node_(node),
      params_(params),
      locate_(std::move(locate)),
      deliver_(std::move(deliver)) {}

void GpsrGreedyAgent::enable_location_service(GridMap grid,
                                              LocationService::Params ls_params) {
    LocationService::Hooks hooks;
    hooks.route = [this](std::shared_ptr<Packet> pkt) { route_packet(std::move(pkt)); };
    hooks.local_broadcast = [this](std::shared_ptr<Packet> pkt) {
        stats_.control_bytes += pkt->wire_bytes;
        node_.mac().send_broadcast(std::move(pkt));
    };
    hooks.my_position = [this] { return node_.position(); };
    hooks.my_id = node_.id();
    hooks.sim = &node_.sim();
    hooks.rng = &node_.rng();
    hooks.is_up = [this] { return node_.up(); };
    ls_ = std::make_unique<LocationService>(LocationService::Mode::kPlain, grid,
                                            ls_params, std::move(hooks));
}

void GpsrGreedyAgent::start() {
    const util::SimTime phase = util::SimTime::nanos(
        node_.rng().uniform_int(0, params_.hello_interval.ns()));
    hello_timer_.start(node_.sim(), params_.hello_interval, phase,
                       [this] { send_hello(); });
    if (ls_) ls_->start();
}

void GpsrGreedyAgent::on_node_restart() {
    neighbors_.clear();
    reroute_counts_.clear();
    if (ls_) ls_->reset();
}

void GpsrGreedyAgent::send_hello() {
    if (!node_.up()) return;  // crashed: the hello timer keeps ticking idly
    purge_neighbors();
    auto pkt = net::make_packet();
    pkt->type = net::PacketType::kGpsrHello;
    // geoanon-lint: allow(privacy-taint) -- GPSR is the non-anonymous baseline (§2): exposing id+location on hellos is exactly the behavior the paper's scheme is measured against
    pkt->src_id = node_.id();
    // geoanon-lint: allow(privacy-taint) -- GPSR baseline, see src_id above
    pkt->hello_loc = node_.position();
    pkt->hello_ts = node_.sim().now();
    pkt->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*pkt));
    ++stats_.hello_sent;
    stats_.control_bytes += pkt->wire_bytes;
    GEOANON_TRACE(node_.sim(), .type = obs::EventType::kHelloSent, .node = node_.id(),
                  .bytes = pkt->wire_bytes, .detail = node_.id());
    node_.mac().send_broadcast(std::move(pkt));
}

void GpsrGreedyAgent::purge_neighbors() {
    const util::SimTime now = node_.sim().now();
    std::erase_if(neighbors_, [&](const Neighbor& n) { return now - n.ts > kNeighborTtl; });
}

const GpsrGreedyAgent::Neighbor* GpsrGreedyAgent::best_neighbor(
    const Vec2& from, const Vec2& dst_loc) const {
    const double my_dist = util::distance(from, dst_loc);
    const Neighbor* best = nullptr;
    double best_dist = my_dist;
    const util::SimTime now = node_.sim().now();
    // Ties on distance are broken by the lowest node id so the winner does
    // not depend on table order.
    for (const Neighbor& n : neighbors_) {
        if (now - n.ts > kNeighborTtl) continue;
        const double d = util::distance(n.loc, dst_loc);
        if (d < best_dist || (d == best_dist && best != nullptr && n.id < best->id)) {
            best_dist = d;
            best = &n;
        }
    }
    return best;
}

void GpsrGreedyAgent::send_data(NodeId dst, net::FlowId flow, std::uint32_t seq,
                                net::Bytes body) {
    if (!node_.up()) return;  // a crashed node originates nothing
    ++stats_.app_sent;
    auto send_with_loc = [this, dst, flow, seq,
                          body = std::move(body)](std::optional<Vec2> loc) mutable {
        if (!loc) {
            ++stats_.drop_no_location;
            GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetDrop,
                          .cause = obs::DropCause::kNoLocation, .node = node_.id(),
                          .flow = flow, .seq = seq, .detail = dst);
            return;
        }
        auto pkt = net::make_packet();
        pkt->type = net::PacketType::kGpsrData;
        pkt->flow = flow;
        pkt->seq = seq;
        pkt->created_at = node_.sim().now();
        pkt->uid = (static_cast<std::uint64_t>(node_.id()) << 32) | next_uid_++;
        pkt->src_id = node_.id();
        pkt->dst_id = dst;
        pkt->dst_loc = *loc;
        pkt->body = std::move(body);
        pkt->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*pkt));
        GEOANON_TRACE(node_.sim(), .type = obs::EventType::kAppSend, .node = node_.id(),
                      .uid = pkt->uid, .flow = pkt->flow, .seq = pkt->seq,
                      .bytes = pkt->wire_bytes);
        route_packet(std::move(pkt));
    };

    if (ls_) {
        ls_->resolve(dst, std::move(send_with_loc));
    } else {
        send_with_loc(locate_(dst));
    }
}

void GpsrGreedyAgent::route_packet(std::shared_ptr<Packet> pkt) {
    PacketPtr p(std::move(pkt));
    // The originator may itself be the responsible server — or the requester
    // of a reply it is about to geo-route (it never hears its own frames).
    if (net::is_location_service(p->type) && ls_ && ls_->handle(p)) return;
    forward(p);
}

void GpsrGreedyAgent::deliver_local(const PacketPtr& pkt) {
    ++stats_.delivered;
    GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetDeliver, .node = node_.id(),
                  .uid = pkt->uid, .flow = pkt->flow, .seq = pkt->seq,
                  .bytes = pkt->wire_bytes);
    if (deliver_) deliver_(node_.id(), *pkt);
}

void GpsrGreedyAgent::forward(const PacketPtr& pkt) {
    if (!node_.up()) return;  // e.g. an LS retry timer firing while down
    if (pkt->type == net::PacketType::kGpsrData && pkt->dst_id == node_.id()) {
        deliver_local(pkt);
        return;
    }

    const Vec2 me = node_.position();
    const Neighbor* best = best_neighbor(me, pkt->dst_loc);
    if (best == nullptr) {
        // Greedy local maximum: LS packets get a last-resort serve; data is
        // dropped (no perimeter recovery in this evaluation).
        if (ls_ && ls_->handle_stuck(pkt)) return;
        if (pkt->type == net::PacketType::kGpsrData) {
            ++stats_.drop_no_route;
            GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetDrop,
                          .cause = obs::DropCause::kNoRoute, .node = node_.id(),
                          .uid = pkt->uid, .flow = pkt->flow, .seq = pkt->seq);
        }
        return;
    }

    auto copy = net::clone_packet(*pkt);
    copy->hops = static_cast<std::uint16_t>(pkt->hops + 1);
    ++stats_.forwarded;
    stats_.data_bytes += copy->wire_bytes;
    GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetForward, .node = node_.id(),
                  .uid = copy->uid, .flow = copy->flow, .seq = copy->seq,
                  .bytes = copy->wire_bytes, .detail = best->mac);
    node_.mac().send_unicast(std::move(copy), best->mac);
}

void GpsrGreedyAgent::on_packet(const PacketPtr& pkt, MacAddr src) {
    if (!node_.up()) return;  // radio gates this too; belt and braces
    switch (pkt->type) {
        case net::PacketType::kGpsrHello: {
            const Neighbor heard{pkt->src_id, pkt->hello_loc, src, node_.sim().now()};
            auto it = std::find_if(neighbors_.begin(), neighbors_.end(),
                                   [&](const Neighbor& n) { return n.id == heard.id; });
            if (it != neighbors_.end())
                *it = heard;
            else
                neighbors_.push_back(heard);
            break;
        }
        case net::PacketType::kGpsrData:
            if (pkt->dst_id == node_.id())
                deliver_local(pkt);
            else
                forward(pkt);
            break;
        default:
            if (!net::is_location_service(pkt->type)) break;  // AGFW traffic: not ours
            if (ls_ && ls_->handle(pkt)) return;
            if (!pkt->ls_assist) forward(pkt);
            break;
    }
}

void GpsrGreedyAgent::on_mac_tx_done(const PacketPtr& pkt, MacAddr dst, bool success) {
    if (dst == net::kBroadcastAddr) return;
    if (success) {
        reroute_counts_.erase(pkt->uid);
        return;
    }
    // The MAC exhausted its retries: assume the neighbor is gone (GPSR's
    // beacon-timeout shortcut) and try the next-best one.
    auto gone = std::find_if(neighbors_.begin(), neighbors_.end(),
                             [dst](const Neighbor& n) { return n.mac == dst; });
    if (gone != neighbors_.end()) neighbors_.erase(gone);
    const int attempts = ++reroute_counts_[pkt->uid];
    if (attempts <= params_.reroute_limit) {
        forward(pkt);
    } else {
        reroute_counts_.erase(pkt->uid);
        if (pkt->type == net::PacketType::kGpsrData) {
            ++stats_.drop_mac;
            GEOANON_TRACE(node_.sim(), .type = obs::EventType::kNetDrop,
                          .cause = obs::DropCause::kMacRetry, .node = node_.id(),
                          .uid = pkt->uid, .flow = pkt->flow, .seq = pkt->seq);
        }
    }
}

}  // namespace geoanon::routing
