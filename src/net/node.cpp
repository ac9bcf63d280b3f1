#include "net/node.hpp"

namespace geoanon::net {

Node::Node(sim::Simulator& sim, phy::Channel& channel, NodeId id,
           std::unique_ptr<mobility::MobilityModel> mobility, mac::MacParams mac_params,
           util::Rng rng)
    : sim_(sim),
      id_(id),
      mobility_(std::move(mobility)),
      rng_(rng),
      radio_(sim, channel, *mobility_),
      mac_(sim, radio_, mac_of(id), mac_params, rng_.fork()) {
    radio_.set_trace_node(id_);
    mac_.set_trace_node(id_);
}

void Node::set_up(bool up) {
    if (up == up_) return;
    up_ = up;
    if (!up) {
        mac_.set_enabled(false);
        radio_.set_enabled(false);
    } else {
        radio_.set_enabled(true);
        mac_.set_enabled(true);
        if (agent_) agent_->on_node_restart();
    }
}

void Node::set_agent(std::unique_ptr<RoutingAgent> agent) {
    agent_ = std::move(agent);
    // The handlers hold the agent itself, not this Node, so a reception
    // touches no Node cache line on its way up.
    RoutingAgent* const a = agent_.get();
    mac_.set_rx_handler([a](const PacketPtr& pkt, MacAddr src) { a->on_packet(pkt, src); });
    mac_.set_tx_done_handler(
        [a](const PacketPtr& pkt, MacAddr dst, bool ok) { a->on_mac_tx_done(pkt, dst, ok); });
}

}  // namespace geoanon::net
