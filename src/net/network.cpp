#include "net/network.hpp"

namespace geoanon::net {

Network::Network(phy::PhyParams phy_params, std::uint64_t seed)
    : rng_(seed), channel_(sim_, phy_params) {}

Node& Network::add_node(std::unique_ptr<mobility::MobilityModel> mobility,
                        mac::MacParams mac_params) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    return nodes_.emplace(sim_, channel_, id, std::move(mobility), mac_params, rng_.fork());
}

util::Vec2 Network::true_position(NodeId id) const {
    // Routed through the radio's channel row: same value as asking the
    // mobility model (bit-identical evaluation), but served from the cached
    // motion leg.
    return nodes_.at(id).true_position();
}

void Network::start_agents() {
    for (auto& n : nodes_)
        if (n.has_agent()) n.agent().start();
}

}  // namespace geoanon::net
