#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/agfw.hpp"
#include "crypto/engine.hpp"
#include "mobility/mobility.hpp"
#include "net/network.hpp"

namespace geoanon::test {

/// Static AGFW network for integration tests: one stationary node per
/// position (node i at positions[i]), every id registered with the engine,
/// anonymous broadcast MAC and a perfect location oracle. Deliveries at the
/// destinations are recorded in order.
struct AgfwRig {
    explicit AgfwRig(std::vector<util::Vec2> positions, core::AgfwAgent::Params params = {},
                     bool real_crypto = false, std::uint64_t network_seed = 13)
        : network(phy::PhyParams{}, network_seed) {
        // Real crypto uses the paper's 512-bit keys: the AGFW trapdoor
        // payload (src, loc_s, tag_d) needs one full RSA block.
        if (real_crypto)
            engine = std::make_unique<crypto::RealCryptoEngine>(5, 512);
        else
            engine = std::make_unique<crypto::ModeledCryptoEngine>(5, 512);
        for (std::size_t i = 0; i < positions.size(); ++i) engine->register_node(i);

        mac::MacParams mac_params;
        mac_params.use_rtscts = false;
        mac_params.anonymous_source = true;
        for (const util::Vec2& pos : positions) {
            net::Node& node = network.add_node(
                std::make_unique<mobility::StationaryMobility>(pos), mac_params);
            auto agent = std::make_unique<core::AgfwAgent>(
                node, params, *engine,
                [this](net::NodeId id) -> std::optional<util::Vec2> {
                    return network.true_position(id);
                },
                [this](net::NodeId at, const net::Packet& pkt) {
                    deliveries.emplace_back(at, pkt);
                });
            agents.push_back(agent.get());
            node.set_agent(std::move(agent));
        }
        network.start_agents();
    }

    void run_until(double seconds) { network.sim().run_until(util::SimTime::seconds(seconds)); }

    net::Network network;
    std::unique_ptr<crypto::CryptoEngine> engine;
    std::vector<core::AgfwAgent*> agents;
    std::vector<std::pair<net::NodeId, net::Packet>> deliveries;
};

}  // namespace geoanon::test
