#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/node.hpp"
#include "net/node_store.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace geoanon::net {

/// Container owning the simulator, the channel, and all nodes. Also provides
/// the "perfect location service" oracle the paper's Figure-1 experiments use
/// in place of ALS (§5.1: the simulation focuses on the routing part).
class Network {
  public:
    Network(phy::PhyParams phy_params, std::uint64_t seed);

    sim::Simulator& sim() { return sim_; }
    phy::Channel& channel() { return channel_; }
    util::Rng& rng() { return rng_; }

    /// Create a node with sequential id (0, 1, 2, ...).
    Node& add_node(std::unique_ptr<mobility::MobilityModel> mobility,
                   mac::MacParams mac_params);

    Node& node(NodeId id) { return nodes_.at(id); }
    const Node& node(NodeId id) const { return nodes_.at(id); }
    std::size_t size() const { return nodes_.size(); }
    NodeStore& nodes() { return nodes_; }
    const NodeStore& nodes() const { return nodes_; }

    /// Location oracle: the true current position of `id`.
    util::Vec2 true_position(NodeId id) const;

    /// Start all installed agents.
    void start_agents();

    /// Install (or remove, with nullptr) the trace recorder every layer
    /// records into through the simulator hook.
    void set_trace(obs::TraceRecorder* recorder) { sim_.set_trace(recorder); }

  private:
    util::Rng rng_;
    sim::Simulator sim_;
    phy::Channel channel_;
    /// Chunked arena: nodes are contiguous in id order with stable addresses
    /// (FaultInjector, InvariantChecker and obs taps hold Node/Radio
    /// references across the whole run).
    NodeStore nodes_;
};

}  // namespace geoanon::net
