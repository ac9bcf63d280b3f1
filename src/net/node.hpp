#pragma once

#include <memory>

#include "mac/mac80211.hpp"
#include "mobility/mobility.hpp"
#include "net/packet.hpp"
#include "net/types.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace geoanon::net {

class Node;

/// A network-layer routing agent bound to one node. Implementations:
/// GpsrGreedyAgent (baseline) and AgfwAgent (the paper's scheme).
class RoutingAgent {
  public:
    virtual ~RoutingAgent() = default;

    /// Begin protocol operation (hello beaconing, location updates, ...).
    virtual void start() = 0;

    /// Application send: deliver `body` to the node with identity `dst`.
    /// How much of (identity, location) goes on the air depends on the agent.
    virtual void send_data(NodeId dst, FlowId flow, std::uint32_t seq, Bytes body) = 0;

    /// A frame's payload arrived from the MAC (src is the transmitter's MAC
    /// address — the broadcast address in anonymous mode).
    virtual void on_packet(const PacketPtr& pkt, MacAddr src) = 0;

    /// MAC finished a transmission we requested (unicast: ACK outcome).
    virtual void on_mac_tx_done(const PacketPtr& pkt, MacAddr dst, bool success) = 0;

    /// The node rebooted after a crash (fault injection): wipe all volatile
    /// protocol state — neighbor tables, pending retransmissions, caches —
    /// exactly what a real reboot loses. Cumulative statistics survive.
    virtual void on_node_restart() {}
};

/// One mobile node: mobility + radio + MAC + routing agent, glued together.
class Node {
  public:
    Node(sim::Simulator& sim, phy::Channel& channel, NodeId id,
         std::unique_ptr<mobility::MobilityModel> mobility, mac::MacParams mac_params,
         util::Rng rng);

    // geoanon: source(node-id)
    NodeId id() const { return id_; }
    /// The position the node *believes* (its GPS fix): true position plus
    /// the injected GPS error, when one is set. The radio always uses the
    /// true physical position (see the constructor).
    // geoanon: source(gps)
    util::Vec2 position() const {
        const util::Vec2 p = radio_.position();
        return gps_error_ ? p + gps_error_(sim_.now()) : p;
    }
    // geoanon: source(gps)
    util::Vec2 true_position() const { return radio_.position(); }
    // geoanon: source(gps)
    util::Vec2 velocity() const { return radio_.velocity(); }

    sim::Simulator& sim() { return sim_; }
    mac::Mac80211& mac() { return mac_; }
    const mac::Mac80211& mac() const { return mac_; }
    phy::Radio& radio() { return radio_; }
    const phy::Radio& radio() const { return radio_; }
    util::Rng& rng() { return rng_; }
    mobility::MobilityModel& mobility() { return *mobility_; }

    /// Install the routing agent and wire MAC callbacks to it.
    void set_agent(std::unique_ptr<RoutingAgent> agent);
    RoutingAgent& agent() { return *agent_; }
    bool has_agent() const { return agent_ != nullptr; }

    /// Crash / recover (fault injection). Down: the MAC flushes its queue
    /// and refuses sends, the radio decodes nothing — a silent halt; the
    /// node keeps moving (a rebooting device still moves). Up again: the
    /// agent's volatile state is wiped via on_node_restart().
    void set_up(bool up);
    bool up() const { return up_; }

    /// GPS error model (fault injection): offset added to position() as a
    /// function of the current time; nullptr restores perfect fixes.
    using GpsErrorFn = std::function<util::Vec2(util::SimTime)>;
    void set_gps_error(GpsErrorFn fn) { gps_error_ = std::move(fn); }

  private:
    sim::Simulator& sim_;
    NodeId id_;
    std::unique_ptr<mobility::MobilityModel> mobility_;
    util::Rng rng_;
    phy::Radio radio_;
    mac::Mac80211 mac_;
    std::unique_ptr<RoutingAgent> agent_;
    GpsErrorFn gps_error_;
    bool up_{true};
};

}  // namespace geoanon::net
