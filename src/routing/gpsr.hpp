#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "net/network.hpp"
#include "net/node.hpp"
#include "routing/location_service.hpp"
#include "sim/simulator.hpp"

namespace geoanon::routing {

using net::MacAddr;
using net::NodeId;
using net::Packet;
using net::PacketPtr;
using util::Vec2;

/// GPSR-Greedy (Karp & Kung) baseline: periodic identity-bearing hello
/// beacons build a neighbor table; data is unicast hop by hop to the
/// neighbor geographically closest to the destination; packets stuck at a
/// local maximum are dropped (no perimeter mode, matching the paper's
/// evaluation). Unicast rides the 802.11 RTS/CTS/DATA/ACK exchange.
class GpsrGreedyAgent final : public net::RoutingAgent {
  public:
    struct Params {
        util::SimTime hello_interval{util::SimTime::seconds(1.5)};
        /// How many alternate next hops to try after a MAC-level failure.
        int reroute_limit{3};
    };

    struct Stats {
        std::uint64_t app_sent{0};
        std::uint64_t delivered{0};       ///< data accepted at this node
        std::uint64_t forwarded{0};
        std::uint64_t drop_no_route{0};   ///< greedy local maximum
        std::uint64_t drop_mac{0};        ///< exhausted MAC retries + reroutes
        std::uint64_t drop_no_location{0};
        std::uint64_t hello_sent{0};
        std::uint64_t control_bytes{0};
        std::uint64_t data_bytes{0};
    };

    /// Delivery callback (self id + the delivered packet).
    using DeliverFn = std::function<void(NodeId, const Packet&)>;
    /// Destination-location oracle; return nullopt when unknown.
    using LocateFn = std::function<std::optional<Vec2>(NodeId)>;

    GpsrGreedyAgent(net::Node& node, Params params, LocateFn locate, DeliverFn deliver);

    /// Replace the oracle with a real grid location service (plain DLM).
    void enable_location_service(GridMap grid, LocationService::Params ls_params);
    LocationService* location_service() { return ls_.get(); }

    void start() override;
    void send_data(NodeId dst, net::FlowId flow, std::uint32_t seq, net::Bytes body) override;
    void on_packet(const PacketPtr& pkt, MacAddr src) override;
    void on_mac_tx_done(const PacketPtr& pkt, MacAddr dst, bool success) override;
    void on_node_restart() override;
    std::string name() const override { return "gpsr-greedy"; }

    /// Geo-route an already-built packet toward pkt->dst_loc (used by the
    /// location service and by tests).
    void route_packet(std::shared_ptr<Packet> pkt);

    std::size_t neighbor_count() const { return neighbors_.size(); }
    const Stats& stats() const { return stats_; }
    /// Fold this agent's counters (and its location service's, when one is
    /// attached) into the run metrics (gpsr.*, ls.*).
    void publish_metrics(obs::MetricsRegistry& reg) const;

  private:
    struct Neighbor {
        Vec2 loc;
        MacAddr mac;
        util::SimTime ts;
    };

    void send_hello();
    void purge_neighbors();
    const Neighbor* best_neighbor(const Vec2& from, const Vec2& dst_loc) const;
    void forward(const PacketPtr& pkt);
    void deliver_local(const PacketPtr& pkt);

    net::Node& node_;
    Params params_;
    LocateFn locate_;
    DeliverFn deliver_;
    std::unordered_map<NodeId, Neighbor> neighbors_;
    /// Alternate-next-hop attempts per packet uid after MAC failures.
    std::unordered_map<std::uint64_t, int> reroute_counts_;
    std::unique_ptr<LocationService> ls_;
    sim::PeriodicTimer hello_timer_;
    std::uint32_t next_uid_{1};
    Stats stats_;
};

}  // namespace geoanon::routing
