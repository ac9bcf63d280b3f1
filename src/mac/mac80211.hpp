#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "net/packet.hpp"
#include "net/types.hpp"
#include "obs/counters.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace geoanon::mac {

using util::Rng;
using util::SimTime;

/// IEEE 802.11 DCF settings. The DCF timing and frame sizes are fixed at
/// the 802.11 DSSS values the paper's ns-2 runs used (20 us slot, 10 us
/// SIFS, 50 us DIFS, CW 31..1023, short retry limit 7); they are constants
/// in mac80211.cpp.
struct MacParams {
    /// Unicast exchanges use RTS/CTS virtual carrier sensing when true —
    /// the behavior Figure 1(b) attributes GPSR's high-density latency to.
    bool use_rtscts{true};
    /// Interface queue length (drop-tail beyond this; ns-2 default 50).
    std::size_t queue_limit{50};
    /// §3.2: anonymous senders must not expose their MAC address; broadcast
    /// frames then carry the broadcast address in the source field too.
    bool anonymous_source{false};
};

#define GEOANON_MAC_COUNTERS(X)                                                \
    X(unicast_accepted, "mac.unicast_accepted")                                \
    X(broadcast_accepted, "mac.broadcast_accepted")                            \
    X(unicast_delivered, "mac.unicast_delivered") /* MAC ACK received */       \
    X(unicast_drop_retry, "mac.unicast_drop_retry") /* exceeded retry limit */ \
    X(drop_queue_full, "mac.drop_queue_full")                                  \
    X(rts_sent, "mac.rts_sent")                                                \
    X(cts_sent, "mac.cts_sent")                                                \
    X(data_sent, "mac.data_sent") /* DATA frames on air (incl. retries) */     \
    X(ack_sent, "mac.ack_sent")                                                \
    X(retries, "mac.retries")                                                  \
    X(rx_delivered, "mac.rx_delivered") /* DATA passed to the network layer */ \
    X(rx_duplicates, "mac.rx_duplicates")
struct MacStats {
    GEOANON_COUNTERS(GEOANON_MAC_COUNTERS)
};

/// Event-driven IEEE 802.11 DCF MAC entity.
///
/// Unicast: DIFS + backoff, then RTS/CTS/DATA/ACK (or DATA/ACK when RTS/CTS
/// is disabled) with exponential backoff and a retry limit, NAV honored from
/// overheard frames. Broadcast: DIFS + backoff, then DATA — no handshake, no
/// recovery — exactly the asymmetry §5 of the paper builds on: AGFW's local
/// broadcasts skip the RTS/CTS latency but inherit hidden-terminal losses.
class Mac80211 {
  public:
    /// Upstream delivery: network packet + transmitter's MAC address (the
    /// broadcast address in anonymous mode).
    using RxHandler = std::function<void(const net::PacketPtr&, net::MacAddr src)>;
    /// Outcome of a send: for unicast, true iff the MAC ACK arrived; for
    /// broadcast, true when the frame went on the air.
    using TxDoneHandler =
        std::function<void(const net::PacketPtr&, net::MacAddr dst, bool success)>;

    Mac80211(sim::Simulator& sim, phy::Radio& radio, net::MacAddr addr, MacParams params,
             Rng rng);

    void set_rx_handler(RxHandler h) { rx_handler_ = std::move(h); }
    void set_tx_done_handler(TxDoneHandler h) { tx_done_handler_ = std::move(h); }

    /// Queue a packet; returns false (and counts a drop) when the interface
    /// queue is full.
    bool send_unicast(net::PacketPtr pkt, net::MacAddr dst);
    bool send_broadcast(net::PacketPtr pkt);

    net::MacAddr address() const { return addr_; }
    const MacStats& stats() const { return stats_; }
    std::size_t queue_length() const { return queue_.size(); }

    /// Node id used for trace attribution only (the MAC address is the
    /// broadcast address in anonymous mode, so it can't serve as identity).
    void set_trace_node(net::NodeId id) { trace_node_ = id; }

    /// Fault injection: disabling models a crashed interface — the queue is
    /// flushed without tx-done notifications (silent halt), any exchange in
    /// progress is abandoned, and sends are refused until re-enabled.
    void set_enabled(bool enabled);
    bool enabled() const { return enabled_; }

  private:
    enum class Phase {
        kIdle,      ///< no exchange in progress (may be contending)
        kTxRts,
        kWaitCts,
        kTxData,
        kWaitAck,
        kTxCts,     ///< responding with CTS
        kTxAck,     ///< responding with ACK
    };

    struct TxItem {
        net::PacketPtr pkt;
        net::MacAddr dst;
        int retries{0};
        /// MAC sequence number, fixed at enqueue time so retransmissions
        /// carry the same seq (receiver-side dedup depends on it).
        std::uint32_t seq{0};
    };

    bool enqueue(TxItem item);
    bool medium_busy() const;
    void try_begin_access();
    void freeze_backoff();
    void on_channel_busy();
    void on_channel_idle();
    void on_access_won();
    void transmit_head();
    /// Put `item`'s DATA frame on the air (broadcast, or unicast after the
    /// CTS or without RTS/CTS).
    void transmit_data(const TxItem& item);
    void start_frame(phy::Frame frame, Phase phase);
    void on_tx_end();
    void on_timeout();
    void finish_head(bool success);
    void on_frame(const phy::Frame& f);
    void respond_after_sifs(phy::Frame frame, Phase phase);
    void update_nav(SimTime until);

    SimTime rts_nav(const net::PacketPtr& pkt) const;
    SimTime data_airtime(const net::PacketPtr& pkt) const;

    sim::Simulator& sim_;
    phy::Radio& radio_;
    net::MacAddr addr_;
    MacParams params_;
    Rng rng_;

    RxHandler rx_handler_;
    TxDoneHandler tx_done_handler_;

    std::deque<TxItem> queue_;
    Phase phase_{Phase::kIdle};
    bool enabled_{true};
    net::NodeId trace_node_{net::kInvalidNode};
    int cw_;
    int backoff_slots_{-1};
    SimTime access_difs_end_{};        ///< when the DIFS of the pending access ends
    sim::EventId access_event_{sim::kInvalidEvent};
    sim::EventId timeout_event_{sim::kInvalidEvent};
    sim::EventId nav_wake_event_{sim::kInvalidEvent};
    SimTime nav_until_{};
    std::uint32_t next_seq_{1};
    net::MacAddr in_flight_dst_{net::kBroadcastAddr};  ///< dst of the frame on the air
    MacStats stats_;

    /// Receiver-side dedup of MAC-level retransmissions: last seq per source.
    std::unordered_map<net::MacAddr, std::uint32_t> last_rx_seq_;
};

}  // namespace geoanon::mac
