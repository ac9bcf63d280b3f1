#include "mac/mac80211.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace geoanon::mac {

using phy::Frame;

namespace {
// 802.11 DSSS DCF constants, the ns-2 CMU defaults the paper ran with.
constexpr SimTime kSlot = SimTime::micros(20);
constexpr SimTime kSifs = SimTime::micros(10);
constexpr SimTime kDifs = SimTime::micros(50);
constexpr int kCwMin = 31;
constexpr int kCwMax = 1023;
constexpr int kRetryLimit = 7;  ///< short retry limit
constexpr std::uint32_t kRtsBytes = 20;
constexpr std::uint32_t kCtsBytes = 14;
constexpr std::uint32_t kAckBytes = 14;
/// MAC header + FCS added to every DATA frame.
constexpr std::uint32_t kDataHeaderBytes = 28;
/// Extra margin on CTS/ACK timeouts (propagation + rx/tx turnaround).
constexpr SimTime kTimeoutSlack = SimTime::micros(25);
}  // namespace

Mac80211::Mac80211(sim::Simulator& sim, phy::Radio& radio, net::MacAddr addr,
                   MacParams params, Rng rng)
    : sim_(sim), radio_(radio), addr_(addr), params_(params), rng_(rng),
      cw_(kCwMin) {
    radio_.set_mac_hooks([this] { on_channel_busy(); }, [this] { on_channel_idle(); },
                         [this](const Frame& f) { on_frame(f); });
}

SimTime Mac80211::data_airtime(const net::PacketPtr& pkt) const {
    return radio_.phy_params().airtime(pkt->wire_bytes + kDataHeaderBytes);
}

SimTime Mac80211::rts_nav(const net::PacketPtr& pkt) const {
    const auto& phy = radio_.phy_params();
    return kSifs + phy.airtime(kCtsBytes) + kSifs + data_airtime(pkt) + kSifs +
           phy.airtime(kAckBytes);
}

void Mac80211::set_enabled(bool enabled) {
    if (enabled == enabled_) return;
    enabled_ = enabled;
    if (enabled) return;
    // Crash semantics: lose the interface queue without notifying the
    // network layer, abandon any exchange in progress, and forget the
    // contention and dedup state a rebooted interface would not have.
    for (const TxItem& item : queue_) {
        GEOANON_TRACE(sim_, .type = obs::EventType::kMacDrop,
                      .cause = obs::DropCause::kNodeDown, .node = trace_node_,
                      .uid = item.pkt ? item.pkt->uid : 0);
    }
    queue_.clear();
    if (access_event_ != sim::kInvalidEvent) {
        sim_.cancel(access_event_);
        access_event_ = sim::kInvalidEvent;
    }
    if (timeout_event_ != sim::kInvalidEvent) {
        sim_.cancel(timeout_event_);
        timeout_event_ = sim::kInvalidEvent;
    }
    if (nav_wake_event_ != sim::kInvalidEvent) {
        sim_.cancel(nav_wake_event_);
        nav_wake_event_ = sim::kInvalidEvent;
    }
    phase_ = Phase::kIdle;
    cw_ = kCwMin;
    backoff_slots_ = -1;
    nav_until_ = SimTime{};
    in_flight_ = phy::Frame{};
    last_rx_seq_.clear();
}

bool Mac80211::enqueue(TxItem item) {
    if (!enabled_) return false;
    if (queue_.size() >= params_.queue_limit) {
        ++stats_.drop_queue_full;
        GEOANON_TRACE(sim_, .type = obs::EventType::kMacDrop,
                      .cause = obs::DropCause::kQueueFull, .node = trace_node_,
                      .uid = item.pkt ? item.pkt->uid : 0);
        if (tx_done_handler_) tx_done_handler_(item.pkt, item.dst, false);
        return false;
    }
    item.seq = next_seq_++;
    GEOANON_TRACE(sim_, .type = obs::EventType::kMacEnqueue, .node = trace_node_,
                  .uid = item.pkt ? item.pkt->uid : 0, .seq = item.seq,
                  .detail = item.dst);
    queue_.push_back(std::move(item));
    try_begin_access();
    return true;
}

bool Mac80211::send_unicast(net::PacketPtr pkt, net::MacAddr dst) {
    assert(dst != net::kBroadcastAddr);
    ++stats_.unicast_accepted;
    return enqueue(TxItem{std::move(pkt), dst, 0});
}

bool Mac80211::send_broadcast(net::PacketPtr pkt) {
    ++stats_.broadcast_accepted;
    return enqueue(TxItem{std::move(pkt), net::kBroadcastAddr, 0});
}

bool Mac80211::medium_busy() const {
    return radio_.energy_busy() || sim_.now() < nav_until_;
}

void Mac80211::update_nav(SimTime until) {
    if (until > nav_until_) {
        // NAV extension while counting down acts like physical busy.
        freeze_backoff();
        nav_until_ = until;
    }
}

void Mac80211::try_begin_access() {
    if (phase_ != Phase::kIdle) return;
    if (queue_.empty()) return;
    if (access_event_ != sim::kInvalidEvent) return;
    if (medium_busy()) {
        // Physical busy resolves via on_channel_idle(); NAV-only busy needs
        // a wake-up of our own.
        if (!radio_.energy_busy() && nav_wake_event_ == sim::kInvalidEvent) {
            nav_wake_event_ = sim_.at(nav_until_, [this] {
                nav_wake_event_ = sim::kInvalidEvent;
                try_begin_access();
            });
        }
        return;
    }
    if (backoff_slots_ < 0)
        backoff_slots_ = static_cast<int>(rng_.uniform_int(0, cw_));
    access_difs_end_ = sim_.now() + kDifs;
    access_event_ = sim_.after(kDifs + kSlot * backoff_slots_, [this] { on_access_won(); });
}

void Mac80211::freeze_backoff() {
    if (access_event_ == sim::kInvalidEvent) return;
    sim_.cancel(access_event_);
    access_event_ = sim::kInvalidEvent;
    if (backoff_slots_ > 0 && sim_.now() > access_difs_end_) {
        const auto consumed =
            static_cast<int>((sim_.now() - access_difs_end_).ns() / kSlot.ns());
        backoff_slots_ = std::max(0, backoff_slots_ - consumed);
    }
}

void Mac80211::on_channel_busy() { freeze_backoff(); }

void Mac80211::on_channel_idle() { try_begin_access(); }

void Mac80211::on_access_won() {
    access_event_ = sim::kInvalidEvent;
    backoff_slots_ = -1;  // fully consumed; redraw next time
    transmit_head();
}

void Mac80211::transmit_head() {
    assert(!queue_.empty());
    const TxItem& item = queue_.front();
    const auto& phy = radio_.phy_params();

    if (item.dst == net::kBroadcastAddr) {
        Frame f;
        f.type = Frame::Type::kData;
        f.src = params_.anonymous_source ? net::kBroadcastAddr : addr_;
        f.dst = net::kBroadcastAddr;
        f.seq = item.seq;
        f.payload = item.pkt;
        f.wire_bytes = item.pkt->wire_bytes + kDataHeaderBytes;
        ++stats_.data_sent;
        start_frame(std::move(f), Phase::kTxData);
        return;
    }

    if (params_.use_rtscts) {
        Frame f;
        f.type = Frame::Type::kRts;
        f.src = addr_;
        f.dst = item.dst;
        f.nav = rts_nav(item.pkt);
        f.wire_bytes = kRtsBytes;
        ++stats_.rts_sent;
        start_frame(std::move(f), Phase::kTxRts);
    } else {
        Frame f;
        f.type = Frame::Type::kData;
        f.src = addr_;
        f.dst = item.dst;
        f.nav = kSifs + phy.airtime(kAckBytes);
        f.seq = item.seq;
        f.retry = item.retries > 0;
        f.payload = item.pkt;
        f.wire_bytes = item.pkt->wire_bytes + kDataHeaderBytes;
        ++stats_.data_sent;
        start_frame(std::move(f), Phase::kTxData);
    }
}

void Mac80211::start_frame(Frame frame, Phase phase) {
    phase_ = phase;
    in_flight_ = frame;
    const SimTime air = radio_.phy_params().airtime(frame.wire_bytes);
    radio_.start_tx(frame);
    sim_.after(air, [this] { on_tx_end(); });
}

void Mac80211::on_tx_end() {
    const auto& phy = radio_.phy_params();
    switch (phase_) {
        case Phase::kTxRts:
            phase_ = Phase::kWaitCts;
            timeout_event_ = sim_.after(kSifs + phy.airtime(kCtsBytes) + kTimeoutSlack,
                                        [this] { on_timeout(); });
            break;
        case Phase::kTxData:
            if (in_flight_.dst == net::kBroadcastAddr) {
                finish_head(true);
            } else {
                phase_ = Phase::kWaitAck;
                timeout_event_ = sim_.after(kSifs + phy.airtime(kAckBytes) + kTimeoutSlack,
                                            [this] { on_timeout(); });
            }
            break;
        case Phase::kTxCts:
        case Phase::kTxAck:
            phase_ = Phase::kIdle;
            try_begin_access();
            break;
        default:
            break;  // stray completion after state change; ignore
    }
}

void Mac80211::on_timeout() {
    timeout_event_ = sim::kInvalidEvent;
    assert(phase_ == Phase::kWaitCts || phase_ == Phase::kWaitAck);
    phase_ = Phase::kIdle;
    TxItem& item = queue_.front();
    ++item.retries;
    ++stats_.retries;
    if (item.retries > kRetryLimit) {
        ++stats_.unicast_drop_retry;
        GEOANON_TRACE(sim_, .type = obs::EventType::kMacDrop,
                      .cause = obs::DropCause::kMacRetry, .node = trace_node_,
                      .uid = item.pkt ? item.pkt->uid : 0, .seq = item.seq);
        finish_head(false);
        return;
    }
    cw_ = std::min(cw_ * 2 + 1, kCwMax);
    backoff_slots_ = -1;  // redraw from the doubled window
    try_begin_access();
}

void Mac80211::finish_head(bool success) {
    TxItem item = std::move(queue_.front());
    queue_.pop_front();
    if (success && item.dst != net::kBroadcastAddr) ++stats_.unicast_delivered;
    cw_ = kCwMin;
    backoff_slots_ = -1;
    phase_ = Phase::kIdle;
    if (tx_done_handler_) tx_done_handler_(item.pkt, item.dst, success);
    try_begin_access();
}

void Mac80211::respond_after_sifs(Frame frame, Phase phase) {
    phase_ = phase;  // blocks our own access until the response is out
    sim_.after(kSifs, [this, frame = std::move(frame), phase] {
        if (phase_ != phase) return;  // state changed under us; abort response
        if (radio_.transmitting()) {  // should not happen; stay safe
            phase_ = Phase::kIdle;
            try_begin_access();
            return;
        }
        if (frame.type == Frame::Type::kCts) ++stats_.cts_sent;
        if (frame.type == Frame::Type::kAck) ++stats_.ack_sent;
        start_frame(frame, phase);
    });
}

void Mac80211::on_frame(const Frame& f) {
    if (!enabled_) return;  // crashed interface (the radio gates this too)
    const bool for_me = f.dst == addr_;
    const bool broadcast = f.dst == net::kBroadcastAddr;

    if (!for_me && !broadcast) {
        // Virtual carrier sensing from overheard frames.
        if (f.nav > SimTime::zero()) update_nav(sim_.now() + f.nav);
        return;
    }

    switch (f.type) {
        case Frame::Type::kRts: {
            if (!for_me) break;
            if (phase_ != Phase::kIdle || sim_.now() < nav_until_) break;
            Frame cts;
            cts.type = Frame::Type::kCts;
            cts.src = addr_;
            cts.dst = f.src;
            const SimTime cts_air = radio_.phy_params().airtime(kCtsBytes);
            cts.nav = f.nav > kSifs + cts_air ? f.nav - kSifs - cts_air
                                                     : SimTime::zero();
            cts.wire_bytes = kCtsBytes;
            respond_after_sifs(std::move(cts), Phase::kTxCts);
            break;
        }
        case Frame::Type::kCts: {
            if (!for_me || phase_ != Phase::kWaitCts) break;
            sim_.cancel(timeout_event_);
            timeout_event_ = sim::kInvalidEvent;
            // SIFS, then the DATA frame of the pending head item.
            phase_ = Phase::kTxData;  // reserve state through the SIFS gap
            sim_.after(kSifs, [this] {
                if (phase_ != Phase::kTxData || queue_.empty()) return;
                const TxItem& item = queue_.front();
                Frame data;
                data.type = Frame::Type::kData;
                data.src = addr_;
                data.dst = item.dst;
                data.nav = kSifs + radio_.phy_params().airtime(kAckBytes);
                data.seq = item.seq;
                data.retry = item.retries > 0;
                data.payload = item.pkt;
                data.wire_bytes = item.pkt->wire_bytes + kDataHeaderBytes;
                ++stats_.data_sent;
                start_frame(std::move(data), Phase::kTxData);
            });
            break;
        }
        case Frame::Type::kData: {
            // Deliver upstream, deduplicating MAC retransmissions.
            bool duplicate = false;
            if (!broadcast) {
                auto it = last_rx_seq_.find(f.src);
                duplicate = f.retry && it != last_rx_seq_.end() && it->second == f.seq;
                last_rx_seq_[f.src] = f.seq;
            }
            if (duplicate) {
                ++stats_.rx_duplicates;
            } else {
                ++stats_.rx_delivered;
                if (rx_handler_ && f.payload) rx_handler_(f.payload, f.src);
            }
            if (for_me) {
                if (phase_ != Phase::kIdle) break;  // cannot ACK mid-exchange
                Frame ack;
                ack.type = Frame::Type::kAck;
                ack.src = addr_;
                ack.dst = f.src;
                ack.wire_bytes = kAckBytes;
                respond_after_sifs(std::move(ack), Phase::kTxAck);
            }
            break;
        }
        case Frame::Type::kAck: {
            if (!for_me || phase_ != Phase::kWaitAck) break;
            sim_.cancel(timeout_event_);
            timeout_event_ = sim::kInvalidEvent;
            finish_head(true);
            break;
        }
    }
}

void Mac80211::publish_metrics(obs::MetricsRegistry& reg) const {
    reg.add("mac.unicast_accepted", stats_.unicast_accepted);
    reg.add("mac.broadcast_accepted", stats_.broadcast_accepted);
    reg.add("mac.unicast_delivered", stats_.unicast_delivered);
    reg.add("mac.unicast_drop_retry", stats_.unicast_drop_retry);
    reg.add("mac.drop_queue_full", stats_.drop_queue_full);
    reg.add("mac.rts_sent", stats_.rts_sent);
    reg.add("mac.cts_sent", stats_.cts_sent);
    reg.add("mac.data_sent", stats_.data_sent);
    reg.add("mac.ack_sent", stats_.ack_sent);
    reg.add("mac.retries", stats_.retries);
    reg.add("mac.rx_delivered", stats_.rx_delivered);
    reg.add("mac.rx_duplicates", stats_.rx_duplicates);
}

}  // namespace geoanon::mac
