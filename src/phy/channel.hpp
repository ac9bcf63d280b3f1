#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mobility/mobility.hpp"
#include "net/packet.hpp"
#include "net/types.hpp"
#include "obs/counters.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"
#include "util/vec2.hpp"

namespace geoanon::phy {

using util::SimTime;
using util::Vec2;

/// 2 Mb/s WaveLAN bit rate and 192 us PLCP preamble+header: the ns-2 CMU
/// defaults the paper inherited.
inline constexpr double kBitrateBps = 2e6;
inline constexpr SimTime kPlcpOverhead = SimTime::micros(192);

/// Radio/channel parameters. Defaults follow the paper's setup (250 m nominal
/// range) and the ns-2 CMU defaults it inherited (550 m
/// carrier-sense/interference range).
struct PhyParams {
    double range_m{250.0};
    double cs_range_m{550.0};

    /// Spatial-index tuning. Radios are re-bucketed from the positions in
    /// their channel rows at transmission time, at most once per
    /// grid_rebucket_interval; the grid cell size is cs_range_m plus the
    /// farthest a radio can drift between sweeps (grid_max_speed_mps *
    /// interval), so the 9-cell neighborhood query stays exact for any
    /// mobility at or below the speed hint.
    SimTime grid_rebucket_interval{SimTime::millis(250)};
    double grid_max_speed_mps{50.0};

    /// Time on air for a link-layer frame of `bytes` bytes.
    SimTime airtime(std::size_t bytes) const {
        const double tx_s = static_cast<double>(bytes) * 8.0 / kBitrateBps;
        return kPlcpOverhead + SimTime::seconds(tx_s);
    }
};

/// Link-layer frame envelope as it travels on the air.
struct Frame {
    enum class Type : std::uint8_t { kRts, kCts, kData, kAck };
    Type type{Type::kData};
    net::MacAddr src{net::kBroadcastAddr};
    net::MacAddr dst{net::kBroadcastAddr};
    /// NAV reservation: medium reserved for this long after the frame ends
    /// (virtual carrier sensing; 0 for broadcast frames).
    SimTime nav{};
    std::uint32_t seq{0};
    bool retry{false};
    net::PacketPtr payload;        ///< network packet (kData only)
    std::uint32_t wire_bytes{0};   ///< full MAC frame size on the air
};

class Channel;

/// One node's radio: half-duplex, unit-disk reception, with carrier sensing.
/// The MAC drives it via start_tx() and receives busy/idle/rx callbacks.
///
/// Hot per-radio state (motion leg, up/down, grid cell, carrier-sense count,
/// quiet flag) lives in the channel's row keyed by this radio's registration
/// index; the Radio object itself holds the MAC-facing callbacks, the
/// receptions in progress and the counters. A radio is quiet while it has no
/// reception in progress and neither edge would run a hook (edges unwanted,
/// or no on_busy/on_idle installed). A transmission that cannot be decoded
/// at a quiet radio only counts up and down on its row and never touches
/// the Radio object.
class Radio {
  public:
#define GEOANON_RADIO_COUNTERS(X)                                                       \
    X(frames_sent, "phy.frames_sent")                                                   \
    X(frames_delivered, "phy.frames_delivered") /* received intact */                   \
    X(frames_corrupted, "phy.frames_corrupted") /* lost to collision at this radio */   \
    X(frames_missed_down, "phy.frames_missed_down") /* intact but radio was disabled */
    struct Stats {
        GEOANON_COUNTERS(GEOANON_RADIO_COUNTERS)
    };

    /// Positions are evaluated from the motion leg of `model` cached in the
    /// channel's row — the values position_at() would give, with no virtual
    /// call on the per-frame path. The model must outlive the radio.
    Radio(sim::Simulator& sim, Channel& channel, mobility::MobilityModel& model);
    Radio(const Radio&) = delete;
    Radio& operator=(const Radio&) = delete;

    /// MAC hookup. on_busy fires on the 0->1 energy transition, on_idle on
    /// the 1->0 transition, on_rx with every intact decodable frame. The
    /// busy/idle edges go only to a radio whose MAC wants them (see
    /// set_wants_edges; on by default); on_rx always fires.
    void set_mac_hooks(std::function<void()> on_busy, std::function<void()> on_idle,
                       std::function<void(const Frame&)> on_rx);

    /// Whether on_busy/on_idle fire. A MAC with nothing queued has no
    /// access event armed, so both edges would be no-ops there; it turns
    /// them off while its queue is empty and reads energy_busy() when it
    /// next enqueues. Energy counting, corruption and on_rx are unaffected.
    void set_wants_edges(bool wants) {
        wants_edges_ = wants;
        refresh_quiet();
    }

    /// Begin transmitting; the channel computes reception at all radios in
    /// range. Must not be called while already transmitting.
    void start_tx(const Frame& frame);

    bool transmitting() const { return transmitting_; }
    /// Physical carrier sense: any energy (including own transmission).
    bool energy_busy() const;

    /// Fault injection: a disabled radio decodes nothing (intact frames are
    /// counted as frames_missed_down instead of delivered). Energy
    /// bookkeeping continues so channel end-events and carrier-sense state
    /// stay consistent across a crash/recover cycle. The flag lives in the
    /// channel's row.
    void set_enabled(bool enabled);
    bool enabled() const;

    Vec2 position() const;
    Vec2 velocity() const;
    const Stats& stats() const { return stats_; }
    /// Channel parameters (airtimes, ranges) for the MAC above.
    const PhyParams& phy_params() const;

    /// Node id used for trace attribution only (frame src/dst are broadcast
    /// in anonymous mode, so the radio can't learn it from traffic).
    void set_trace_node(net::NodeId id) { trace_node_ = id; }
    net::NodeId trace_node() const { return trace_node_; }

  private:
    friend class Channel;

    void energy_start(std::uint64_t tx_id, bool decodable, const Frame& frame);
    void energy_end(std::uint64_t tx_id);
    void begin_own_tx();
    void end_own_tx();
    /// Energy count on this radio's row in the channel.
    std::int32_t& energy_count();
    /// Recompute the quiet flag on this radio's row. Called on every
    /// change to the edge wish, the hooks or the reception set.
    void refresh_quiet();

    /// A reception in progress. The frame is the channel's per-transmission
    /// copy (TxSlot::frame), shared by every receiver and alive until the
    /// transmission's end event has run energy_end everywhere.
    struct Reception {
        std::uint64_t tx_id{0};
        const Frame* frame{nullptr};
        bool corrupted{false};
    };

    sim::Simulator& sim_;
    Channel& channel_;
    std::uint32_t index_{0};  ///< row in the channel (== registration order)
    std::function<void()> on_busy_;
    std::function<void()> on_idle_;
    std::function<void(const Frame&)> on_rx_;

    bool transmitting_{false};
    bool wants_edges_{true};
    net::NodeId trace_node_{net::kInvalidNode};
    /// Concurrent receptions. Insertion-ordered (a plain vector, typically
    /// 0-3 entries) so corruption sweeps traverse in the same order on every
    /// standard library, keeping runs reproducible across platforms, not
    /// just within one.
    std::vector<Reception> receptions_;
    Stats stats_;
};

/// The shared wireless medium. A frame transmitted by radio S is decodable at
/// every radio within range_m of S (positions sampled at transmission start)
/// unless any other energy — another transmission within cs_range_m, or the
/// receiver's own transmission — overlaps its airtime, in which case all
/// overlapping receptions at that radio are corrupted. Hidden terminals
/// emerge naturally from this rule.
///
/// Every radio within cs_range_m of the sender counts the frame's energy;
/// on_busy/on_idle reach only the radios whose MAC asked for edges
/// (Radio::set_wants_edges), on_rx every radio that decodes the frame.
///
/// Reception membership is resolved through a spatial hash grid (cell size
/// cs_range_m plus a mobility slack): a transmission only inspects radios
/// bucketed in the 9 cells around the sender, and radios re-bucket lazily
/// from their rows at transmission time. The grid is an index, not a model
/// change: each bucket is kept in registration order, filtered by the exact
/// cs_range_m distance test on the rows' positions, and the filtered runs
/// are merged, so the radios in range are visited in registration order and
/// the event stream does not depend on the cell size. With
/// grid_max_speed_mps = +inf every radio shares one cell and each
/// transmission visits all radios in registration order;
/// tests/reference/single_cell.hpp uses that as the reference the grid is
/// checked against.
///
/// Each radio's hot state is one Row here, with its carrier-sense count and
/// the quiet flag the Radio keeps current (see Radio). A frame a quiet radio
/// cannot decode is counted on the row alone; every other radio in range
/// gets Radio::energy_start/energy_end. The end of airtime reads the flag
/// at each radio's turn, since an on_rx earlier in the same loop may have
/// started a transmission that changed it.
class Channel {
  public:
#define GEOANON_CHANNEL_COUNTERS(X)                                                \
    X(transmissions, "phy.transmissions")                                          \
    X(deliveries, "phy.deliveries")                                                \
    X(collisions, "phy.collisions") /* corrupted receptions, all radios */         \
    X(impaired, "phy.impaired") /* in-range receptions killed by the drop model */
    struct Stats {
        GEOANON_COUNTERS(GEOANON_CHANNEL_COUNTERS)
    };

    Channel(sim::Simulator& sim, PhyParams params);

    const PhyParams& params() const { return params_; }
    const Stats& stats() const { return stats_; }
    sim::Simulator& simulator() { return sim_; }

    /// Passive global eavesdropper tap: observes every transmission with the
    /// transmitter's true position (a sniffer near the sender learns as
    /// much). Used by the privacy experiments (§4). Taps are dispatched in
    /// registration order, so the eavesdropper, the invariant checker and
    /// the trace recorder observe the same run side by side with a stable
    /// callback order (the order events land in the trace depends on it).
    using SnoopFn = std::function<void(const Frame&, const Vec2& tx_pos)>;
    void add_snoop(SnoopFn snoop) { taps_.push_back(std::move(snoop)); }

    /// Audited variant of the snoop tap: additionally reveals the
    /// transmitting node's true id (Radio::trace_node()). This is
    /// ground-truth attribution for *scoring* adversary output — the frame
    /// itself carries no identity in anonymous mode, and attack passes must
    /// never consume the third argument (GL010 guards the consumers). Audit
    /// taps are dispatched after every regular tap, in registration order.
    using AuditSnoopFn =
        std::function<void(const Frame&, const Vec2& tx_pos, net::NodeId true_sender)>;
    void add_audit_snoop(AuditSnoopFn snoop) { audit_taps_.push_back(std::move(snoop)); }

    /// Drop every tap, regular and audit, in one call (test teardown,
    /// scenario reset).
    void clear_snoops() {
        taps_.clear();
        audit_taps_.clear();
    }

    /// Receiver-side impairment model (fault injection): return true to make
    /// the frame undecodable at a receiver located at rx_pos. The frame's
    /// energy still occupies the medium there, so carrier sensing, NAV and
    /// collision physics are unaffected — only decoding fails.
    using DropFn = std::function<bool(const Frame&, const Vec2& tx_pos, const Vec2& rx_pos)>;
    void set_drop_model(DropFn drop) { drop_ = std::move(drop); }

  private:
    friend class Radio;

    static constexpr std::uint32_t kNilSlot = 0xffffffffu;

    /// Grid cell coordinates (floor of position / cell size; signed so
    /// positions slightly outside the area still bucket correctly).
    struct Cell {
        std::int32_t x{0};
        std::int32_t y{0};
        bool operator==(const Cell&) const = default;
    };

    /// Pooled per-transmission state: the frame every reception refers to
    /// and the reception set. The end-of-airtime event captures a slot index
    /// instead of a freshly-allocated vector, so steady-state transmissions
    /// do zero heap allocations (the vectors keep their capacity across
    /// reuse).
    struct TxSlot {
        Frame frame;
        std::vector<std::uint32_t> affected;  ///< rows in range, registration order
        std::uint32_t next_free{kNilSlot};
    };

    /// One radio's hot state. Rows are append-only and indexed by
    /// registration order, the order of every bucket and of each
    /// transmission's visits. The grid filter, the rebucket sweep, delivery
    /// and the end of airtime all read the one row per radio.
    struct Row {
        Radio* radio{nullptr};
        mobility::MobilityModel* model{nullptr};  ///< outlives the radio
        mobility::MotionSample leg{};  ///< cached; the default is stale for every t
        Cell cell{};                   ///< grid cell, valid while `bucketed`
        std::int32_t energy{0};        ///< frames on the air here, its own included
        bool up{true};                 ///< false while fault injection has it down
        bool bucketed{false};
        bool quiet{true};  ///< mirrors Radio::refresh_quiet
    };

    /// A radio within cs_range_m of the sender and its distance to it.
    struct InRange {
        std::uint32_t idx{0};
        double d{0.0};
    };

    std::uint32_t register_radio(Radio* radio, mobility::MobilityModel* model);
    /// True position of row `idx` at `t`, from its cached leg: the value
    /// the row's model gives at `t`, bit for bit.
    Vec2 position(std::uint32_t idx, SimTime t);
    void start_tx(Radio* sender, const Frame& frame);
    void note_delivery() { ++stats_.deliveries; }
    void note_collision() { ++stats_.collisions; }

    Cell cell_of(const Vec2& p) const;
    static std::uint64_t cell_key(Cell c);
    /// Re-bucket every radio from its row if the last sweep is older than
    /// grid_rebucket_interval (no-op otherwise). Called at tx time only, so
    /// it schedules nothing and leaves the event stream untouched.
    void rebucket_if_stale();
    void deliver_from(TxSlot& tx, const Vec2& sender_pos, std::uint64_t tx_id, InRange rx,
                      SimTime now);
    /// Every radio but `sender` within cs_range_m of `sender_pos`, in
    /// ascending registration index: each bucket of the 9 cells around the
    /// sender's cell is filtered into its own sorted run, then the runs are
    /// merged. The span points into per-tx scratch, valid until the next
    /// call.
    std::span<const InRange> gather_in_range(std::uint32_t sender, const Vec2& sender_pos,
                                             SimTime now);
    std::uint32_t acquire_tx_slot();
    std::uint32_t grow_tx_slots();
    void release_tx_slot(std::uint32_t slot);

    sim::Simulator& sim_;
    PhyParams params_;
    std::vector<Row> rows_;
    Stats stats_;
    std::uint64_t next_tx_id_{1};
    std::vector<SnoopFn> taps_;
    std::vector<AuditSnoopFn> audit_taps_;
    DropFn drop_;
    /// A deque, so a slot (and the frame receptions point at) stays put
    /// when a nested transmission started from on_rx grows the pool.
    std::deque<TxSlot> tx_slots_;
    std::uint32_t tx_free_{kNilSlot};

    // Spatial hash grid ---------------------------------------------------
    double cell_m_{1.0};
    /// Radio indices per cell, each bucket sorted ascending.
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
    /// False until the first sweep, and again after every registration, so
    /// a newly registered radio is bucketed by the next transmission.
    bool swept_once_{false};
    SimTime last_sweep_{};
    std::vector<InRange> runs_;       ///< per-tx filtered runs, back to back
    std::vector<InRange> merged_;     ///< per-tx merge scratch
    std::vector<InRange> merge_buf_;  ///< per-tx merge scratch
};

inline std::int32_t& Radio::energy_count() { return channel_.rows_[index_].energy; }

inline bool Radio::energy_busy() const { return channel_.rows_[index_].energy > 0; }

inline void Radio::refresh_quiet() {
    const bool edges_act = wants_edges_ && (on_busy_ || on_idle_);
    channel_.rows_[index_].quiet = receptions_.empty() && !edges_act;
}

}  // namespace geoanon::phy
