#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mobility/mobility.hpp"
#include "net/packet.hpp"
#include "net/types.hpp"
#include "phy/engine_state.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"
#include "util/vec2.hpp"

namespace geoanon::obs {
class MetricsRegistry;
}

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

    /// Spatial-index tuning. Radios are re-bucketed from their EngineState
    /// position rows at transmission time, at most once per
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
/// Hot per-radio state (position, up/down, grid cell) lives in the channel's
/// EngineState row keyed by this radio's registration index; the Radio object
/// itself holds only the MAC-facing callbacks and counters.
class Radio {
  public:
    struct Stats {
        std::uint64_t frames_sent{0};
        std::uint64_t frames_delivered{0};   ///< received intact
        std::uint64_t frames_corrupted{0};   ///< lost to collision at this radio
        std::uint64_t frames_missed_down{0}; ///< intact but radio was disabled
    };

    /// Positions are evaluated from the EngineState's cached motion legs of
    /// `model` — the values position_at() would give, with no virtual call
    /// on the per-frame path. The model must outlive the radio.
    Radio(sim::Simulator& sim, Channel& channel, mobility::MobilityModel& model);
    Radio(const Radio&) = delete;
    Radio& operator=(const Radio&) = delete;

    /// MAC hookup. on_busy fires on the 0->1 energy transition, on_idle on
    /// the 1->0 transition, on_rx with every intact decodable frame.
    void set_mac_hooks(std::function<void()> on_busy, std::function<void()> on_idle,
                       std::function<void(const Frame&)> on_rx);

    /// Begin transmitting; the channel computes reception at all radios in
    /// range. Must not be called while already transmitting.
    void start_tx(const Frame& frame);

    bool transmitting() const { return transmitting_; }
    /// Physical carrier sense: any energy (including own transmission).
    bool energy_busy() const { return energy_count_ > 0; }

    /// Fault injection: a disabled radio decodes nothing (intact frames are
    /// counted as frames_missed_down instead of delivered). Energy
    /// bookkeeping continues so channel end-events and carrier-sense state
    /// stay consistent across a crash/recover cycle. The flag lives in the
    /// EngineState up/down row.
    void set_enabled(bool enabled);
    bool enabled() const;

    Vec2 position() const;
    Vec2 velocity() const;
    /// This radio's EngineState row (== its registration order).
    EngineState::Index index() const { return index_; }
    const Stats& stats() const { return stats_; }
    /// Channel parameters (airtimes, ranges) for the MAC above.
    const PhyParams& phy_params() const;

    /// Node id used for trace attribution only (frame src/dst are broadcast
    /// in anonymous mode, so the radio can't learn it from traffic).
    void set_trace_node(net::NodeId id) { trace_node_ = id; }
    net::NodeId trace_node() const { return trace_node_; }

    /// Fold this radio's counters into the run metrics (phy.frames_*).
    void publish_metrics(obs::MetricsRegistry& reg) const;

  private:
    friend class Channel;

    void energy_start(std::uint64_t tx_id, bool decodable, const Frame& frame);
    void energy_end(std::uint64_t tx_id);
    void begin_own_tx();
    void end_own_tx();

    struct Reception {
        Frame frame;
        bool corrupted{false};
    };

    sim::Simulator& sim_;
    Channel& channel_;
    EngineState::Index index_{0};
    std::function<void()> on_busy_;
    std::function<void()> on_idle_;
    std::function<void(const Frame&)> on_rx_;

    int energy_count_{0};
    bool transmitting_{false};
    net::NodeId trace_node_{net::kInvalidNode};
    /// Concurrent receptions, keyed by tx id. Insertion-ordered (a plain
    /// vector, typically 0-3 entries) so corruption sweeps traverse in the
    /// same order on every standard library, keeping runs reproducible
    /// across platforms, not just within one.
    std::vector<std::pair<std::uint64_t, Reception>> receptions_;
    Stats stats_;
};

/// The shared wireless medium. A frame transmitted by radio S is decodable at
/// every radio within range_m of S (positions sampled at transmission start)
/// unless any other energy — another transmission within cs_range_m, or the
/// receiver's own transmission — overlaps its airtime, in which case all
/// overlapping receptions at that radio are corrupted. Hidden terminals
/// emerge naturally from this rule.
///
/// Reception membership is resolved through a spatial hash grid (cell size
/// cs_range_m plus a mobility slack): a transmission only inspects radios
/// bucketed in the 9 cells around the sender, and radios re-bucket lazily
/// from their EngineState rows at transmission time. The grid is an index,
/// not a model change: candidate radios are visited in registration order
/// and filtered by the exact distance test, so the event stream does not
/// depend on the cell size. With grid_max_speed_mps = +inf every radio
/// shares one cell and each transmission visits all radios in registration
/// order; tests/reference/single_cell.hpp uses that as the reference the
/// grid is checked against.
class Channel {
  public:
    struct Stats {
        std::uint64_t transmissions{0};
        std::uint64_t deliveries{0};
        std::uint64_t collisions{0};  ///< corrupted receptions, all radios
        std::uint64_t impaired{0};    ///< in-range receptions killed by the drop model
    };

    Channel(sim::Simulator& sim, PhyParams params);

    const PhyParams& params() const { return params_; }
    const Stats& stats() const { return stats_; }
    sim::Simulator& simulator() { return sim_; }
    /// The SoA hot-state tables (positions, up/down, grid cells) for every
    /// radio registered on this channel, indexed by Radio::index().
    EngineState& state() { return state_; }

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

    /// Fold channel-wide counters into the run metrics (phy.transmissions,
    /// phy.deliveries, phy.collisions, phy.impaired).
    void publish_metrics(obs::MetricsRegistry& reg) const;

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

    /// Pooled per-transmission reception set: the end-of-airtime event
    /// captures a slot index instead of a freshly-allocated vector, so
    /// steady-state transmissions do zero heap allocations (the vectors keep
    /// their capacity across reuse).
    struct TxSlot {
        std::vector<Radio*> affected;
        std::uint32_t next_free{kNilSlot};
    };

    EngineState::Index register_radio(Radio* radio, mobility::MobilityModel* model);
    void start_tx(Radio* sender, const Frame& frame);
    void note_delivery() { ++stats_.deliveries; }
    void note_collision() { ++stats_.collisions; }

    Cell cell_of(const Vec2& p) const;
    static std::uint64_t cell_key(Cell c);
    /// Re-bucket every radio from its EngineState row if the last sweep is
    /// older than grid_rebucket_interval (no-op otherwise). Called at tx time
    /// only, so it schedules nothing and leaves the event stream untouched.
    void rebucket_if_stale();
    void deliver_from(Radio* sender, const Frame& frame, const Vec2& sender_pos,
                      std::uint64_t tx_id, Radio* receiver, const Vec2& rx_pos,
                      std::uint32_t slot);
    std::uint32_t acquire_tx_slot();
    std::uint32_t grow_tx_slots();
    void release_tx_slot(std::uint32_t slot);

    sim::Simulator& sim_;
    PhyParams params_;
    EngineState state_;
    std::vector<Radio*> radios_;
    Stats stats_;
    std::uint64_t next_tx_id_{1};
    std::vector<SnoopFn> taps_;
    std::vector<AuditSnoopFn> audit_taps_;
    DropFn drop_;
    std::vector<TxSlot> tx_slots_;
    std::uint32_t tx_free_{kNilSlot};

    // Spatial hash grid ---------------------------------------------------
    double cell_m_{1.0};
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
    /// False until the first sweep, and again after every registration, so
    /// a newly registered radio is bucketed by the next transmission.
    bool swept_once_{false};
    SimTime last_sweep_{};
    std::vector<std::uint32_t> candidates_;   ///< per-tx scratch
};

}  // namespace geoanon::phy
