#pragma once

#include <cstdint>
#include <vector>

#include "net/types.hpp"
#include "util/thread_annotations.hpp"
#include "util/time.hpp"

namespace geoanon::obs {

using util::SimTime;

/// Typed event taxonomy — one enumerator per observable protocol action.
/// Layer prefixes: App (workload), Mac (interface queue), Phy (air), Net
/// (routing custody), plus AGFW/ANT/ALS/fault specifics. See DESIGN.md §11.
enum class EventType : std::uint8_t {
    kAppSend,          ///< packet originated at the application layer
    kMacEnqueue,       ///< accepted into the interface queue
    kMacDrop,          ///< interface drop (queue full / retry limit / crash)
    kPhyTx,            ///< frame on the air (detail = frame type)
    kPhyRx,            ///< frame decoded intact at a radio
    kPhyDrop,          ///< in-range reception lost (collision / impaired / down)
    kNetForward,       ///< custody committed to a next hop (detail = pseudonym/MAC)
    kNetRetransmit,    ///< NL-ACK timeout rebroadcast of the same copy
    kLastAttempt,      ///< AGFW last forwarding attempt broadcast (n = 0)
    kNetStuck,         ///< committed relay found no next hop (prev hop reroutes)
    kNetDrop,          ///< packet abandoned (cause says why)
    kNetDeliver,       ///< delivered to the application at this node
    kTrapdoorAttempt,  ///< in the last-hop region: trying to open the trapdoor
    kTrapdoorOpen,     ///< trapdoor opened — this node is the destination
    kAckSent,          ///< NL-ACK transmitted covering this uid (detail = batch)
    kAckReceived,      ///< pending entry resolved (detail 1 = implicit)
    kHelloSent,        ///< ANT/GPSR hello beacon (detail = pseudonym or id)
    kPseudonymRotated, ///< new current pseudonym (detail = n)
    kLsQuery,          ///< location query sent (detail = query id)
    kLsReply,          ///< location reply served (detail = query id)
    kLsHandoff,        ///< replica left server radius, handed rows off (detail = grid)
    kLsReadRepair,     ///< served row re-replicated to in-grid peers (detail = query id)
    kFaultFired,       ///< fault injector action (detail = FaultKind)
};

/// Why a packet (or reception) died. kNone for non-drop events. The three
/// derived causes are assigned by the flight reconstructor, not recorded:
/// they describe flights that end without an explicit drop event.
enum class DropCause : std::uint8_t {
    kNone,
    kNoRoute,       ///< greedy local maximum, no perimeter exit
    kUnreachable,   ///< NL-ACK retries + reroutes exhausted
    kNoLocation,    ///< location service could not resolve the destination
    kMacRetry,      ///< unicast MAC retry limit (GPSR reroutes exhausted)
    kQueueFull,     ///< interface queue drop-tail
    kCollision,     ///< reception corrupted by overlapping energy
    kImpaired,      ///< drop model (loss burst / jamming) killed the decode
    kNodeDown,      ///< frame reached a crashed radio / flushed dead queue
    // Derived by FlightIndex for flights with no terminal event:
    kLastAttemptUnanswered,  ///< final broadcast, no trapdoor opened it
    kNextHopSilent,          ///< committed copy sent; nobody took custody
    kRelayStuck,             ///< last custody holder reported kNetStuck
};

/// Detail codes carried by EventType::kFaultFired.
enum class FaultKind : std::uint64_t {
    kCrash = 1,
    kRecover = 2,
    kAlsOutage = 3,
    kLossBurst = 4,
    kJam = 5,
    kGpsNoise = 6,
    kPartition = 7,
    kServerFlap = 8,
};

/// Every enumerator, for exhaustive iteration (name round-trips, schema
/// validation, docs generation).
inline constexpr EventType kAllEventTypes[] = {
    EventType::kAppSend,         EventType::kMacEnqueue,
    EventType::kMacDrop,         EventType::kPhyTx,
    EventType::kPhyRx,           EventType::kPhyDrop,
    EventType::kNetForward,      EventType::kNetRetransmit,
    EventType::kLastAttempt,     EventType::kNetStuck,
    EventType::kNetDrop,         EventType::kNetDeliver,
    EventType::kTrapdoorAttempt, EventType::kTrapdoorOpen,
    EventType::kAckSent,         EventType::kAckReceived,
    EventType::kHelloSent,       EventType::kPseudonymRotated,
    EventType::kLsQuery,         EventType::kLsReply,
    EventType::kLsHandoff,       EventType::kLsReadRepair,
    EventType::kFaultFired,
};
inline constexpr DropCause kAllDropCauses[] = {
    DropCause::kNone,          DropCause::kNoRoute,
    DropCause::kUnreachable,   DropCause::kNoLocation,
    DropCause::kMacRetry,      DropCause::kQueueFull,
    DropCause::kCollision,     DropCause::kImpaired,
    DropCause::kNodeDown,      DropCause::kLastAttemptUnanswered,
    DropCause::kNextHopSilent, DropCause::kRelayStuck,
};

const char* event_type_name(EventType t);
const char* drop_cause_name(DropCause c);
/// Inverse lookups for trace decoding; return false on unknown names.
bool event_type_from_name(const char* name, EventType& out);
bool drop_cause_from_name(const char* name, DropCause& out);

/// One recorded event. Field order matters: recording sites use designated
/// initializers over the prefix (type .. detail); t and id are assigned by
/// the recorder. uid 0 means "no packet attached" (e.g. hellos, faults).
struct Event {
    EventType type{EventType::kAppSend};
    DropCause cause{DropCause::kNone};
    net::NodeId node{net::kInvalidNode};
    std::uint64_t uid{0};
    net::FlowId flow{0};
    std::uint32_t seq{0};
    std::uint32_t bytes{0};
    /// Type-specific payload: pseudonym / MAC addr / frame type / query id /
    /// FaultKind. Exported as a hex string (pseudonyms exceed 2^53).
    std::uint64_t detail{0};

    SimTime t{};          ///< assigned at record time
    std::uint64_t id{0};  ///< global monotonic id; 0 = never recorded
};

struct TraceParams {
    /// ScenarioRunner builds a recorder only when this is set.
    bool enabled{false};
    /// Ring capacity per shard (shard = node + 1; shard 0 holds events with
    /// no node attribution). Oldest events in a shard are evicted first.
    std::size_t shard_capacity{1 << 14};
};

/// Bounded, per-node-sharded ring buffer of Events.
///
/// Each simulator is single-threaded, so one global monotonic id gives a
/// total order over all events of a run; sorting the shard union by id
/// reconstructs exact record order. Ids are deterministic for a fixed
/// (config, seed) — the export built on them is byte-stable.
///
/// The shard state sits behind mu_ (clang -Wthread-safety checked) because
/// SweepRunner runs scenarios on worker threads: each worker owns its run's
/// recorder, and the lock keeps a recorder safe to read from a thread other
/// than the one that filled it.
class TraceRecorder {
  public:
    explicit TraceRecorder(TraceParams params = {});

    /// Append one event. Called through GEOANON_TRACE.
    void record(SimTime now, Event e);

    std::uint64_t recorded() const {
        const util::MutexLock lock(mu_);
        return next_id_ - 1;
    }
    std::uint64_t evicted() const {
        const util::MutexLock lock(mu_);
        return evicted_;
    }
    const TraceParams& params() const { return params_; }

    /// All retained events, sorted by id (record order). O(n log n).
    std::vector<Event> events() const;

  private:
    struct Shard {
        std::vector<Event> ring;
        std::size_t head{0};  ///< next eviction slot once the ring is full
    };

    TraceParams params_;
    mutable util::Mutex mu_;
    std::uint64_t next_id_ GEOANON_GUARDED_BY(mu_){1};
    std::uint64_t evicted_ GEOANON_GUARDED_BY(mu_){0};
    /// index: node + 1 (0 = unattributed)
    std::vector<Shard> shards_ GEOANON_GUARDED_BY(mu_);
};

}  // namespace geoanon::obs

/// Record an event through a Simulator reference. Compiles to one pointer
/// load and branch when tracing is off: the Event is only constructed (and
/// the arguments only evaluated) after the trace pointer tests non-null.
/// Usage:
///   GEOANON_TRACE(sim, .type = obs::EventType::kAppSend, .node = id,
///                 .uid = pkt->uid, .flow = pkt->flow, .seq = pkt->seq);
#define GEOANON_TRACE(sim, ...)                                                \
    do {                                                                       \
        if (::geoanon::obs::TraceRecorder* gtr_ = (sim).trace())               \
            gtr_->record((sim).now(), ::geoanon::obs::Event{__VA_ARGS__});     \
    } while (0)
