#pragma once

#include <cstdint>
#include <vector>

#include "net/types.hpp"
#include "util/thread_annotations.hpp"
#include "util/time.hpp"

namespace geoanon::obs {

using util::SimTime;

/// Typed event taxonomy — one enumerator per observable protocol action,
/// listed once as X(enumerator, "trace name"); the list generates the enum,
/// kAllEventTypes and event_type_name(). Layer prefixes: App (workload), Mac
/// (interface queue), Phy (air), Net (routing custody), plus AGFW/ANT/ALS/fault
/// specifics. See DESIGN.md §11.
#define GEOANON_EVENT_TYPES(X)                                                                   \
    X(kAppSend, "app_send") /* packet originated at the application layer */                     \
    X(kMacEnqueue, "mac_enqueue") /* accepted into the interface queue */                        \
    X(kMacDrop, "mac_drop") /* interface drop (queue full / retry limit / crash) */              \
    X(kPhyTx, "phy_tx") /* frame on the air (detail = frame type) */                             \
    X(kPhyRx, "phy_rx") /* frame decoded intact at a radio */                                    \
    X(kPhyDrop, "phy_drop") /* in-range reception lost (collision / impaired / down) */          \
    X(kNetForward, "net_forward") /* custody committed to a next hop (detail = pseudonym/MAC) */ \
    X(kNetRetransmit, "net_retransmit") /* NL-ACK timeout rebroadcast of the same copy */        \
    X(kLastAttempt, "last_attempt") /* AGFW last forwarding attempt broadcast (n = 0) */         \
    X(kNetStuck, "net_stuck") /* committed relay found no next hop (prev hop reroutes) */        \
    X(kNetDrop, "net_drop") /* packet abandoned (cause says why) */                              \
    X(kNetDeliver, "net_deliver") /* delivered to the application at this node */                \
    /* in the last-hop region: trying to open the trapdoor */                                    \
    X(kTrapdoorAttempt, "trapdoor_attempt")                                                      \
    X(kTrapdoorOpen, "trapdoor_open") /* trapdoor opened — this node is the destination */       \
    X(kAckSent, "ack_sent") /* NL-ACK transmitted covering this uid (detail = batch) */          \
    X(kAckReceived, "ack_received") /* pending entry resolved (detail 1 = implicit) */           \
    X(kHelloSent, "hello_sent") /* ANT/GPSR hello beacon (detail = pseudonym or id) */           \
    X(kPseudonymRotated, "pseudonym_rotated") /* new current pseudonym (detail = n) */           \
    X(kLsQuery, "ls_query") /* location query sent (detail = query id) */                        \
    X(kLsReply, "ls_reply") /* location reply served (detail = query id) */                      \
    /* replica left server radius, handed rows off (detail = grid) */                            \
    X(kLsHandoff, "ls_handoff")                                                                  \
    /* served row re-replicated to in-grid peers (detail = query id) */                          \
    X(kLsReadRepair, "ls_read_repair")                                                           \
    X(kFaultFired, "fault_fired") /* fault injector action (detail = FaultKind) */

/// Why a packet (or reception) died, listed like GEOANON_EVENT_TYPES. kNone
/// for non-drop events. The three derived causes are assigned by the flight
/// reconstructor, not recorded: they describe flights that end without an
/// explicit drop event.
#define GEOANON_DROP_CAUSES(X)                                                                        \
    X(kNone, "none")                                                                                  \
    X(kNoRoute, "no_route") /* greedy local maximum, no perimeter exit */                             \
    X(kUnreachable, "unreachable") /* NL-ACK retries + reroutes exhausted */                          \
    X(kNoLocation, "no_location") /* location service could not resolve the destination */            \
    X(kMacRetry, "mac_retry") /* unicast MAC retry limit (GPSR reroutes exhausted) */                 \
    X(kQueueFull, "queue_full") /* interface queue drop-tail */                                       \
    X(kCollision, "collision") /* reception corrupted by overlapping energy */                        \
    X(kImpaired, "impaired") /* drop model (loss burst / jamming) killed the decode */                \
    X(kNodeDown, "node_down") /* frame reached a crashed radio / flushed dead queue */                \
    /* Derived by FlightIndex for flights with no terminal event: */                                  \
    X(kLastAttemptUnanswered, "last_attempt_unanswered") /* final broadcast, no trapdoor opened it */ \
    X(kNextHopSilent, "next_hop_silent") /* committed copy sent; nobody took custody */               \
    X(kRelayStuck, "relay_stuck") /* last custody holder reported kNetStuck */

#define GEOANON_ENUMERATOR(e, name) e,
enum class EventType : std::uint8_t { GEOANON_EVENT_TYPES(GEOANON_ENUMERATOR) };
enum class DropCause : std::uint8_t { GEOANON_DROP_CAUSES(GEOANON_ENUMERATOR) };
#undef GEOANON_ENUMERATOR

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
#define GEOANON_EVENT_TYPE_ENTRY(e, name) EventType::e,
inline constexpr EventType kAllEventTypes[] = {GEOANON_EVENT_TYPES(GEOANON_EVENT_TYPE_ENTRY)};
#undef GEOANON_EVENT_TYPE_ENTRY
#define GEOANON_DROP_CAUSE_ENTRY(e, name) DropCause::e,
inline constexpr DropCause kAllDropCauses[] = {GEOANON_DROP_CAUSES(GEOANON_DROP_CAUSE_ENTRY)};
#undef GEOANON_DROP_CAUSE_ENTRY

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
