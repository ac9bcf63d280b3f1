#include "routing/location_service.hpp"

#include "net/codec.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace geoanon::routing {

using util::Bytes;
using util::ByteReader;
using util::ByteWriter;

namespace {

// FNV-1a over store keys for anti-entropy digests. Anonymous rows hash the
// lowercase hex of the encrypted index E_{K_B}(A,B); plain keys are tagged
// subject ids (the subject is already cleartext on DLM updates, so hashing
// leaks nothing new).
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

std::uint64_t anon_key_hash(std::span<const std::uint8_t> index) {
    static constexpr char digits[] = "0123456789abcdef";
    std::uint64_t h = kFnvOffset;
    for (const std::uint8_t b : index) {
        const std::uint8_t hex[2] = {static_cast<std::uint8_t>(digits[b >> 4]),
                                     static_cast<std::uint8_t>(digits[b & 0xF])};
        h = fnv1a(h, hex, 2);
    }
    return h;
}

std::uint64_t plain_key_hash(net::NodeId subject) {
    const std::uint8_t tag = 0x01;  // domain separation from anonymous keys
    std::uint8_t b[4];
    b[0] = static_cast<std::uint8_t>(subject);
    b[1] = static_cast<std::uint8_t>(subject >> 8);
    b[2] = static_cast<std::uint8_t>(subject >> 16);
    b[3] = static_cast<std::uint8_t>(subject >> 24);
    return fnv1a(fnv1a(kFnvOffset, &tag, 1), b, 4);
}

// Digest rows travel sorted by key hash (send_digest), so a receiver
// binary-searches them in place (on_digest).
bool digest_by_hash(const net::Packet::LsDigestRow& x, const net::Packet::LsDigestRow& y) {
    return x.key_hash < y.key_hash;
}

// First update 3 s after start() (neighbor tables warm up), plus up to 2 s.
constexpr SimTime kFirstUpdateDelay = SimTime::seconds(3.0);
constexpr SimTime kUpdateJitter = SimTime::seconds(2.0);
// Query reissue backoff (util::RetryPolicy): the first retry waits 2 s,
// doubling per attempt up to 8 s, with 25% jitter drawn from the host RNG so
// requesters hitting the same dark grid do not retry in lockstep. Each
// degradation-ladder stage sends once and reissues once.
constexpr SimTime kQueryTimeout = SimTime::seconds(2.0);
constexpr SimTime kQueryBackoffCap = SimTime::seconds(8.0);
constexpr double kQueryJitter = 0.25;
constexpr int kQueryRetries = 1;
// Anti-entropy digest period of a serving replica.
constexpr SimTime kDigestInterval = SimTime::seconds(5.0);
// How long a resolved location is reused before resolve() queries again.
constexpr SimTime kResultCacheTtl = SimTime::seconds(8.0);

}  // namespace

LocationService::LocationService(Mode mode, GridMap grid, Params params, Hooks hooks)
    : mode_(mode), grid_(grid), params_(params), hooks_(std::move(hooks)) {
    assert(hooks_.sim && hooks_.rng && hooks_.route && hooks_.local_broadcast &&
           hooks_.my_position);
    assert((mode_ == Mode::kPlain || hooks_.engine) &&
           "anonymous modes need a crypto engine");
}

void LocationService::charge(SimTime cost, std::function<void()> done) {
    if (hooks_.charge)
        hooks_.charge(cost, std::move(done));
    else
        done();
}

Bytes LocationService::make_index(NodeId updater, NodeId requester) const {
    return hooks_.engine->als_index(updater, requester);
}

void LocationService::start() {
    const SimTime first =
        kFirstUpdateDelay + SimTime::nanos(hooks_.rng->uniform_int(0, kUpdateJitter.ns()));
    update_timer_.start(*hooks_.sim, params_.update_interval, first,
                        [this] { send_update(); });
    if (params_.replicate && params_.anti_entropy) {
        // Jittered first tick: co-located replicas must not gossip in phase.
        const SimTime dfirst =
            kDigestInterval + SimTime::nanos(hooks_.rng->uniform_int(0, kDigestInterval.ns() / 4));
        digest_timer_.start(*hooks_.sim, kDigestInterval, dfirst, [this] { digest_tick(); });
    }
    if (params_.sweep_interval > SimTime::zero()) {
        sweep_timer_.start(*hooks_.sim, params_.sweep_interval, params_.sweep_interval,
                           [this] { sweep_expired(); });
    }
}

void LocationService::reset() {
    store_.clear();
    serving_.clear();
    last_digest_.clear();
    resolved_qids_.clear();
    result_cache_.clear();
    stats_.pending_wiped += pending_.size();
    // geoanon-lint: allow(unordered-iter) -- cancel() only marks event ids; cancellation order cannot reach any output
    for (auto& [qid, q] : pending_) hooks_.sim->cancel(q.timeout);
    pending_.clear();
}

void LocationService::send_update() {
    if (hooks_.is_up && !hooks_.is_up()) return;
    const NodeId me = hooks_.my_id;
    const util::Vec2 my_loc = hooks_.my_position();
    const std::uint32_t home = grid_.home_grid(me);

    auto pkt = net::make_packet();
    pkt->type = net::PacketType::kLocUpdate;
    pkt->grid = home;
    pkt->dst_loc = grid_.center_of(home);
    pkt->created_at = hooks_.sim->now();
    pkt->uid = hooks_.rng->next_u64();

    if (mode_ == Mode::kPlain) {
        // geoanon-lint: allow(privacy-taint) -- plain DLM baseline: cleartext subject identity is the §3.3 exposure ALS exists to remove; the anonymous mode routes through make_index/encrypt_for instead
        pkt->ls_subject = me;
        // geoanon-lint: allow(privacy-taint) -- plain DLM baseline, see ls_subject above
        pkt->ls_subject_loc = my_loc;
        pkt->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*pkt));
        ++stats_.updates_sent;
        stats_.update_bytes += pkt->wire_bytes;
        hooks_.route(pkt);
        return;
    }

    // Anonymous update: one (index, payload) row per anticipated requester
    // (§3.3 — the updater must anticipate its potential senders).
    if (contacts_.empty()) return;
    ByteWriter rows;
    rows.u32(static_cast<std::uint32_t>(contacts_.size()));
    std::size_t crypto_ops = 0;
    for (NodeId contact : contacts_) {
        ByteWriter plain;
        plain.u64(me);
        plain.f64(my_loc.x);
        plain.f64(my_loc.y);
        plain.u64(static_cast<std::uint64_t>(hooks_.sim->now().ns()));
        const Bytes payload =
            hooks_.engine->encrypt_for(contact, plain.data(), *hooks_.rng);
        rows.bytes(make_index(me, contact));
        rows.bytes(payload);
        ++crypto_ops;
    }
    pkt->ls_payload = rows.take();
    pkt->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*pkt));
    const SimTime cost =
        hooks_.engine->costs().pk_encrypt * static_cast<std::int64_t>(crypto_ops);
    charge(cost, [this, pkt] {
        ++stats_.updates_sent;
        stats_.update_bytes += pkt->wire_bytes;
        hooks_.route(pkt);
    });
}

void LocationService::resolve(NodeId target,
                              std::function<void(std::optional<util::Vec2>)> cb) {
    if (auto it = result_cache_.find(target);
        it != result_cache_.end() &&
        hooks_.sim->now() - it->second.second <= kResultCacheTtl) {
        cb(it->second.first);
        return;
    }
    const std::uint64_t qid =
        (static_cast<std::uint64_t>(hooks_.my_id) << 32) | next_query_id_++;
    PendingQuery q;
    q.target = target;
    q.cb = std::move(cb);
    q.started = hooks_.sim->now();
    pending_.emplace(qid, std::move(q));
    send_query(qid);
}

std::optional<LocationService::QueryFormat>
LocationService::stage_format(std::uint8_t stage) const {
    // Degradation ladder (DESIGN.md §14). Every rung past the first needs
    // the previous one to have timed out; the plain-subject rung of an
    // anonymous requester still never names the requester, and the indexed
    // rung of a plain requester needs key material.
    switch (mode_) {
        case Mode::kAnonymous:
            if (stage == 0) return QueryFormat::kIndexed;
            if (stage == 1) return QueryFormat::kIndexFree;
            if (stage == 2) return QueryFormat::kPlainSubject;
            return std::nullopt;
        case Mode::kAnonymousIndexFree:
            if (stage == 0) return QueryFormat::kIndexFree;
            if (stage == 1) return QueryFormat::kPlainSubject;
            return std::nullopt;
        case Mode::kPlain:
            if (stage == 0) return QueryFormat::kPlainSubject;
            if (stage == 1 && hooks_.engine) return QueryFormat::kIndexed;
            return std::nullopt;
    }
    return std::nullopt;
}

SimTime LocationService::retry_delay(int attempt) {
    const util::RetryPolicy::Params p{.initial = kQueryTimeout,
                                      .multiplier = 2.0,
                                      .cap = kQueryBackoffCap,
                                      .jitter = kQueryJitter};
    return util::RetryPolicy::delay(p, attempt, *hooks_.rng);
}

void LocationService::send_query(std::uint64_t qid) {
    auto it = pending_.find(qid);
    if (it == pending_.end()) return;
    PendingQuery& q = it->second;
    if (q.attempts > 0 || q.stage > 0) ++stats_.query_reissues;
    ++q.attempts;

    auto pkt = net::make_packet();
    pkt->type = net::PacketType::kLocRequest;
    pkt->grid = grid_.home_grid(q.target);
    pkt->dst_loc = grid_.center_of(pkt->grid);
    pkt->created_at = hooks_.sim->now();
    // geoanon-lint: allow(privacy-taint) -- LREQ must carry loc_B so the server can geo-route the LREP back (§3.3); the paper accepts this exposure for both DLM and ALS
    pkt->requester_loc = hooks_.my_position();
    pkt->ls_query_id = qid;
    pkt->uid = hooks_.rng->next_u64();

    const QueryFormat fmt = stage_format(q.stage).value_or(QueryFormat::kIndexFree);
    switch (fmt) {
        case QueryFormat::kPlainSubject:
            pkt->ls_subject = q.target;
            // Plain DLM exposes the requester; the ladder's plain rung for
            // an anonymous requester names only the (public) target.
            // geoanon-lint: allow(privacy-taint) -- plain DLM baseline: requester identity on LREQ is the documented exposure; anonymous mode sends ls_index instead
            if (mode_ == Mode::kPlain) pkt->src_id = hooks_.my_id;
            break;
        case QueryFormat::kIndexed:
            pkt->ls_index = make_index(q.target, hooks_.my_id);
            break;
        case QueryFormat::kIndexFree:
            break;  // no index, no identity at all
    }
    pkt->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*pkt));

    ++stats_.queries_sent;
    stats_.query_bytes += pkt->wire_bytes;
    GEOANON_TRACE(*hooks_.sim, .type = obs::EventType::kLsQuery, .node = hooks_.my_id,
                  .uid = pkt->uid, .bytes = pkt->wire_bytes, .detail = qid);

    // Register the retry timeout BEFORE routing: route() can deliver the
    // request and its reply synchronously (requester in the home grid, or a
    // one-hop store hit), and on_reply() erases the pending entry — writing
    // q.timeout afterwards would dangle. on_reply cancels the timeout.
    q.timeout = hooks_.sim->after(retry_delay(q.attempts), [this, qid] {
        auto it2 = pending_.find(qid);
        if (it2 == pending_.end()) return;
        if (it2->second.attempts <= kQueryRetries) {
            send_query(qid);
            return;
        }
        if (stage_format(static_cast<std::uint8_t>(it2->second.stage + 1))) {
            // Next rung of the degradation ladder, with a fresh retry budget.
            ++stats_.query_fallbacks;
            ++it2->second.stage;
            it2->second.attempts = 0;
            send_query(qid);
            return;
        }
        auto cb = std::move(it2->second.cb);
        pending_.erase(it2);
        ++stats_.resolved_fail;
        cb(std::nullopt);
    });

    hooks_.route(pkt);
}

bool LocationService::near_home_center(const PacketPtr& pkt) const {
    const util::Vec2 center = grid_.center_of(pkt->grid);
    return util::distance(hooks_.my_position(), center) <= params_.server_radius_m;
}

bool LocationService::handle(const PacketPtr& pkt) {
    switch (pkt->type) {
        case net::PacketType::kLocUpdate:
            if (pkt->ls_assist || near_home_center(pkt)) {
                store_row(pkt);
                return true;
            }
            return false;
        case net::PacketType::kLocRequest:
            if (pkt->ls_assist) {
                answer_request(pkt);  // answer only if we have the row
                return true;
            }
            if (near_home_center(pkt)) {
                serve(pkt);
                return true;
            }
            return false;
        case net::PacketType::kLocReply: {
            const bool addressed =
                pkt->dst_id == hooks_.my_id || pkt->dst_id == net::kInvalidNode;
            if (addressed && resolved_qids_.contains(pkt->ls_query_id)) {
                // Quorum resolve: any replica may answer, the first reply
                // wins, and the rest are suppressed here by query id.
                ++stats_.duplicates_suppressed;
                return true;
            }
            if (addressed && pending_.contains(pkt->ls_query_id)) {
                on_reply(pkt);
                return true;
            }
            // Addressed to this node but the query is gone: it already timed
            // out (or was wiped by a crash) — the reply merely arrived late.
            if (pkt->dst_id == hooks_.my_id) {
                ++stats_.late_replies;
                return true;
            }
            // Plain replies addressed to someone else keep routing; assist
            // copies die here.
            return pkt->ls_assist;
        }
        case net::PacketType::kLocReplicate:
            store_row(pkt);
            return true;
        case net::PacketType::kLocDigest:
            // One-hop replica gossip: consumed here, never geo-routed.
            if (params_.replicate && params_.anti_entropy && near_home_center(pkt))
                on_digest(pkt);
            return true;
        default:
            return false;
    }
}

bool LocationService::handle_stuck(const PacketPtr& pkt) {
    switch (pkt->type) {
        case net::PacketType::kLocUpdate:
            store_row(pkt);  // best-effort server of last resort
            return true;
        case net::PacketType::kLocRequest:
            serve(pkt);
            return true;
        case net::PacketType::kLocReply: {
            if (pkt->ls_assist) return true;  // already a last-resort copy
            // Local broadcast: the requester may be in radio range.
            auto copy = net::clone_packet(*pkt);
            copy->ls_assist = true;
            copy->uid = hooks_.rng->next_u64();
            hooks_.local_broadcast(std::move(copy));
            return true;
        }
        case net::PacketType::kLocDigest:
            return true;  // gossip is one-hop; a stuck copy just dies
        default:
            return false;
    }
}

void LocationService::store_row(const PacketPtr& pkt) {
    // Anonymous rows inherit the sender's remaining TTL (created_at is the
    // original store/update time on repair and handoff pushes), clamped so a
    // peer can never hand us a row that outlives a fresh local store. This
    // keeps a dead updater's row from being kept alive forever by gossip.
    const SimTime now = hooks_.sim->now();
    const SimTime expires =
        std::min(pkt->created_at + params_.entry_ttl, now + params_.entry_ttl);
    bool fresh = false;

    // Dispatch on the ROW's format, not this server's own mode: the paper's
    // heterogeneous update scheme (§3.3) lets privacy-indifferent nodes use
    // plain rows while others stay anonymous, and any server stores both.
    // Plain rows: the newer update timestamp wins. Anonymous rows: the later
    // expiry wins.
    if (pkt->ls_subject != net::kInvalidNode) {
        auto [it, inserted] = store_.try_emplace(pkt->ls_subject);
        Row& row = it->second;
        if (inserted) {
            row.grid = grid_.home_grid(pkt->ls_subject);
            row.digest_hash = plain_key_hash(pkt->ls_subject);
        }
        fresh = inserted || std::get<Fix>(row.payload).ts < pkt->created_at;
        if (fresh) {
            row.payload = Fix{pkt->ls_subject_loc, pkt->created_at};
            row.expires = expires;
        }
    } else {
        ByteReader r(pkt->ls_payload);
        auto count = r.u32();
        if (!count) return;
        for (std::uint32_t i = 0; i < *count; ++i) {
            auto index = r.bytes();
            auto payload = r.bytes();
            if (!index || !payload) return;
            auto [it, inserted] = store_.try_emplace(std::move(*index));
            Row& row = it->second;
            if (inserted) row.digest_hash = anon_key_hash(std::get<Bytes>(it->first));
            if (inserted || row.expires < expires) {
                row.payload = std::move(*payload);
                row.grid = pkt->grid;
                row.expires = expires;
                fresh = true;
            }
        }
    }

    // Replicate fresh rows once to in-range neighbors (kLocUpdate arrivals
    // only; replication copies never cascade).
    if (fresh && params_.replicate && pkt->type == net::PacketType::kLocUpdate &&
        !pkt->ls_assist) {
        auto copy = net::clone_packet(*pkt);
        copy->type = net::PacketType::kLocReplicate;
        copy->ls_assist = true;
        copy->uid = hooks_.rng->next_u64();
        hooks_.local_broadcast(std::move(copy));
        ++stats_.replications;
    }
}

std::optional<LocationService::RowKey> LocationService::requested_key(const Packet& req) {
    if (req.ls_subject != net::kInvalidNode) return req.ls_subject;
    if (!req.ls_index.empty()) return req.ls_index;
    return std::nullopt;  // index-free
}

void LocationService::answer_request(const PacketPtr& pkt) {
    const SimTime now = hooks_.sim->now();
    auto reply = net::make_packet();
    reply->type = net::PacketType::kLocReply;
    reply->grid = pkt->grid;
    reply->dst_loc = pkt->requester_loc;
    reply->created_at = now;
    reply->ls_query_id = pkt->ls_query_id;
    reply->uid = hooks_.rng->next_u64();

    // Serve according to the REQUEST's format (heterogeneous §3.3): the row
    // its plain subject or index names, or, index-free, every anonymous row
    // of this grid. A row is servable while live, or (last rung of the
    // degradation ladder) while expired by no more than stale_grace: a
    // possibly stale location beats a failed resolve during an outage.
    std::vector<Store::const_iterator> rows;
    std::uint64_t stale_rows = 0;
    const auto offer = [&](Store::const_iterator it) {
        const SimTime expires = it->second.expires;
        if (expires >= now) {
            rows.push_back(it);
        } else if (params_.stale_grace > SimTime::zero() &&
                   expires + params_.stale_grace >= now) {
            ++stale_rows;
            rows.push_back(it);
        }
    };
    if (const auto key = requested_key(*pkt)) {
        if (auto it = store_.find(*key); it != store_.end()) offer(it);
    } else {
        for (auto it = store_.cbegin(); it != store_.cend() && !is_plain(it); ++it)
            if (it->second.grid == pkt->grid) offer(it);
    }
    if (rows.empty()) {
        ++stats_.store_misses;
        return;
    }
    ++stats_.store_hits;
    stats_.stale_reads += stale_rows;

    if (pkt->ls_subject != net::kInvalidNode) {
        reply->dst_id = pkt->src_id;
        reply->ls_subject = pkt->ls_subject;
        reply->ls_subject_loc = std::get<Fix>(rows.front()->second.payload).loc;
    } else {
        ByteWriter w;
        w.u32(static_cast<std::uint32_t>(rows.size()));
        for (const auto it : rows) w.bytes(std::get<Bytes>(it->second.payload));
        reply->ls_payload = w.take();
    }
    reply->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*reply));
    ++stats_.replies_sent;
    stats_.reply_bytes += reply->wire_bytes;
    GEOANON_TRACE(*hooks_.sim, .type = obs::EventType::kLsReply, .node = hooks_.my_id,
                  .uid = reply->uid, .bytes = reply->wire_bytes,
                  .detail = reply->ls_query_id);
    hooks_.route(reply);

    // Read repair (anti-entropy): when a neighbor asked for help after its
    // own miss, re-replicate what we serve so the asking replica recovers
    // the row without waiting for the next digest round.
    if (pkt->ls_assist && params_.replicate && params_.anti_entropy) {
        push_rows(pkt->grid, rows);
        stats_.read_repairs += rows.size();
        GEOANON_TRACE(*hooks_.sim, .type = obs::EventType::kLsReadRepair,
                      .node = hooks_.my_id, .uid = reply->uid,
                      .detail = reply->ls_query_id);
    }
}

void LocationService::serve(const PacketPtr& pkt) {
    // Keyed lookup, with a one-hop neighbor assist on miss: another nearby
    // in-grid node may hold the row (mobility moves servers around). An
    // index-free request is answered while any anonymous row, of any grid,
    // is stored.
    const auto key = requested_key(*pkt);
    const bool have = key ? store_.contains(*key) : !store_.empty() && !is_plain(store_.cbegin());
    if (have) {
        answer_request(pkt);
        return;
    }
    if (!pkt->ls_assist) {
        auto copy = net::clone_packet(*pkt);
        copy->ls_assist = true;
        copy->uid = hooks_.rng->next_u64();
        hooks_.local_broadcast(std::move(copy));
    }
    ++stats_.store_misses;
}

void LocationService::complete_ok(std::uint64_t qid, util::Vec2 loc) {
    auto it = pending_.find(qid);
    if (it == pending_.end()) return;
    if (it->second.attempts > 1 || it->second.stage > 0) {
        // The primary attempt did not answer: this resolve paid a failover
        // (reissue or ladder rung) — record how long the detour took.
        stats_.failover_latency_ms.add(
            (hooks_.sim->now() - it->second.started).to_millis());
    }
    resolved_qids_[qid] = hooks_.sim->now();
    result_cache_[it->second.target] = {loc, hooks_.sim->now()};
    auto cb = std::move(it->second.cb);
    hooks_.sim->cancel(it->second.timeout);
    pending_.erase(it);
    ++stats_.resolved_ok;
    cb(loc);
}

void LocationService::on_reply(const PacketPtr& pkt) {
    auto it = pending_.find(pkt->ls_query_id);
    if (it == pending_.end()) return;

    // Plain-subject replies (from our own plain mode, or the heterogeneous
    // fallback) carry the location directly.
    if (pkt->ls_subject != net::kInvalidNode) {
        if (pkt->ls_subject != it->second.target) return;  // stray reply
        complete_ok(pkt->ls_query_id, pkt->ls_subject_loc);
        return;
    }
    if (!hooks_.engine) return;  // cannot decrypt anonymous rows

    // Anonymous: trial-decrypt rows; match target identity inside.
    const NodeId target = it->second.target;
    ByteReader r(pkt->ls_payload);
    auto count = r.u32();
    if (!count) return;
    std::optional<util::Vec2> found;
    std::size_t attempts = 0;
    for (std::uint32_t i = 0; i < *count && !found; ++i) {
        auto payload = r.bytes();
        if (!payload) break;
        ++attempts;
        auto plain = hooks_.engine->try_decrypt(hooks_.my_id, *payload);
        if (!plain) continue;
        ByteReader pr(*plain);
        auto subject = pr.u64();
        auto x = pr.f64();
        auto y = pr.f64();
        if (subject && x && y && *subject == target) found = util::Vec2{*x, *y};
    }
    stats_.decrypt_attempts += attempts;

    const SimTime cost =
        hooks_.engine->costs().pk_decrypt * static_cast<std::int64_t>(attempts);
    charge(cost, [this, qid = pkt->ls_query_id, found] {
        if (!found) return;  // wrong rows; keep waiting for another reply
        complete_ok(qid, *found);
    });
}

void LocationService::push_rows(std::uint32_t grid,
                                const std::vector<Store::const_iterator>& rows) {
    // Anonymous rows sort before plain ones, so they are a prefix.
    const auto plain = std::find_if(rows.begin(), rows.end(), is_plain);
    if (plain != rows.begin()) {
        auto pkt = net::make_packet();
        pkt->type = net::PacketType::kLocReplicate;
        pkt->grid = grid;
        pkt->dst_loc = grid_.center_of(grid);
        pkt->ls_assist = true;
        pkt->uid = hooks_.rng->next_u64();
        ByteWriter w;
        w.u32(static_cast<std::uint32_t>(plain - rows.begin()));
        // Receivers adopt created_at + entry_ttl as the row expiry, so carry
        // the most conservative remaining TTL of the batch: gossip must never
        // extend a row's life beyond what the updater authorized.
        SimTime min_expires = SimTime::max();
        for (auto it = rows.begin(); it != plain; ++it) {
            w.bytes(std::get<Bytes>((*it)->first));
            w.bytes(std::get<Bytes>((*it)->second.payload));
            min_expires = std::min(min_expires, (*it)->second.expires);
        }
        pkt->created_at = min_expires - params_.entry_ttl;
        pkt->ls_payload = w.take();
        pkt->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*pkt));
        hooks_.local_broadcast(std::move(pkt));
    }
    for (auto it = plain; it != rows.end(); ++it) {
        const Row& row = (*it)->second;
        const Fix& fix = std::get<Fix>(row.payload);
        auto pkt = net::make_packet();
        pkt->type = net::PacketType::kLocReplicate;
        pkt->grid = row.grid;
        pkt->dst_loc = grid_.center_of(row.grid);
        // The original update timestamp rides along so receivers keep the
        // DLM freshness ordering (a repair push must never beat a newer
        // update).
        pkt->created_at = fix.ts;
        pkt->ls_assist = true;
        // geoanon-lint: allow(privacy-taint) -- plain DLM baseline: the subject is already cleartext on the row being re-replicated
        pkt->ls_subject = std::get<NodeId>((*it)->first);
        // geoanon-lint: allow(privacy-taint) -- plain DLM baseline, see ls_subject above
        pkt->ls_subject_loc = fix.loc;
        pkt->uid = hooks_.rng->next_u64();
        pkt->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*pkt));
        hooks_.local_broadcast(std::move(pkt));
    }
}

// Builds and broadcasts this node's anti-entropy digest for `grid`: one
// (key hash, expiry) row per stored entry of that grid. Runs every
// kDigestInterval on every serving replica, so it must not thrash the heap.
// geoanon: hot
void LocationService::send_digest(std::uint32_t grid) {
    // geoanon-lint: allow(hot-alloc) -- packets are immutable shared-ownership objects by design; a packet arena is ROADMAP item 1, not a per-call fix
    auto pkt = net::make_packet();
    pkt->type = net::PacketType::kLocDigest;
    pkt->grid = grid;
    pkt->dst_loc = grid_.center_of(grid);
    pkt->created_at = hooks_.sim->now();
    pkt->ls_assist = true;
    pkt->uid = hooks_.rng->next_u64();
    pkt->ls_digest.reserve(store_.size());
    for (const auto& [key, row] : store_) {
        if (row.grid != grid) continue;
        pkt->ls_digest.push_back(
            {row.digest_hash, static_cast<std::uint64_t>(row.expires.ns())});
    }
    std::stable_sort(pkt->ls_digest.begin(), pkt->ls_digest.end(), digest_by_hash);
    pkt->wire_bytes = static_cast<std::uint32_t>(net::codec::encoded_size(*pkt));
    ++stats_.digests_sent;
    stats_.digest_bytes += pkt->wire_bytes;
    last_digest_[grid] = hooks_.sim->now();
    hooks_.local_broadcast(std::move(pkt));
}

void LocationService::handoff_grid(std::uint32_t grid) {
    // Hinted handoff: this replica drifted out of server_radius_m, so its
    // rows would otherwise be lost to the grid. Push them to whoever is
    // still inside before stepping down (the rows themselves stay until
    // they expire; we just stop serving/gossiping them).
    std::vector<Store::const_iterator> rows;
    for (auto it = store_.cbegin(); it != store_.cend(); ++it)
        if (it->second.grid == grid) rows.push_back(it);
    if (rows.empty()) return;
    push_rows(grid, rows);
    ++stats_.handoffs;
    GEOANON_TRACE(*hooks_.sim, .type = obs::EventType::kLsHandoff,
                  .node = hooks_.my_id, .detail = grid);
}

void LocationService::digest_tick() {
    if (hooks_.is_up && !hooks_.is_up()) return;
    const util::Vec2 me = hooks_.my_position();

    // Grids this node holds rows for.
    std::set<std::uint32_t> grids;
    for (const auto& [key, row] : store_) grids.insert(row.grid);

    for (const std::uint32_t g : grids) {
        const bool in_radius =
            util::distance(me, grid_.center_of(g)) <= params_.server_radius_m;
        if (in_radius) {
            serving_.insert(g);
            send_digest(g);
        } else if (serving_.erase(g) > 0) {
            handoff_grid(g);
        }
    }
    // Grids we served but no longer hold rows for need no handoff.
    std::erase_if(serving_, [&](std::uint32_t g) { return !grids.contains(g); });
}

void LocationService::on_digest(const PacketPtr& pkt) {
    const SimTime now = hooks_.sim->now();
    const std::uint32_t g = pkt->grid;
    // Peer rows beat ours only past this margin; without it two replicas
    // whose expiries differ by a transit delay would push at each other
    // every round.
    const SimTime margin = SimTime::seconds(1.0);

    // send_digest emits the rows sorted by hash; the first row of a
    // repeated hash wins.
    using PeerRow = net::Packet::LsDigestRow;
    const std::vector<PeerRow>& peer = pkt->ls_digest;
    assert(std::is_sorted(peer.begin(), peer.end(), digest_by_hash));
    std::size_t distinct_hashes = 0;
    for (std::size_t i = 0; i < peer.size(); ++i)
        if (i == 0 || peer[i].key_hash != peer[i - 1].key_hash) ++distinct_hashes;
    const auto find_peer = [&](std::uint64_t hash) -> const PeerRow* {
        auto it = std::lower_bound(peer.begin(), peer.end(), PeerRow{hash, 0}, digest_by_hash);
        return it != peer.end() && it->key_hash == hash ? &*it : nullptr;
    };

    // Push rows the sender lacks or holds staler than ours.
    const auto peer_wants = [&](const PeerRow* seen, SimTime expires) {
        if (expires < now) return false;  // nothing to gain from a dead row
        return !seen ||
               SimTime::nanos(static_cast<std::int64_t>(seen->expires_ns)) + margin < expires;
    };
    std::vector<Store::const_iterator> rows;
    std::uint64_t known_hashes_here = 0;
    for (auto it = store_.cbegin(); it != store_.cend(); ++it) {
        if (it->second.grid != g) continue;
        const PeerRow* seen = find_peer(it->second.digest_hash);
        if (seen) ++known_hashes_here;
        if (peer_wants(seen, it->second.expires)) rows.push_back(it);
    }
    push_rows(g, rows);
    stats_.repairs_sent += rows.size();

    // The sender advertises rows we have never seen: answer with our own
    // digest (possibly empty — e.g. right after a restart) so the sender
    // pushes them our way. Rate-limited per grid to half a digest interval.
    if (known_hashes_here < distinct_hashes) {
        auto last = last_digest_.find(g);
        const SimTime gap = SimTime::nanos(kDigestInterval.ns() / 2);
        if (last == last_digest_.end() || last->second + gap <= now) send_digest(g);
    }
}

void LocationService::sweep_expired() {
    if (hooks_.is_up && !hooks_.is_up()) return;
    const SimTime now = hooks_.sim->now();
    // Keep stale-grace rows servable: only drop past expiry + grace.
    const SimTime horizon = now - params_.stale_grace;
    const std::size_t before = store_.size();
    std::erase_if(store_, [&](const auto& kv) { return kv.second.expires < horizon; });
    stats_.store_expired += before - store_.size();
    // Closed-query records only need to outlive straggling quorum replies.
    std::erase_if(resolved_qids_,
                  [&](const auto& kv) { return kv.second + params_.entry_ttl < now; });
}

}  // namespace geoanon::routing
