#include "net/codec.hpp"

#include <bit>

#include "util/bytes.hpp"

namespace geoanon::net::codec {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;

namespace {

// Flags byte (AGFW and location-service packets).
constexpr std::uint8_t kFlagVelocity = 0x01;   // hello carries a velocity hint
constexpr std::uint8_t kFlagAuth = 0x02;       // hello is ring-signed
constexpr std::uint8_t kFlagPerimeter = 0x04;  // packet is in perimeter mode
constexpr std::uint8_t kFlagAssist = 0x08;     // one-hop LS assist copy
constexpr std::uint8_t kFlagAnonymous = 0x10;  // ALS (vs plain DLM) row format

void put_u48(ByteWriter& w, std::uint64_t v) {
    for (int shift = 40; shift >= 0; shift -= 8)
        w.u8(static_cast<std::uint8_t>(v >> shift));
}

std::optional<std::uint64_t> get_u48(ByteReader& r) {
    std::uint64_t v = 0;
    for (int i = 0; i < 6; ++i) {
        auto b = r.u8();
        if (!b) return std::nullopt;
        v = (v << 8) | *b;
    }
    return v;
}

void put_vec(ByteWriter& w, const Vec2& v) {
    w.f64(v.x);
    w.f64(v.y);
}

std::optional<Vec2> get_vec(ByteReader& r) {
    auto x = r.f64();
    auto y = r.f64();
    if (!x || !y) return std::nullopt;
    return Vec2{*x, *y};
}

/// Velocity hints travel quantized to two f32 (8 bytes).
// geoanon-lint: begin-allow(float-accum) -- deliberate IEEE-754 binary32 wire quantization; the value is widened back to double immediately on decode and never accumulated as float
void put_velocity(ByteWriter& w, const Vec2& v) {
    w.u32(std::bit_cast<std::uint32_t>(static_cast<float>(v.x)));
    w.u32(std::bit_cast<std::uint32_t>(static_cast<float>(v.y)));
}

std::optional<Vec2> get_velocity(ByteReader& r) {
    auto x = r.u32();
    auto y = r.u32();
    if (!x || !y) return std::nullopt;
    return Vec2{static_cast<double>(std::bit_cast<float>(*x)),
                static_cast<double>(std::bit_cast<float>(*y))};
}
// geoanon-lint: end-allow(float-accum)

bool has_velocity(const Packet& p) {
    return p.hello_velocity.x != 0.0 || p.hello_velocity.y != 0.0;
}

bool is_plain_ls(const Packet& p) { return p.ls_subject != kInvalidNode; }

void put_perimeter(ByteWriter& w, const Packet& p) {
    put_vec(w, p.perimeter_entry);
    put_vec(w, p.prev_hop_loc);
    w.u16(p.perimeter_hops);
}

bool get_perimeter(ByteReader& r, Packet& p) {
    auto entry = get_vec(r);
    auto prev = get_vec(r);
    auto hops = r.u16();
    if (!entry || !prev || !hops) return false;
    p.perimeter_mode = true;
    p.perimeter_entry = *entry;
    p.prev_hop_loc = *prev;
    p.perimeter_hops = *hops;
    return true;
}

}  // namespace

Bytes encode(const Packet& p) {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(p.type));

    switch (p.type) {
        case PacketType::kGpsrHello:
            w.u32(p.src_id);
            put_vec(w, p.hello_loc);
            w.u64(static_cast<std::uint64_t>(p.hello_ts.ns()));
            break;

        case PacketType::kGpsrData:
            w.u32(p.src_id);
            w.u32(p.dst_id);
            put_vec(w, p.dst_loc);
            w.raw(p.body);
            break;

        case PacketType::kAgfwHello: {
            std::uint8_t flags = 0;
            if (has_velocity(p)) flags |= kFlagVelocity;
            if (!p.auth.empty()) flags |= kFlagAuth;
            w.u8(flags);
            put_u48(w, p.hello_pseudonym);
            put_vec(w, p.hello_loc);
            w.u64(static_cast<std::uint64_t>(p.hello_ts.ns()));
            if (flags & kFlagVelocity) put_velocity(w, p.hello_velocity);
            if (flags & kFlagAuth) {
                w.u16(static_cast<std::uint16_t>(p.auth.size()));
                w.raw(p.auth);
                w.u16(static_cast<std::uint16_t>(p.ring_members.size()));
                // Certificate references (§4): 4-byte serials.
                for (auto id : p.ring_members) w.u32(static_cast<std::uint32_t>(id));
            }
            break;
        }

        case PacketType::kAgfwData: {
            std::uint8_t flags = 0;
            if (p.perimeter_mode) flags |= kFlagPerimeter;
            w.u8(flags);
            put_vec(w, p.dst_loc);
            put_u48(w, p.next_hop_pseudonym);
            if (p.perimeter_mode) put_perimeter(w, p);
            w.u16(static_cast<std::uint16_t>(p.trapdoor.size()));
            w.raw(p.trapdoor);
            w.raw(p.body);
            break;
        }

        case PacketType::kAgfwAck:
            w.u16(static_cast<std::uint16_t>(p.ack_uids.size()));
            for (std::uint64_t uid : p.ack_uids) w.u64(uid);
            break;

        case PacketType::kLocUpdate:
        case PacketType::kLocReplicate: {
            std::uint8_t flags = 0;
            if (!is_plain_ls(p)) flags |= kFlagAnonymous;
            if (p.ls_assist) flags |= kFlagAssist;
            if (p.perimeter_mode) flags |= kFlagPerimeter;
            w.u8(flags);
            put_u48(w, p.next_hop_pseudonym);
            w.u32(p.grid);
            put_vec(w, p.dst_loc);
            if (p.perimeter_mode) put_perimeter(w, p);
            if (is_plain_ls(p)) {
                w.u32(p.ls_subject);
                put_vec(w, p.ls_subject_loc);
                w.u64(static_cast<std::uint64_t>(p.created_at.ns()));
            } else {
                w.raw(p.ls_payload);
            }
            break;
        }

        case PacketType::kLocRequest: {
            std::uint8_t flags = 0;
            if (!is_plain_ls(p)) flags |= kFlagAnonymous;
            if (p.ls_assist) flags |= kFlagAssist;
            if (p.perimeter_mode) flags |= kFlagPerimeter;
            w.u8(flags);
            put_u48(w, p.next_hop_pseudonym);
            w.u32(p.grid);
            put_vec(w, p.dst_loc);
            if (p.perimeter_mode) put_perimeter(w, p);
            put_vec(w, p.requester_loc);
            w.u64(p.ls_query_id);
            if (is_plain_ls(p)) {
                w.u32(p.ls_subject);
                w.u32(p.src_id);
            } else {
                // Indexed ALS sends E_{K_B}(A,B); index-free sends length 0.
                w.u16(static_cast<std::uint16_t>(p.ls_index.size()));
                w.raw(p.ls_index);
            }
            break;
        }

        case PacketType::kLocReply: {
            std::uint8_t flags = 0;
            const bool plain = p.ls_subject != kInvalidNode;
            if (!plain) flags |= kFlagAnonymous;
            if (p.ls_assist) flags |= kFlagAssist;
            if (p.perimeter_mode) flags |= kFlagPerimeter;
            w.u8(flags);
            put_u48(w, p.next_hop_pseudonym);
            w.u32(p.grid);
            put_vec(w, p.dst_loc);
            if (p.perimeter_mode) put_perimeter(w, p);
            w.u64(p.ls_query_id);
            if (plain) {
                w.u32(p.dst_id);
                w.u32(p.ls_subject);
                put_vec(w, p.ls_subject_loc);
            } else {
                w.raw(p.ls_payload);
            }
            break;
        }

        case PacketType::kLocDigest: {
            // Anti-entropy digest: (key hash, expiry) summaries only — never
            // a location, payload, or cleartext identity. One-hop broadcast,
            // so no perimeter block.
            std::uint8_t flags = kFlagAnonymous;
            if (p.ls_assist) flags |= kFlagAssist;
            w.u8(flags);
            put_u48(w, p.next_hop_pseudonym);
            w.u32(p.grid);
            put_vec(w, p.dst_loc);
            w.u16(static_cast<std::uint16_t>(p.ls_digest.size()));
            for (const auto& row : p.ls_digest) {
                w.u64(row.key_hash);
                w.u64(row.expires_ns);
            }
            break;
        }
    }

    return w.take();
}

std::size_t encoded_size(const Packet& p) { return encode(p).size(); }

const char* decode_error_name(DecodeError e) {
    switch (e) {
        case DecodeError::kOk: return "ok";
        case DecodeError::kEmpty: return "empty";
        case DecodeError::kBadType: return "bad-type";
        case DecodeError::kTruncated: return "truncated";
        case DecodeError::kBadLength: return "bad-length";
        case DecodeError::kTrailingBytes: return "trailing-bytes";
    }
    return "?";
}

namespace {

DecodeResult fail(DecodeError e) { return DecodeResult{std::nullopt, e}; }

/// Validates a u16-prefixed blob: the declared length must fit in what
/// remains of the frame *before* any read happens, so an oversized length
/// field is classified kBadLength (not kTruncated) and can never trigger an
/// over-read.
std::optional<Bytes> get_blob_u16(ByteReader& r, DecodeError& err) {
    auto len = r.u16();
    if (!len) {
        err = DecodeError::kTruncated;
        return std::nullopt;
    }
    if (*len > r.remaining()) {
        err = DecodeError::kBadLength;
        return std::nullopt;
    }
    return r.raw(*len);
}

}  // namespace

DecodeResult decode_ex(std::span<const std::uint8_t> wire) {
    if (wire.empty()) return fail(DecodeError::kEmpty);

    ByteReader r(wire);
    auto type_raw = r.u8();
    if (!type_raw) return fail(DecodeError::kTruncated);
    if (*type_raw > static_cast<std::uint8_t>(PacketType::kLocDigest))
        return fail(DecodeError::kBadType);

    Packet p;
    p.type = static_cast<PacketType>(*type_raw);

    switch (p.type) {
        case PacketType::kGpsrHello: {
            auto id = r.u32();
            auto loc = get_vec(r);
            auto ts = r.u64();
            if (!id || !loc || !ts) return fail(DecodeError::kTruncated);
            p.src_id = *id;
            p.hello_loc = *loc;
            p.hello_ts = util::SimTime::nanos(static_cast<std::int64_t>(*ts));
            break;
        }
        case PacketType::kGpsrData: {
            auto src = r.u32();
            auto dst = r.u32();
            auto loc = get_vec(r);
            if (!src || !dst || !loc) return fail(DecodeError::kTruncated);
            p.src_id = *src;
            p.dst_id = *dst;
            p.dst_loc = *loc;
            auto body = r.raw(r.remaining());
            p.body = std::move(*body);
            break;
        }
        case PacketType::kAgfwHello: {
            auto flags = r.u8();
            auto n = get_u48(r);
            auto loc = get_vec(r);
            auto ts = r.u64();
            if (!flags || !n || !loc || !ts) return fail(DecodeError::kTruncated);
            p.hello_pseudonym = *n;
            p.hello_loc = *loc;
            p.hello_ts = util::SimTime::nanos(static_cast<std::int64_t>(*ts));
            if (*flags & kFlagVelocity) {
                auto v = get_velocity(r);
                if (!v) return fail(DecodeError::kTruncated);
                p.hello_velocity = *v;
            }
            if (*flags & kFlagAuth) {
                DecodeError err = DecodeError::kOk;
                auto auth = get_blob_u16(r, err);
                if (!auth) return fail(err);
                p.auth = std::move(*auth);
                auto count = r.u16();
                if (!count) return fail(DecodeError::kTruncated);
                // Each ring member is a 4-byte certificate serial; reject a
                // count the remaining bytes cannot possibly satisfy before
                // allocating anything.
                if (static_cast<std::size_t>(*count) * 4 > r.remaining())
                    return fail(DecodeError::kBadLength);
                p.ring_members.reserve(*count);
                for (std::uint16_t i = 0; i < *count; ++i) {
                    auto ref = r.u32();
                    if (!ref) return fail(DecodeError::kTruncated);
                    p.ring_members.push_back(*ref);
                }
            }
            break;
        }
        case PacketType::kAgfwData: {
            auto flags = r.u8();
            auto loc = get_vec(r);
            auto n = get_u48(r);
            if (!flags || !loc || !n) return fail(DecodeError::kTruncated);
            p.dst_loc = *loc;
            p.next_hop_pseudonym = *n;
            if ((*flags & kFlagPerimeter) && !get_perimeter(r, p))
                return fail(DecodeError::kTruncated);
            DecodeError err = DecodeError::kOk;
            auto td = get_blob_u16(r, err);
            if (!td) return fail(err);
            p.trapdoor = std::move(*td);
            auto body = r.raw(r.remaining());
            p.body = std::move(*body);
            break;
        }
        case PacketType::kAgfwAck: {
            auto count = r.u16();
            if (!count) return fail(DecodeError::kTruncated);
            // 8 bytes per acknowledged uid.
            if (static_cast<std::size_t>(*count) * 8 > r.remaining())
                return fail(DecodeError::kBadLength);
            p.ack_uids.reserve(*count);
            for (std::uint16_t i = 0; i < *count; ++i) {
                auto uid = r.u64();
                if (!uid) return fail(DecodeError::kTruncated);
                p.ack_uids.push_back(*uid);
            }
            break;
        }
        case PacketType::kLocUpdate:
        case PacketType::kLocReplicate:
        case PacketType::kLocRequest:
        case PacketType::kLocReply:
        case PacketType::kLocDigest: {
            auto flags = r.u8();
            auto n = get_u48(r);
            auto grid = r.u32();
            auto loc = get_vec(r);
            if (!flags || !n || !grid || !loc) return fail(DecodeError::kTruncated);
            p.next_hop_pseudonym = *n;
            p.grid = *grid;
            p.dst_loc = *loc;
            p.ls_assist = (*flags & kFlagAssist) != 0;
            const bool anonymous = (*flags & kFlagAnonymous) != 0;
            if ((*flags & kFlagPerimeter) && !get_perimeter(r, p))
                return fail(DecodeError::kTruncated);

            if (p.type == PacketType::kLocUpdate || p.type == PacketType::kLocReplicate) {
                if (anonymous) {
                    auto payload = r.raw(r.remaining());
                    p.ls_payload = std::move(*payload);
                } else {
                    auto subject = r.u32();
                    auto sloc = get_vec(r);
                    auto ts = r.u64();
                    if (!subject || !sloc || !ts) return fail(DecodeError::kTruncated);
                    p.ls_subject = *subject;
                    p.ls_subject_loc = *sloc;
                    p.created_at = util::SimTime::nanos(static_cast<std::int64_t>(*ts));
                }
            } else if (p.type == PacketType::kLocRequest) {
                auto rloc = get_vec(r);
                auto qid = r.u64();
                if (!rloc || !qid) return fail(DecodeError::kTruncated);
                p.requester_loc = *rloc;
                p.ls_query_id = *qid;
                if (anonymous) {
                    DecodeError err = DecodeError::kOk;
                    auto idx = get_blob_u16(r, err);
                    if (!idx) return fail(err);
                    p.ls_index = std::move(*idx);
                } else {
                    auto subject = r.u32();
                    auto src = r.u32();
                    if (!subject || !src) return fail(DecodeError::kTruncated);
                    p.ls_subject = *subject;
                    p.src_id = *src;
                }
            } else if (p.type == PacketType::kLocDigest) {
                auto count = r.u16();
                if (!count) return fail(DecodeError::kTruncated);
                // 16 bytes per digest row.
                if (static_cast<std::size_t>(*count) * 16 > r.remaining())
                    return fail(DecodeError::kBadLength);
                p.ls_digest.reserve(*count);
                for (std::uint16_t i = 0; i < *count; ++i) {
                    auto key_hash = r.u64();
                    auto expires = r.u64();
                    if (!key_hash || !expires) return fail(DecodeError::kTruncated);
                    p.ls_digest.push_back({*key_hash, *expires});
                }
            } else {  // kLocReply
                auto qid = r.u64();
                if (!qid) return fail(DecodeError::kTruncated);
                p.ls_query_id = *qid;
                if (anonymous) {
                    auto payload = r.raw(r.remaining());
                    p.ls_payload = std::move(*payload);
                } else {
                    auto dst = r.u32();
                    auto subject = r.u32();
                    auto sloc = get_vec(r);
                    if (!dst || !subject || !sloc) return fail(DecodeError::kTruncated);
                    p.dst_id = *dst;
                    p.ls_subject = *subject;
                    p.ls_subject_loc = *sloc;
                }
            }
            break;
        }
    }

    if (r.remaining() != 0) return fail(DecodeError::kTrailingBytes);

    p.wire_bytes = static_cast<std::uint32_t>(wire.size());
    return DecodeResult{std::move(p), DecodeError::kOk};
}

std::optional<Packet> decode(std::span<const std::uint8_t> wire) {
    return decode_ex(wire).packet;
}

}  // namespace geoanon::net::codec
