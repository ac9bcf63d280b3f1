#include "net/codec.hpp"

#include <bit>
#include <cmath>
#include <type_traits>
#include <utility>

#include "util/bytes.hpp"

namespace geoanon::net::codec {

using util::ByteReader;
using util::Bytes;

namespace {

// Flags byte (AGFW and location-service packets).
constexpr std::uint8_t kFlagVelocity = 0x01;   // hello carries a velocity hint
constexpr std::uint8_t kFlagAuth = 0x02;       // hello is ring-signed
constexpr std::uint8_t kFlagPerimeter = 0x04;  // packet is in perimeter mode
constexpr std::uint8_t kFlagAssist = 0x08;     // one-hop LS assist copy
constexpr std::uint8_t kFlagAnonymous = 0x10;  // ALS (vs plain DLM) row format
// The bits each packet family may set; any other bit is non-canonical.
constexpr std::uint8_t kHelloFlags = kFlagVelocity | kFlagAuth;
constexpr std::uint8_t kLsFlags = kFlagPerimeter | kFlagAssist | kFlagAnonymous;

/// Velocity hints travel quantized to two f32 (8 bytes).
// geoanon-lint: begin-allow(float-accum) -- deliberate IEEE-754 binary32 wire quantization; the value is widened back to double immediately on decode and never accumulated as float
std::uint32_t to_f32_bits(double v) { return std::bit_cast<std::uint32_t>(static_cast<float>(v)); }
double from_f32_bits(std::uint32_t b) { return static_cast<double>(std::bit_cast<float>(b)); }
/// Whether `v` is still non-zero once quantized to two f32 (the velocity flag).
bool f32_nonzero(util::Vec2 v) {
    return from_f32_bits(to_f32_bits(v.x)) != 0.0 || from_f32_bits(to_f32_bits(v.y)) != 0.0;
}
// geoanon-lint: end-allow(float-accum)

/// Encode side of the field walk. Appends to `out` when given one and
/// always counts, so encoded_size() walks a packet without a buffer.
struct Encoder {
    Bytes* out{nullptr};
    std::size_t size{0};

    /// Big-endian unsigned field of `n` bytes. Wider values are cut to the
    /// field, as on the air: u16 lengths and counts, 4-byte ring-member
    /// references.
    template <class T>
    bool uint(int n, T v) {
        size += static_cast<std::size_t>(n);
        if (out != nullptr)
            for (int shift = 8 * (n - 1); shift >= 0; shift -= 8)
                out->push_back(static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> shift));
        return true;
    }
    bool f64(double v) { return uint(8, std::bit_cast<std::uint64_t>(v)); }
    bool f32(double v) { return uint(4, to_f32_bits(v)); }
    bool time(SimTime t) { return uint(8, t.ns()); }
    /// The frame remainder (no length prefix).
    bool rest(const Bytes& b) {
        size += b.size();
        if (out != nullptr) out->insert(out->end(), b.begin(), b.end());
        return true;
    }
    /// u16 length prefix, then the bytes.
    bool blob(const Bytes& b) { return uint(2, b.size()) && rest(b); }
    /// u16 count, then each item.
    template <class V, class F>
    bool list(const V& items, std::size_t /*item_bytes*/, F each) {
        uint(2, items.size());
        for (const auto& item : items) each(item);
        return true;
    }
    /// A packet whose type is outside PacketType encodes to its type byte.
    bool expect(bool ok, DecodeError /*error*/) { return ok; }
    /// Canonical-form rules bind the decoder only: a packet that breaks one
    /// (say, an unsorted digest) still encodes in full, to the bytes the
    /// decoder then rejects as kBadValue.
    bool rule(bool /*ok*/) { return true; }
};

/// Decode side of the field walk: reads the same fields into a Packet and
/// records the first error. Every length and count is checked against the
/// bytes that remain before anything is read or allocated, so an oversized
/// one is kBadLength (not kTruncated) and can never over-read.
struct Decoder {
    ByteReader r;
    DecodeError error{DecodeError::kOk};

    bool expect(bool ok, DecodeError e) {
        if (!ok) error = e;
        return ok;
    }
    bool rule(bool ok) { return expect(ok, DecodeError::kBadValue); }
    template <class T>
    bool uint(int n, T& v) {
        if (!expect(r.remaining() >= static_cast<std::size_t>(n), DecodeError::kTruncated))
            return false;
        std::uint64_t x = 0;
        for (int i = 0; i < n; ++i) x = (x << 8) | r.u8().value_or(0);
        v = static_cast<T>(x);
        return true;
    }
    bool f64(double& v) {
        std::uint64_t bits = 0;
        if (!uint(8, bits)) return false;
        v = std::bit_cast<double>(bits);
        return true;
    }
    bool f32(double& v) {
        std::uint32_t bits = 0;
        if (!uint(4, bits)) return false;
        v = from_f32_bits(bits);
        return true;
    }
    bool time(SimTime& t) {
        std::int64_t ns = 0;
        if (!uint(8, ns)) return false;
        t = SimTime::nanos(ns);
        return true;
    }
    bool rest(Bytes& b) {
        b = r.raw(r.remaining()).value_or(Bytes{});
        return true;
    }
    bool blob(Bytes& b) {
        std::size_t len = 0;
        if (!(uint(2, len) && expect(len <= r.remaining(), DecodeError::kBadLength)))
            return false;
        b = r.raw(len).value_or(Bytes{});
        return true;
    }
    template <class V, class F>
    bool list(V& items, std::size_t item_bytes, F each) {
        std::size_t count = 0;
        if (!(uint(2, count) &&
              expect(count * item_bytes <= r.remaining(), DecodeError::kBadLength)))
            return false;
        items.resize(count);
        for (auto& item : items)
            if (!each(item)) return false;
        return true;
    }
};

template <class IO, class V>
bool vec(IO& io, V& v) {
    return io.f64(v.x) && io.f64(v.y);
}

/// Perimeter block (the paper's §6 future work): where greedy forwarding
/// failed, the previous hop, and the face-traversal TTL. Present iff the
/// perimeter flag is set.
template <class IO, class P>
bool perimeter(IO& io, P& p, std::uint8_t flags) {
    if (!(flags & kFlagPerimeter)) return true;
    if constexpr (!std::is_const_v<P>) p.perimeter_mode = true;
    return vec(io, p.perimeter_entry) && vec(io, p.prev_hop_loc) &&
           io.uint(2, p.perimeter_hops);
}

/// A plain (DLM) LS frame's subject. The packet model reads kInvalidNode as
/// "no subject", i.e. the anonymous format, so a plain frame may not name it.
template <class IO, class P>
bool subject(IO& io, P& p) {
    return io.uint(4, p.ls_subject) && io.rule(p.ls_subject != kInvalidNode);
}

/// The wire format, stated once: every field of `p` in on-air order. `P` is
/// `const Packet` when encoding, where flag bits are computed from the
/// packet, and `Packet` when decoding, where they are read into it. The
/// decoder accepts only what the encoder writes (every `rule`), so an `ok`
/// decode re-encodes to its input bytes.
template <class IO, class P>
bool fields(IO& io, P& p) {
    constexpr bool kEncoding = std::is_const_v<P>;
    if (!(io.uint(1, p.type) &&
          io.expect(p.type <= PacketType::kLocDigest, DecodeError::kBadType)))
        return false;

    std::uint8_t flags = 0;
    switch (p.type) {
        case PacketType::kGpsrHello:
            return io.uint(4, p.src_id) && vec(io, p.hello_loc) && io.time(p.hello_ts);

        case PacketType::kGpsrData:
            return io.uint(4, p.src_id) && io.uint(4, p.dst_id) && vec(io, p.dst_loc) &&
                   io.rest(p.body);

        case PacketType::kAgfwHello:
            if constexpr (kEncoding) {
                if (f32_nonzero(p.hello_velocity)) flags |= kFlagVelocity;
                if (!p.auth.empty()) flags |= kFlagAuth;
            }
            if (!(io.uint(1, flags) && io.rule((flags & ~kHelloFlags) == 0) &&
                  io.uint(6, p.hello_pseudonym) && vec(io, p.hello_loc) && io.time(p.hello_ts)))
                return false;
            // A velocity hint is a non-zero vector of numbers (a NaN would not
            // survive the f32 round trip bit for bit).
            if ((flags & kFlagVelocity) &&
                !(io.f32(p.hello_velocity.x) && io.f32(p.hello_velocity.y) &&
                  io.rule(f32_nonzero(p.hello_velocity) && !std::isnan(p.hello_velocity.x) &&
                          !std::isnan(p.hello_velocity.y))))
                return false;
            // Ring signature, then certificate references (§4): 4-byte serials.
            return !(flags & kFlagAuth) ||
                   (io.blob(p.auth) && io.rule(!p.auth.empty()) &&
                    io.list(p.ring_members, 4, [&](auto& id) { return io.uint(4, id); }));

        case PacketType::kAgfwData:
            if constexpr (kEncoding) {
                if (p.perimeter_mode) flags |= kFlagPerimeter;
            }
            return io.uint(1, flags) && io.rule((flags & ~kFlagPerimeter) == 0) &&
                   vec(io, p.dst_loc) &&
                   io.uint(6, p.next_hop_pseudonym) && perimeter(io, p, flags) &&
                   io.blob(p.trapdoor) && io.rest(p.body);

        case PacketType::kAgfwAck:
            return io.list(p.ack_uids, 8, [&](auto& uid) { return io.uint(8, uid); });

        case PacketType::kLocUpdate:
        case PacketType::kLocReplicate:
        case PacketType::kLocRequest:
        case PacketType::kLocReply:
        case PacketType::kLocDigest:
            break;
    }

    // Location-service header, shared by all five LS types. A digest travels
    // one hop in the anonymous row format, so it always sets the anonymous
    // bit and never the perimeter bit.
    const bool digest = p.type == PacketType::kLocDigest;
    if constexpr (kEncoding) {
        if (digest || p.ls_subject == kInvalidNode) flags |= kFlagAnonymous;
        if (p.ls_assist) flags |= kFlagAssist;
        if (p.perimeter_mode && !digest) flags |= kFlagPerimeter;
    }
    if (!(io.uint(1, flags) && io.rule((flags & ~kLsFlags) == 0) &&
          io.rule(!digest || (flags & (kFlagAnonymous | kFlagPerimeter)) == kFlagAnonymous) &&
          io.uint(6, p.next_hop_pseudonym) && io.uint(4, p.grid) && vec(io, p.dst_loc) &&
          perimeter(io, p, flags)))
        return false;
    if constexpr (!kEncoding) p.ls_assist = (flags & kFlagAssist) != 0;
    const bool plain = !(flags & kFlagAnonymous);

    switch (p.type) {
        case PacketType::kLocUpdate:
        case PacketType::kLocReplicate:
            if (!plain) return io.rest(p.ls_payload);
            return subject(io, p) && vec(io, p.ls_subject_loc) && io.time(p.created_at);

        case PacketType::kLocRequest:
            if (!(vec(io, p.requester_loc) && io.uint(8, p.ls_query_id))) return false;
            // Indexed ALS sends E_{K_B}(A,B); index-free sends length 0.
            if (!plain) return io.blob(p.ls_index);
            return subject(io, p) && io.uint(4, p.src_id);

        case PacketType::kLocReply:
            if (!io.uint(8, p.ls_query_id)) return false;
            if (!plain) return io.rest(p.ls_payload);
            return io.uint(4, p.dst_id) && subject(io, p) && vec(io, p.ls_subject_loc);

        default:
            // Anti-entropy digest: (key hash, expiry) summaries only — never
            // a location, payload, or cleartext identity. Rows are sorted by
            // hash (ties allowed) so receivers can binary-search them.
            std::uint64_t last_hash = 0;
            return io.list(p.ls_digest, 16, [&](auto& row) {
                return io.uint(8, row.key_hash) && io.uint(8, row.expires_ns) &&
                       io.rule(std::exchange(last_hash, row.key_hash) <= row.key_hash);
            });
    }
}

}  // namespace

Bytes encode(const Packet& p) {
    Bytes out;
    out.reserve(encoded_size(p));
    Encoder io{&out};
    fields(io, p);
    return out;
}

std::size_t encoded_size(const Packet& p) {
    Encoder io;
    fields(io, p);
    return io.size;
}

const char* decode_error_name(DecodeError e) {
    switch (e) {
        case DecodeError::kOk: return "ok";
        case DecodeError::kEmpty: return "empty";
        case DecodeError::kBadType: return "bad-type";
        case DecodeError::kTruncated: return "truncated";
        case DecodeError::kBadLength: return "bad-length";
        case DecodeError::kTrailingBytes: return "trailing-bytes";
        case DecodeError::kBadValue: return "bad-value";
    }
    return "?";
}

DecodeResult decode_ex(std::span<const std::uint8_t> wire) {
    if (wire.empty()) return DecodeResult{std::nullopt, DecodeError::kEmpty};
    Decoder io{ByteReader(wire)};
    Packet p;
    if (!fields(io, p)) return DecodeResult{std::nullopt, io.error};
    if (io.r.remaining() != 0) return DecodeResult{std::nullopt, DecodeError::kTrailingBytes};
    p.wire_bytes = static_cast<std::uint32_t>(wire.size());
    return DecodeResult{std::move(p), DecodeError::kOk};
}

std::optional<Packet> decode(std::span<const std::uint8_t> wire) {
    return decode_ex(wire).packet;
}

}  // namespace geoanon::net::codec
