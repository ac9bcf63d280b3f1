#pragma once

#include <optional>

#include "net/packet.hpp"

namespace geoanon::net {

/// Reference wire format for network-layer packets.
///
/// The simulator forwards structured Packet objects for speed, carrying an
/// explicit `wire_bytes` size used for airtime and overhead accounting. This
/// codec is the ground truth behind those numbers: `encode()` produces the
/// canonical on-air byte string and `encoded_size()` is asserted (in tests)
/// to equal the accounting the agents perform. `decode()` round-trips every
/// routable field and rejects malformed input, so the format is actually
/// implementable — not just counted.
///
/// Format notes:
///  - locations are two f64 coordinates (16 bytes); timestamps are u64 ns;
///  - pseudonyms travel as 48-bit values (6 bytes), the size of a MAC
///    address (§5 of the paper);
///  - a 1-byte flags field on AGFW data/hello carries the velocity-hint and
///    perimeter-mode bits;
///  - trapdoor and ring-signature blobs carry u16 length prefixes; the app
///    body is the frame remainder.
namespace codec {

/// Serialize to the canonical on-air representation. Supports every
/// PacketType the agents transmit. Accounting-only fields (flow, seq,
/// created_at, uid, hops) are never encoded: uid exists on the air only
/// implicitly, as the trapdoor bits (§3.2).
// geoanon: sink(air)
util::Bytes encode(const Packet& pkt);

/// Size of encode(pkt) without materializing it.
std::size_t encoded_size(const Packet& pkt);

/// Why a decode rejected its input. Every malformed frame maps to exactly
/// one of these; the fuzz harness and the regression tests assert on them.
enum class DecodeError : std::uint8_t {
    kOk = 0,
    kEmpty,          ///< zero-length input (no type byte)
    kBadType,        ///< type byte outside the PacketType range
    kTruncated,      ///< ran out of bytes mid-field
    kBadLength,      ///< a length/count field exceeds the bytes that remain
    kTrailingBytes,  ///< fixed-layout packet followed by extra bytes
};

/// Human-readable name for a DecodeError (stable; used in fuzz output).
const char* decode_error_name(DecodeError e);

/// Parse outcome: `packet` is engaged iff `error == kOk`.
struct DecodeResult {
    std::optional<Packet> packet;
    DecodeError error{DecodeError::kOk};
};

/// Parse a canonical byte string, reporting why malformed input was
/// rejected. Never reads out of bounds and never throws: any structural
/// error (truncation, bad type, inconsistent lengths) yields a diagnostic.
DecodeResult decode_ex(std::span<const std::uint8_t> wire);

/// Parse a canonical byte string. Returns nullopt on any structural error
/// (truncation, bad type, inconsistent lengths).
std::optional<Packet> decode(std::span<const std::uint8_t> wire);

}  // namespace codec

}  // namespace geoanon::net
