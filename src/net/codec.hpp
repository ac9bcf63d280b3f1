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
///  - a 1-byte flags field on AGFW data/hello and on every location-service
///    packet carries the velocity-hint, ring-signed, perimeter-mode, assist
///    and anonymous-row bits;
///  - trapdoor, ring-signature and ALS index blobs carry u16 length
///    prefixes; the app body and ALS row payloads are the frame remainder.
///
/// One walk over each packet type's fields, in on-air order, drives
/// encode(), encoded_size() and decode_ex() (codec.cpp), so the format is
/// stated once.
namespace codec {

/// Serialize to the canonical on-air representation. Supports every
/// PacketType the agents transmit. Accounting-only fields (flow, seq,
/// created_at, uid, hops) are never encoded: uid exists on the air only
/// implicitly, as the trapdoor bits (§3.2).
// geoanon: sink(air)
util::Bytes encode(const Packet& pkt);

/// Size of encode(pkt), counted without a buffer (allocates nothing).
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
    kBadValue,       ///< a non-canonical value the encoder never writes: a
                     ///< plain LS frame naming kInvalidNode, a flag bit its
                     ///< packet type does not define, a digest without the
                     ///< anonymous bit or with the perimeter bit, a velocity
                     ///< flag carrying (0, 0) or a NaN, a ring-signed flag
                     ///< with an empty signature, digest rows whose key
                     ///< hashes decrease
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
/// Accepts only canonical encodings: an `ok` decode re-encodes to `wire`.
DecodeResult decode_ex(std::span<const std::uint8_t> wire);

/// Parse a canonical byte string. Returns nullopt on any structural error
/// (truncation, bad type, inconsistent lengths).
std::optional<Packet> decode(std::span<const std::uint8_t> wire);

}  // namespace codec

}  // namespace geoanon::net
