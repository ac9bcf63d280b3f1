#pragma once

#include <cstdint>

namespace geoanon::net {

/// Node identity — the "real" identity the anonymity machinery hides.
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFF;

/// Link-layer address. GPSR mode uses per-node unique addresses; AGFW mode
/// sends every frame to/from the broadcast address (§3.2: no MAC source or
/// destination addresses are exposed).
using MacAddr = std::uint64_t;
inline constexpr MacAddr kBroadcastAddr = 0xFFFFFFFFFFFFULL;

/// The one rule tying a node to its persistent MAC address (never 0 or the
/// broadcast address).
constexpr MacAddr mac_of(NodeId id) { return static_cast<MacAddr>(id) + 1; }
/// Inverse of mac_of: the node that owns a persistent MAC address.
// geoanon: source(node-id)
constexpr NodeId node_of_mac(MacAddr mac) { return static_cast<NodeId>(mac - 1); }

/// Flow identity for metric accounting (not carried on the air).
using FlowId = std::uint32_t;

}  // namespace geoanon::net
