#include "adversary/observation.hpp"

#include "net/packet.hpp"

namespace geoanon::adversary {

ObservationFeed::ObservationFeed(phy::Channel& channel) {
    channel.add_audit_snoop([this, &channel](const phy::Frame& f, const util::Vec2& pos,
                                             net::NodeId true_sender) {
        if (f.type != phy::Frame::Type::kData || !f.payload) return;
        std::uint64_t handle = 0;
        switch (f.payload->type) {
            case net::PacketType::kAgfwHello:
                handle = f.payload->hello_pseudonym;
                break;
            case net::PacketType::kGpsrHello:
                // A cleartext beacon identity is a handle that never
                // rotates — fold it in so the same linker covers the
                // no-anonymity baseline.
                handle = identity_handle(f.payload->src_id);
                break;
            default:
                return;
        }
        observations_.push_back(
            {channel.simulator().now().to_seconds(), pos, handle, true_sender});
    });
}

}  // namespace geoanon::adversary
