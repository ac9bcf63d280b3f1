#include "adversary/observation.hpp"

namespace geoanon::adversary {

ObservationFeed::ObservationFeed(phy::Channel& channel, GroundTruthFn mac_owner,
                                 Params params)
    : params_(params), ground_truth_(std::move(mac_owner)) {
    channel.add_audit_snoop([this, &channel](const phy::Frame& f, const util::Vec2& pos,
                                             net::NodeId true_sender) {
        on_frame(f, pos, true_sender, channel.simulator().now().to_seconds());
    });
}

void ObservationFeed::on_frame(const phy::Frame& frame, const util::Vec2& pos,
                               net::NodeId true_sender, double t_s) {
    ++frames_seen_;

    if (params_.record) {
        Observation o;
        o.t_s = t_s;
        o.pos = pos;
        o.true_sender = true_sender;
        if (frame.type == phy::Frame::Type::kData && frame.payload) {
            switch (frame.payload->type) {
                case net::PacketType::kAgfwHello:
                    o.kind = ObservationKind::kHello;
                    o.handle = frame.payload->hello_pseudonym;
                    break;
                case net::PacketType::kGpsrHello:
                    // A cleartext beacon identity is a handle that never
                    // rotates — fold it in so the same linker covers the
                    // no-anonymity baseline.
                    o.kind = ObservationKind::kHello;
                    o.handle = identity_handle(frame.payload->src_id);
                    break;
                case net::PacketType::kAgfwData:
                case net::PacketType::kGpsrData:
                    o.kind = ObservationKind::kData;
                    break;
                default:
                    o.kind = ObservationKind::kOther;
                    break;
            }
        }
        observations_.push_back(o);
    }

    for (const FrameFn& fn : subscribers_) fn(frame, pos, t_s);
}

}  // namespace geoanon::adversary
