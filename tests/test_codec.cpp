#include <gtest/gtest.h>

#include "net/codec.hpp"
#include "routing/wire.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using net::Packet;
using net::PacketType;
using util::Bytes;
using util::SimTime;
using util::Vec2;
namespace codec = net::codec;

Packet base_packet(PacketType type) {
    Packet p;
    p.type = type;
    return p;
}

// -------------------------------------------------- size <-> constants

TEST(Codec, GpsrHelloSizeMatchesConstant) {
    Packet p = base_packet(PacketType::kGpsrHello);
    p.src_id = 7;
    p.hello_loc = {1, 2};
    EXPECT_EQ(codec::encoded_size(p), routing::kGpsrHelloBytes);
}

TEST(Codec, GpsrDataSizeMatchesConstant) {
    Packet p = base_packet(PacketType::kGpsrData);
    p.body = Bytes(64, 1);
    EXPECT_EQ(codec::encoded_size(p), routing::kGpsrDataHeaderBytes + 64);
}

TEST(Codec, AgfwHelloBaseSizeMatchesConstant) {
    Packet p = base_packet(PacketType::kAgfwHello);
    p.hello_pseudonym = 0x123456789ABC;
    EXPECT_EQ(codec::encoded_size(p), routing::kAgfwHelloBaseBytes);
    p.hello_velocity = {3.0, -1.0};
    EXPECT_EQ(codec::encoded_size(p), routing::kAgfwHelloBaseBytes + 8);
}

TEST(Codec, AgfwHelloAuthAddsSigAndRefs) {
    Packet p = base_packet(PacketType::kAgfwHello);
    p.auth = Bytes(236, 0x5A);
    p.ring_members = {1, 2, 3, 4, 5};
    EXPECT_EQ(codec::encoded_size(p), routing::kAgfwHelloBaseBytes + 2 + 236 + 2 +
                                          5 * routing::kCertReferenceBytes);
}

TEST(Codec, AgfwDataSizeMatchesConstant) {
    Packet p = base_packet(PacketType::kAgfwData);
    p.trapdoor = Bytes(64, 2);
    p.body = Bytes(64, 3);
    EXPECT_EQ(codec::encoded_size(p), routing::kAgfwDataHeaderBytes + 64 + 64);
    p.perimeter_mode = true;
    EXPECT_EQ(codec::encoded_size(p), routing::kAgfwDataHeaderBytes + 64 + 64 +
                                          routing::kPerimeterHeaderBytes);
}

TEST(Codec, AgfwAckSizeMatchesConstant) {
    Packet p = base_packet(PacketType::kAgfwAck);
    p.ack_uids = {42};
    EXPECT_EQ(codec::encoded_size(p), routing::kAgfwAckBytes);
    // Aggregated ACKs (§3.2): +8 bytes per additional uid.
    p.ack_uids = {42, 43, 44};
    EXPECT_EQ(codec::encoded_size(p), routing::kAgfwAckBytes + 16);
    const auto back = codec::decode(codec::encode(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->ack_uids, (std::vector<std::uint64_t>{42, 43, 44}));
}

TEST(Codec, PlainLocSizesMatchConstants) {
    Packet up = base_packet(PacketType::kLocUpdate);
    up.ls_subject = 5;  // plain row
    EXPECT_EQ(codec::encoded_size(up), routing::kPlainUpdateBytes);

    Packet req = base_packet(PacketType::kLocRequest);
    req.ls_subject = 5;
    req.src_id = 2;
    EXPECT_EQ(codec::encoded_size(req), routing::kPlainRequestBytes);

    Packet rep = base_packet(PacketType::kLocReply);
    rep.dst_id = 2;
    rep.ls_subject = 5;
    EXPECT_EQ(codec::encoded_size(rep), routing::kPlainReplyBytes);
}

TEST(Codec, AnonymousRequestCarriesIndexLength) {
    Packet req = base_packet(PacketType::kLocRequest);
    req.ls_index = Bytes(16, 9);
    EXPECT_EQ(codec::encoded_size(req), routing::kLocHeaderBytes + 16 + 8 + 2 + 16);
    // Index-free: zero-length index field.
    Packet free_req = base_packet(PacketType::kLocRequest);
    EXPECT_EQ(codec::encoded_size(free_req), routing::kLocHeaderBytes + 16 + 8 + 2);
}

// -------------------------------------------------------------- round trips

TEST(Codec, GpsrHelloRoundTrip) {
    Packet p = base_packet(PacketType::kGpsrHello);
    p.src_id = 17;
    p.hello_loc = {123.5, -7.25};
    p.hello_ts = SimTime::millis(1234);
    const auto back = codec::decode(codec::encode(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->src_id, 17u);
    EXPECT_EQ(back->hello_loc, p.hello_loc);
    EXPECT_EQ(back->hello_ts, p.hello_ts);
}

TEST(Codec, AgfwHelloRoundTripWithAuth) {
    Packet p = base_packet(PacketType::kAgfwHello);
    p.hello_pseudonym = 0xA1B2C3D4E5F6;
    p.hello_loc = {10, 20};
    p.hello_velocity = {4.5, -2.0};
    p.hello_ts = SimTime::seconds(9.0);
    p.auth = Bytes{1, 2, 3, 4, 5};
    p.ring_members = {11, 22, 33};
    const auto back = codec::decode(codec::encode(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->hello_pseudonym, p.hello_pseudonym);
    EXPECT_EQ(back->hello_loc, p.hello_loc);
    EXPECT_NEAR(back->hello_velocity.x, 4.5, 1e-5);  // f32 quantized
    EXPECT_NEAR(back->hello_velocity.y, -2.0, 1e-5);
    EXPECT_EQ(back->auth, p.auth);
    EXPECT_EQ(back->ring_members, p.ring_members);
}

TEST(Codec, AgfwDataRoundTripGreedyAndPerimeter) {
    Packet p = base_packet(PacketType::kAgfwData);
    p.dst_loc = {1400.0, 250.0};
    p.next_hop_pseudonym = 0x00DEAD00BEEF;
    p.trapdoor = Bytes(64, 0x7E);
    p.body = Bytes{9, 8, 7};
    {
        const auto back = codec::decode(codec::encode(p));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->dst_loc, p.dst_loc);
        EXPECT_EQ(back->next_hop_pseudonym, p.next_hop_pseudonym);
        EXPECT_EQ(back->trapdoor, p.trapdoor);
        EXPECT_EQ(back->body, p.body);
        EXPECT_FALSE(back->perimeter_mode);
    }
    p.perimeter_mode = true;
    p.perimeter_entry = {200, 0};
    p.prev_hop_loc = {150, 200};
    p.perimeter_hops = 3;
    {
        const auto back = codec::decode(codec::encode(p));
        ASSERT_TRUE(back.has_value());
        EXPECT_TRUE(back->perimeter_mode);
        EXPECT_EQ(back->perimeter_entry, p.perimeter_entry);
        EXPECT_EQ(back->prev_hop_loc, p.prev_hop_loc);
        EXPECT_EQ(back->perimeter_hops, 3u);
        EXPECT_EQ(back->body, p.body);
    }
}

TEST(Codec, LocPacketsRoundTrip) {
    Packet up = base_packet(PacketType::kLocUpdate);
    up.grid = 3;
    up.dst_loc = {1050, 150};
    up.next_hop_pseudonym = 0x1234;
    up.ls_payload = Bytes(120, 0x31);  // anonymous rows
    {
        const auto back = codec::decode(codec::encode(up));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->grid, 3u);
        EXPECT_EQ(back->ls_payload, up.ls_payload);
        EXPECT_EQ(back->ls_subject, net::kInvalidNode);
    }
    Packet req = base_packet(PacketType::kLocRequest);
    req.grid = 2;
    req.requester_loc = {75, 75};
    req.ls_query_id = 0xABCDEF;
    req.ls_index = Bytes(16, 0x44);
    req.ls_assist = true;
    {
        const auto back = codec::decode(codec::encode(req));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->requester_loc, req.requester_loc);
        EXPECT_EQ(back->ls_query_id, req.ls_query_id);
        EXPECT_EQ(back->ls_index, req.ls_index);
        EXPECT_TRUE(back->ls_assist);
    }
    Packet rep = base_packet(PacketType::kLocReply);
    rep.dst_id = 4;
    rep.ls_subject = 9;
    rep.ls_subject_loc = {500, 100};
    rep.ls_query_id = 77;
    {
        const auto back = codec::decode(codec::encode(rep));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->dst_id, 4u);
        EXPECT_EQ(back->ls_subject, 9u);
        EXPECT_EQ(back->ls_subject_loc, rep.ls_subject_loc);
    }
}

TEST(Codec, LocDigestSizeAndRoundTrip) {
    Packet p = base_packet(PacketType::kLocDigest);
    p.grid = 4;
    p.next_hop_pseudonym = 0x5555;
    p.dst_loc = {1350, 150};
    p.ls_digest = {{0x1111111111111111ULL, 5'000'000'000ULL},
                   {0x2222222222222222ULL, 9'000'000'000ULL},
                   {0xFFFFFFFFFFFFFFFFULL, 0ULL}};
    EXPECT_EQ(codec::encoded_size(p),
              routing::kLocDigestHeaderBytes + 3 * routing::kLocDigestRowBytes);
    const auto back = codec::decode(codec::encode(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->type, PacketType::kLocDigest);
    EXPECT_EQ(back->grid, 4u);
    EXPECT_EQ(back->ls_digest, p.ls_digest);

    // Empty digest (a restarted server advertising nothing) is legal.
    Packet empty = base_packet(PacketType::kLocDigest);
    empty.grid = 1;
    EXPECT_EQ(codec::encoded_size(empty), routing::kLocDigestHeaderBytes);
    const auto eback = codec::decode(codec::encode(empty));
    ASSERT_TRUE(eback.has_value());
    EXPECT_TRUE(eback->ls_digest.empty());
}

TEST(Codec, LocDigestRejectsOverlongRowCount) {
    Packet p = base_packet(PacketType::kLocDigest);
    p.ls_digest = {{1, 2}};
    auto wire = codec::encode(p);
    // Inflate the u16 row count past the frame end (count sits right before
    // the 16 row bytes at the tail).
    const std::size_t count_off = wire.size() - routing::kLocDigestRowBytes - 2;
    wire[count_off] = 0xFF;
    wire[count_off + 1] = 0xFF;
    EXPECT_FALSE(codec::decode(wire).has_value());
}

TEST(Codec, AccountingFieldsNeverReachTheWire) {
    // flow, seq, created_at, uid and hops are simulator bookkeeping: two
    // packets that differ only there must encode to the same bytes.
    Packet a = base_packet(PacketType::kAgfwData);
    a.trapdoor = Bytes{1, 2, 3};
    Packet b = a;
    b.flow = 3;
    b.seq = 99;
    b.created_at = SimTime::millis(777);
    b.uid = 0xFEED;
    b.hops = 6;
    EXPECT_EQ(codec::encode(a), codec::encode(b));
}

// ------------------------------------------------------------- malformed

TEST(Codec, RejectsTruncation) {
    Packet p = base_packet(PacketType::kAgfwData);
    p.trapdoor = Bytes(64, 1);
    p.body = Bytes(10, 2);
    const auto wire = codec::encode(p);
    for (std::size_t len : {0u, 1u, 5u, 20u, 25u}) {
        EXPECT_FALSE(codec::decode({wire.data(), len}).has_value()) << len;
    }
}

TEST(Codec, RejectsBadType) {
    Bytes wire{0xFF, 0x00, 0x00};
    EXPECT_FALSE(codec::decode(wire).has_value());
}

TEST(Codec, RejectsTrailingGarbageOnFixedTypes) {
    Packet p = base_packet(PacketType::kAgfwAck);
    auto wire = codec::encode(p);
    wire.push_back(0x00);
    EXPECT_FALSE(codec::decode(wire).has_value());
}

TEST(Codec, RejectsOverlongInnerLength) {
    Packet p = base_packet(PacketType::kAgfwData);
    p.trapdoor = Bytes(64, 1);
    auto wire = codec::encode(p);
    // Inflate the trapdoor length field beyond the frame: offset of the u16
    // is 1 type + 1 flags + 16 loc + 6 n = 24.
    wire[24] = 0xFF;
    wire[25] = 0xFF;
    EXPECT_FALSE(codec::decode(wire).has_value());
}

// --------------------------------------------------------------- fuzzing

TEST(Codec, RandomBytesNeverCrashDecode) {
    // Property: decode() is total — arbitrary input yields nullopt or a
    // packet, never UB/crash. (ASAN-friendly smoke fuzz.)
    util::Rng rng(20260706);
    for (int i = 0; i < 20000; ++i) {
        const auto len = static_cast<std::size_t>(rng.uniform_int(0, 200));
        Bytes junk(len);
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
        const auto out = codec::decode(junk);
        if (out) {
            EXPECT_LE(out->wire_bytes, len);
        }
    }
}

TEST(Codec, MutatedValidPacketsNeverCrashDecode) {
    util::Rng rng(77);
    Packet p = base_packet(PacketType::kAgfwData);
    p.dst_loc = {100, 100};
    p.next_hop_pseudonym = 0xABCDEF;
    p.trapdoor = Bytes(64, 0x5A);
    p.body = Bytes(32, 0x33);
    const Bytes wire = codec::encode(p);
    for (int i = 0; i < 5000; ++i) {
        Bytes mutated = wire;
        const int flips = static_cast<int>(rng.uniform_int(1, 4));
        for (int f = 0; f < flips; ++f) {
            const auto pos = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
            mutated[pos] = static_cast<std::uint8_t>(rng.next_u64());
        }
        (void)codec::decode(mutated);  // must not crash; result may be anything
    }
}

TEST(Codec, RoundTripIsIdempotentAcrossAllTypes) {
    // encode(decode(encode(p))) == encode(p) for representative packets.
    std::vector<Packet> packets;
    {
        Packet p = base_packet(PacketType::kGpsrHello);
        p.src_id = 3;
        p.hello_loc = {9, 9};
        packets.push_back(p);
    }
    {
        Packet p = base_packet(PacketType::kAgfwData);
        p.trapdoor = Bytes(64, 1);
        p.body = Bytes(10, 2);
        p.perimeter_mode = true;
        p.perimeter_entry = {1, 2};
        p.prev_hop_loc = {3, 4};
        packets.push_back(p);
    }
    {
        Packet p = base_packet(PacketType::kLocRequest);
        p.ls_index = Bytes(16, 7);
        p.ls_query_id = 5;
        packets.push_back(p);
    }
    {
        Packet p = base_packet(PacketType::kAgfwAck);
        p.ack_uids = {1, 2, 3};
        packets.push_back(p);
    }
    {
        Packet p = base_packet(PacketType::kLocDigest);
        p.grid = 2;
        p.ls_digest = {{0xAA, 1'000'000'000ULL}, {0xBB, 2'000'000'000ULL}};
        packets.push_back(p);
    }
    for (const Packet& p : packets) {
        const Bytes once = codec::encode(p);
        const auto back = codec::decode(once);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(codec::encode(*back), once);
    }
}

// -------------------------------------- live-traffic accounting consistency

TEST(Codec, LiveTrafficWireBytesMatchEncoding) {
    // Snoop a short mixed scenario and verify that every transmitted packet's
    // accounted wire_bytes equals its canonical encoding (modulo the
    // full-certificate hello variant, which is accounted on top).
    for (workload::Scheme scheme : {workload::Scheme::kGpsrGreedy,
                                    workload::Scheme::kAgfwAck}) {
        workload::ScenarioConfig cfg;
        cfg.scheme = scheme;
        cfg.num_nodes = 30;
        cfg.sim_seconds = 30.0;
        cfg.traffic_stop_s = 25.0;
        cfg.seed = 13;
        cfg.location_service = routing::LocationService::Mode::kPlain;
        if (scheme == workload::Scheme::kAgfwAck)
            cfg.location_service = routing::LocationService::Mode::kAnonymous;
        cfg.agfw.enable_perimeter = true;  // exercise the perimeter header too
        workload::ScenarioRunner runner(cfg);
        runner.setup();

        std::uint64_t checked = 0, mismatched = 0;
        runner.network().channel().add_snoop(
            [&](const phy::Frame& f, const util::Vec2&) {
                if (!f.payload) return;
                ++checked;
                if (codec::encoded_size(*f.payload) != f.payload->wire_bytes)
                    ++mismatched;
            });
        runner.network().start_agents();
        runner.network().sim().run_until(SimTime::seconds(cfg.sim_seconds));

        EXPECT_GT(checked, 1000u) << workload::scheme_name(scheme);
        EXPECT_EQ(mismatched, 0u) << workload::scheme_name(scheme);
    }
}

}  // namespace
