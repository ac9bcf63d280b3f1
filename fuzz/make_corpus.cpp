// Regenerates the checked-in fuzz seed corpus (fuzz/corpus/*.hex).
//
// The corpus has two halves:
//  - valid encodings of every PacketType and flag combination, produced by
//    the codec itself (seeds for mutation-based fuzzing, and regression
//    anchors for the replayer);
//  - deliberately malformed frames — truncated headers, oversized length
//    fields, bad type bytes, trailing garbage — each named after the
//    DecodeError it must map to, which tests/test_codec_fuzz_regressions.cpp
//    asserts.
//
// Usage: make_corpus <output-dir>   (idempotent; overwrites existing files)

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "net/codec.hpp"
#include "util/bytes.hpp"

using geoanon::net::kInvalidNode;
using geoanon::net::Packet;
using geoanon::net::PacketType;
using geoanon::util::Bytes;
using geoanon::util::SimTime;
using geoanon::util::Vec2;

namespace {

std::filesystem::path g_out_dir;
int g_written = 0;

void emit(const std::string& name, const Bytes& wire) {
    const auto path = g_out_dir / (name + ".hex");
    std::ofstream out(path);
    out << geoanon::util::to_hex(wire) << "\n";
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    ++g_written;
}

Packet base_agfw_data() {
    Packet p;
    p.type = PacketType::kAgfwData;
    p.dst_loc = Vec2{812.5, 137.25};
    p.next_hop_pseudonym = 0x0000A1B2C3D4E5ULL;
    p.trapdoor = Bytes{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02};
    p.body = Bytes(16, 0xAB);
    return p;
}

void valid_seeds() {
    using geoanon::net::codec::encode;

    Packet hello;
    hello.type = PacketType::kGpsrHello;
    hello.src_id = 7;
    hello.hello_loc = Vec2{10.0, 20.0};
    hello.hello_ts = SimTime::seconds(1.5);
    emit("valid_gpsr_hello", encode(hello));

    Packet data;
    data.type = PacketType::kGpsrData;
    data.src_id = 3;
    data.dst_id = 9;
    data.dst_loc = Vec2{100.0, 200.0};
    data.body = Bytes(8, 0x5A);
    emit("valid_gpsr_data", encode(data));

    Packet ahello;
    ahello.type = PacketType::kAgfwHello;
    ahello.hello_pseudonym = 0x00001234567890ULL & 0xFFFFFFFFFFFFULL;
    ahello.hello_loc = Vec2{55.5, 66.25};
    ahello.hello_ts = SimTime::seconds(2.0);
    emit("valid_agfw_hello", encode(ahello));

    Packet vhello = ahello;
    vhello.hello_velocity = Vec2{1.5, -2.5};
    emit("valid_agfw_hello_velocity", encode(vhello));

    Packet shello = vhello;
    shello.auth = Bytes(32, 0xC3);
    shello.ring_members = {11, 22, 33, 44, 55};
    emit("valid_agfw_hello_ring_signed", encode(shello));

    emit("valid_agfw_data", encode(base_agfw_data()));

    Packet perim = base_agfw_data();
    perim.perimeter_mode = true;
    perim.perimeter_entry = Vec2{400.0, 150.0};
    perim.prev_hop_loc = Vec2{380.0, 160.0};
    perim.perimeter_hops = 5;
    emit("valid_agfw_data_perimeter", encode(perim));

    // §3.2 "last forwarding attempt": pseudonym 0 broadcast near the target.
    Packet last = base_agfw_data();
    last.next_hop_pseudonym = 0;
    emit("valid_agfw_data_last_attempt", encode(last));

    Packet ack;
    ack.type = PacketType::kAgfwAck;
    ack.ack_uids = {0x1111111111111111ULL, 0x2222222222222222ULL, 3};
    emit("valid_agfw_ack_batch", encode(ack));

    Packet up;
    up.type = PacketType::kLocUpdate;
    up.next_hop_pseudonym = 0x0000F0E1D2C3B4ULL;
    up.grid = 12;
    up.dst_loc = Vec2{900.0, 150.0};
    up.ls_payload = Bytes(24, 0x77);  // anonymous row: E_{K_B}(A, loc_A, ts)
    emit("valid_als_update", encode(up));

    Packet plain_up = up;
    plain_up.ls_payload.clear();
    plain_up.ls_subject = 17;
    plain_up.ls_subject_loc = Vec2{333.0, 111.0};
    plain_up.created_at = SimTime::seconds(4.0);
    emit("valid_dlm_update", encode(plain_up));

    Packet req;
    req.type = PacketType::kLocRequest;
    req.next_hop_pseudonym = 0x00000A0B0C0D0EULL;
    req.grid = 3;
    req.dst_loc = Vec2{450.0, 90.0};
    req.requester_loc = Vec2{100.0, 100.0};
    req.ls_query_id = 42;
    req.ls_index = Bytes(16, 0x3C);  // indexed ALS row E_{K_B}(A,B)
    emit("valid_als_request_indexed", encode(req));

    Packet reqf = req;
    reqf.ls_index.clear();  // index-free variant sends length 0
    emit("valid_als_request_indexfree", encode(reqf));

    Packet rep;
    rep.type = PacketType::kLocReply;
    rep.next_hop_pseudonym = 0x00005566778899ULL;
    rep.grid = 3;
    rep.dst_loc = Vec2{100.0, 100.0};
    rep.ls_query_id = 42;
    rep.ls_payload = Bytes(24, 0x9F);
    emit("valid_als_reply", encode(rep));

    Packet repl = up;
    repl.type = PacketType::kLocReplicate;
    repl.ls_assist = true;
    emit("valid_als_replicate_assist", encode(repl));

    Packet digest;
    digest.type = PacketType::kLocDigest;
    digest.next_hop_pseudonym = 0x0000DEADBEEF01ULL;
    digest.grid = 12;
    digest.dst_loc = Vec2{900.0, 150.0};
    digest.ls_digest = {{0x1122334455667788ULL, 5'000'000'000ULL},
                        {0x99AABBCCDDEEFF00ULL, 9'500'000'000ULL}};
    digest.ls_assist = true;  // digests travel one hop, assist-flagged
    emit("valid_als_digest", encode(digest));

    // A valid data frame followed by 26 zero bytes, the size of the
    // accounting fields (flow, seq, created_at, uid, hops) that never reach
    // the wire: a valid prefix the decoder must reject as trailing bytes.
    Bytes traced = encode(base_agfw_data());
    traced.resize(traced.size() + 26, 0);
    emit("valid_agfw_data_traced", traced);
}

void malformed_seeds() {
    using geoanon::net::codec::encode;

    emit("reject_empty", Bytes{});
    emit("reject_bad_type", Bytes{0xFF, 0x00, 0x01});

    // Truncated headers: every prefix class of an AGFW data frame.
    const Bytes data = encode(base_agfw_data());
    emit("reject_truncated_type_only", Bytes{data[0]});
    emit("reject_truncated_mid_loc", Bytes(data.begin(), data.begin() + 9));
    emit("reject_truncated_mid_pseudonym",
         Bytes(data.begin(), data.begin() + 1 + 1 + 16 + 3));

    // Oversized u16 length fields. Layout of kAgfwData after the 24-byte
    // fixed header (type, flags, loc, n): [td_len u16][trapdoor][body].
    {
        Bytes big = data;
        const std::size_t td_len_at = 1 + 1 + 16 + 6;
        big[td_len_at] = 0xFF;  // claims 65281+ bytes of trapdoor
        big[td_len_at + 1] = 0x01;
        emit("reject_oversized_trapdoor_len", big);
    }
    {
        Packet hello;
        hello.type = PacketType::kAgfwHello;
        hello.hello_pseudonym = 0x42;
        hello.hello_loc = Vec2{1.0, 2.0};
        hello.hello_ts = SimTime::seconds(1.0);
        hello.auth = Bytes(8, 0xAA);
        hello.ring_members = {1, 2, 3};
        Bytes wire = encode(hello);
        const std::size_t auth_len_at = 1 + 1 + 6 + 16 + 8;  // flags..ts
        wire[auth_len_at] = 0xFF;
        wire[auth_len_at + 1] = 0xFF;
        emit("reject_oversized_auth_len", wire);
    }
    {
        Packet ack;
        ack.type = PacketType::kAgfwAck;
        ack.ack_uids = {1};
        Bytes wire = encode(ack);
        wire[1] = 0x7F;  // claims 32513 uids with 8 bytes present
        wire[2] = 0x01;
        emit("reject_oversized_ack_count", wire);
    }

    // Digest whose row count claims more rows than the frame carries.
    {
        Packet digest;
        digest.type = PacketType::kLocDigest;
        digest.next_hop_pseudonym = 0x42;
        digest.grid = 1;
        digest.dst_loc = Vec2{100.0, 100.0};
        digest.ls_digest = {{0xAAULL, 1'000'000'000ULL}};
        Bytes wire = encode(digest);
        const std::size_t count_at = wire.size() - 16 - 2;  // one 16-byte row
        wire[count_at] = 0xFF;
        wire[count_at + 1] = 0xFF;
        emit("reject_oversized_digest_count", wire);
    }

    // Zero-pseudonym (last-hop) frame with a truncated trapdoor: the
    // last-attempt path must still reject cleanly.
    {
        Packet last = base_agfw_data();
        last.next_hop_pseudonym = 0;
        Bytes wire = encode(last);
        wire.resize(1 + 1 + 16 + 6 + 1);  // cut inside td_len
        emit("reject_last_attempt_truncated_len", wire);
    }

    // Fixed-layout packet with trailing garbage.
    {
        Packet hello;
        hello.type = PacketType::kGpsrHello;
        hello.src_id = 1;
        hello.hello_loc = Vec2{0.0, 0.0};
        hello.hello_ts = SimTime::zero();
        Bytes wire = encode(hello);
        wire.push_back(0xEE);
        emit("reject_trailing_bytes", wire);
    }
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
        return 2;
    }
    g_out_dir = argv[1];
    std::filesystem::create_directories(g_out_dir);
    valid_seeds();
    malformed_seeds();
    std::printf("wrote %d corpus files to %s\n", g_written, g_out_dir.c_str());
    return 0;
}
