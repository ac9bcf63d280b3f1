#include "probes.hpp"

#include <chrono>
#include <memory>
#include <vector>

#include "crypto/engine.hpp"
#include "net/codec.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

using namespace geoanon;

namespace perfbench {

namespace {

/// Results of probe loops land here so the compiler cannot drop the work.
volatile double g_sink = 0.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Self-rescheduling timer with a 40-byte capture, the simulator's inline
/// callback budget and the shape of the protocol's own timers.
struct ChurnTimer {
    sim::Simulator* s;
    util::SimTime period;
    std::uint64_t ctx[3];
    void operator()() { s->after(period, ChurnTimer{*this}); }
};

/// One radio's 1 Hz beacon; the scheduled event captures only [this].
struct Beacon {
    sim::Simulator* sim;
    phy::Radio* radio;
    void tick() {
        phy::Frame f;
        f.wire_bytes = 100;
        if (!radio->transmitting()) radio->start_tx(f);
        sim->after(util::SimTime::seconds(1.0), [this] { tick(); });
    }
};

}  // namespace

double kernel_ns_per_event(std::size_t timers, std::uint64_t min_events) {
    if (timers == 0) timers = 1;
    sim::Simulator sim;
    util::Rng rng(7);
    for (std::size_t i = 0; i < timers; ++i) {
        const auto period = util::SimTime::micros(500 + rng.uniform_int(0, 1000));
        sim.after(period, ChurnTimer{&sim, period, {i, i * 31, ~i}});
    }
    // Mean period is 1 ms, so each simulated second fires ~1000 per timer.
    const double sim_s =
        static_cast<double>(min_events) / (static_cast<double>(timers) * 1000.0) + 0.01;
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_until(util::SimTime::seconds(sim_s));
    const double wall = seconds_since(t0);
    return wall * 1e9 / static_cast<double>(sim.events_processed());
}

ChannelProbe channel_probe(std::size_t nodes, const mobility::Area& area,
                           const mobility::RandomWaypoint::Params& rwp,
                           const phy::PhyParams& phy, std::uint64_t min_tx) {
    sim::Simulator sim;
    phy::Channel channel(sim, phy);
    util::Rng rng(99);
    std::vector<std::unique_ptr<mobility::RandomWaypoint>> movers;
    std::vector<std::unique_ptr<phy::Radio>> radios;
    std::vector<Beacon> beacons;
    movers.reserve(nodes);
    radios.reserve(nodes);
    beacons.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
        movers.push_back(std::make_unique<mobility::RandomWaypoint>(
            area, area.random_point(rng), rwp, rng.fork()));
        radios.push_back(std::make_unique<phy::Radio>(sim, channel, *movers.back()));
        radios.back()->set_mac_hooks(nullptr, nullptr, nullptr);
        beacons.push_back(Beacon{&sim, radios.back().get()});
        Beacon* b = &beacons.back();
        sim.at(util::SimTime::seconds(static_cast<double>(i) / static_cast<double>(nodes)),
               [b] { b->tick(); });
    }
    const double sim_s = static_cast<double>(min_tx) / static_cast<double>(nodes) + 1.0;
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_until(util::SimTime::seconds(sim_s));
    const double wall = seconds_since(t0);
    ChannelProbe out;
    out.transmissions = channel.stats().transmissions;
    out.deliveries = channel.stats().deliveries;
    out.ns_per_tx = wall * 1e9 / static_cast<double>(out.transmissions);
    return out;
}

double mobility_ns_per_position(std::size_t nodes, const mobility::Area& area,
                                const mobility::RandomWaypoint::Params& rwp,
                                std::uint64_t min_queries) {
    util::Rng rng(11);
    std::vector<mobility::RandomWaypoint> models;
    models.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i)
        models.emplace_back(area, area.random_point(rng), rwp, rng.fork());
    double sink = 0.0;
    std::uint64_t queries = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t tick = 0; queries < min_queries; ++tick) {
        const util::SimTime t = util::SimTime::millis(100 * tick);
        for (auto& m : models) sink += m.position_at(t).x;
        queries += nodes;
    }
    const double wall = seconds_since(t0);
    g_sink = sink;
    return wall * 1e9 / static_cast<double>(queries);
}

std::map<std::string, double> crypto_ns_per_call(std::size_t calls) {
    crypto::ModeledCryptoEngine engine(17, 512);
    constexpr crypto::NodeIdNum kNodes = 64;
    for (crypto::NodeIdNum i = 0; i < kNodes; ++i) engine.register_node(i);
    util::Rng rng(23);
    // The payload sizes AGFW and the ALS use: a trapdoor carries
    // (id, x, y, tag), an ALS row (id, x, y, time); 32 bytes each.
    const util::Bytes payload(32, 0x5A);
    std::uint64_t sink = 0;
    std::map<std::string, double> out;
    const auto time_op = [&](const char* name, auto&& op) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < calls; ++i) sink += op(static_cast<crypto::NodeIdNum>(i));
        out[name] = seconds_since(t0) * 1e9 / static_cast<double>(calls);
    };

    time_op("make_pseudonym",
            [&](crypto::NodeIdNum i) { return engine.make_pseudonym(i % kNodes, rng.next_u64()); });
    time_op("anonymize_uid", [&](crypto::NodeIdNum i) { return engine.anonymize_uid(i); });

    std::vector<util::Bytes> trapdoors;
    trapdoors.reserve(calls);
    time_op("make_trapdoor", [&](crypto::NodeIdNum i) {
        trapdoors.push_back(engine.make_trapdoor(i % kNodes, payload, rng));
        return trapdoors.back().size();
    });
    // Half the openings succeed: the owner and a bystander alternate, as
    // at the nodes of a last-hop region.
    time_op("try_open_trapdoor", [&](crypto::NodeIdNum i) {
        const auto self = (i % kNodes) ^ (i & 1);
        return engine.try_open_trapdoor(self, trapdoors[i]).has_value() ? 1u : 0u;
    });

    std::vector<util::Bytes> rows;
    rows.reserve(calls);
    time_op("encrypt_for", [&](crypto::NodeIdNum i) {
        rows.push_back(engine.encrypt_for(i % kNodes, payload, rng));
        return rows.back().size();
    });
    time_op("try_decrypt", [&](crypto::NodeIdNum i) {
        const auto self = (i % kNodes) ^ (i & 1);
        return engine.try_decrypt(self, rows[i]).has_value() ? 1u : 0u;
    });
    time_op("als_index", [&](crypto::NodeIdNum i) {
        return engine.als_index(i % kNodes, (i + 1) % kNodes).size();
    });
    g_sink = static_cast<double>(sink);
    return out;
}

AlsUpdateSizes als_update_sizes() {
    crypto::ModeledCryptoEngine engine(17, 512);
    engine.register_node(1);
    util::Rng rng(5);
    const util::Bytes plain(32, 0x5A);

    // Built as LocationService::send_update builds an anonymous update.
    const auto update_bytes = [&](std::uint32_t rows) {
        util::ByteWriter w;
        w.u32(rows);
        for (std::uint32_t i = 0; i < rows; ++i) {
            w.bytes(engine.als_index(1, 1));
            w.bytes(engine.encrypt_for(1, plain, rng));
        }
        auto pkt = net::make_packet();
        pkt->type = net::PacketType::kLocUpdate;
        pkt->ls_payload = w.take();
        return static_cast<std::uint64_t>(net::codec::encoded_size(*pkt));
    };
    AlsUpdateSizes out;
    out.empty_bytes = update_bytes(0);
    out.row_bytes = update_bytes(1) - out.empty_bytes;
    return out;
}

}  // namespace perfbench
