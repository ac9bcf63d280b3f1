// Engine scaling: event-kernel throughput, spatial-hash channel cost, and
// identity checks of the grid against the single-cell reference.
//
// Three measurements, same machine, same seeds:
//
//  0. Kernel microbenchmark: K self-rescheduling timers with 40-byte
//     captures churning through the event queue with no protocol work at
//     all. Run once on the timer-wheel kernel (sim::Simulator) and once on
//     the binary-heap reference kernel (tests/reference/heap_simulator.hpp),
//     giving the kernel-layer events/sec ratio the timer wheel is
//     accountable for.
//
//  1. Channel microbenchmark: N mobile radios beaconing over a bare Channel
//     (no MAC, no routing), in a sparse wide-area field with unit-disk
//     physics (carrier-sense range == decode range). This isolates the
//     neighbor-query cost of the spatial grid. Unless --skip-brute, the same
//     field runs again on the single-cell reference (one infinite grid cell,
//     every radio a candidate; tests/reference/single_cell.hpp) and a
//     delivery digest (receiver id folded with the reception timestamp)
//     must match, proving the same delivery schedule, not just the same
//     counts. The reference is not timed: it sorts all N candidates per
//     transmission, so it is no speed baseline. With
//     --sweep=10000,100000,1000000 the grid runs alone at each count
//     (routing off — this is how the 100k and 1M points are measured).
//
//  2. Full scenario: the complete AGFW stack (MAC, crypto, routing, traps)
//     at the base node count, timed on the grid. The row also reports its
//     memory footprint: VmRSS right after setup() and VmHWM over the run
//     (the peak mark is reset before each run; both are the max over the
//     row's seeds). Unless --skip-brute, every seed runs again on the
//     single-cell reference and the result JSON must be byte-identical.
//
// Exits non-zero if any identity check fails.
//
// Usage: scaling_grid [--nodes=500] [--seconds=60] [--degree=10] [--seeds=1]
//                     [--kernel-timers=10000] [--kernel-seconds=5]
//                     [--sweep=10000,100000] [--sweep-seconds=5]
//                     [--skip-brute] [--skip-scenario]
//                     [--json=BENCH_scaling.json]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mobility/mobility.hpp"
#include "phy/channel.hpp"
#include "reference/heap_simulator.hpp"
#include "reference/single_cell.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

using namespace geoanon;

namespace {

/// Sparse-field parameters for the channel microbenchmark. Degree ~3 is a
/// wide-area sensor-scatter regime: few decodable neighbors, so per-frame
/// reception work is small and the neighbor query dominates — exactly the
/// load the spatial index exists for. Unit-disk physics keeps the energy
/// bookkeeping (shared by both channels) from masking the query cost.
constexpr double kChannelDegree = 3.0;
constexpr double kBeaconHz = 10.0;

/// A kB-valued line of /proc/self/status ("VmRSS:", "VmHWM:") in MiB; 0 when
/// unreadable.
double proc_status_mib(const std::string& key) {
    std::ifstream f("/proc/self/status");
    for (std::string line; std::getline(f, line);)
        if (line.rfind(key, 0) == 0) return std::atof(line.c_str() + key.size()) / 1024.0;
    return 0.0;
}

/// Reset VmHWM to the current RSS so the next read covers only later work.
void reset_peak_rss() {
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
}

// ---- Section 0: event-kernel churn -------------------------------------

struct KernelBenchResult {
    double wall_seconds{0};
    std::uint64_t events{0};
    double events_per_sec{0};
};

/// Self-rescheduling timer with a 40-byte state block — the simulator's
/// inline callback budget, and representative of real closures (a this
/// pointer plus a few ids). Each firing schedules a copy of itself.
template <typename Sim>
struct ChurnTimer {
    Sim* s;
    util::SimTime period;
    std::uint64_t ctx[3];
    void operator()() { s->after(period, ChurnTimer{*this}); }
};
static_assert(sizeof(ChurnTimer<sim::Simulator>) == 40);

template <typename Sim>
KernelBenchResult run_kernel_bench(std::size_t timers, double seconds) {
    Sim sim;
    util::Rng rng(7);
    for (std::size_t i = 0; i < timers; ++i) {
        const auto period = util::SimTime::micros(500 + rng.uniform_int(0, 1000));
        sim.after(period, ChurnTimer<Sim>{&sim, period, {i, i * 31, ~i}});
    }
    // geoanon-lint: begin-allow(wallclock) -- bench timing block: the events/sec column
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_until(util::SimTime::seconds(seconds));
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    // geoanon-lint: end-allow(wallclock)
    KernelBenchResult out;
    out.wall_seconds = wall;
    out.events = sim.events_processed();
    out.events_per_sec = wall > 0.0 ? static_cast<double>(out.events) / wall : 0.0;
    return out;
}

// ---- Section 1: channel microbenchmark ---------------------------------

struct ChannelBenchResult {
    double wall_seconds{0};
    std::uint64_t events{0};
    double events_per_sec{0};
    std::uint64_t transmissions{0};
    std::uint64_t deliveries{0};
    std::uint64_t collisions{0};
    std::uint64_t digest{0};
};

/// Per-radio beacon tick owned by the bench (the scheduled event captures
/// only [this] — no heap-held self-owning closures).
struct BeaconRig {
    sim::Simulator* sim;
    phy::Radio* radio;
    double period;
    void tick() {
        phy::Frame f;
        f.wire_bytes = 100;
        if (!radio->transmitting()) radio->start_tx(f);
        sim->after(util::SimTime::seconds(period), [this] { tick(); });
    }
};

ChannelBenchResult run_channel_bench(bool single_cell, std::size_t n, double seconds) {
    sim::Simulator sim;
    phy::PhyParams params;
    params.cs_range_m = params.range_m;  // unit disk
    if (single_cell) params = reference::single_cell(params);
    phy::Channel channel(sim, params);

    const double side = std::sqrt(static_cast<double>(n) * std::numbers::pi *
                                  params.range_m * params.range_m / kChannelDegree);
    const mobility::Area area{side, side};
    util::Rng rng(99);

    ChannelBenchResult out;
    std::vector<std::unique_ptr<mobility::RandomWaypoint>> movers;
    std::vector<std::unique_ptr<phy::Radio>> radios;
    movers.reserve(n);
    radios.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        mobility::RandomWaypoint::Params mp;
        mp.min_speed_mps = 1.0;
        mp.max_speed_mps = 20.0;
        mp.pause = util::SimTime::zero();
        movers.push_back(std::make_unique<mobility::RandomWaypoint>(
            area, area.random_point(rng), mp, rng.fork()));
        radios.push_back(std::make_unique<phy::Radio>(sim, channel, *movers.back()));
        radios.back()->set_mac_hooks(nullptr, nullptr, [&out, &sim, i](const phy::Frame&) {
            // Order-sensitive digest: any divergence in who hears what, when,
            // perturbs it.
            out.digest = (out.digest * 1099511628211ull) ^
                         (static_cast<std::uint64_t>(i) * 2654435761ull) ^
                         static_cast<std::uint64_t>(sim.now().ns());
        });
    }
    const double period = 1.0 / kBeaconHz;
    std::vector<BeaconRig> beacons;
    beacons.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        beacons.push_back(BeaconRig{&sim, radios[i].get(), period});
        BeaconRig* rig = &beacons.back();
        sim.at(util::SimTime::seconds(period * static_cast<double>(i) /
                                      static_cast<double>(n)),
               [rig] { rig->tick(); });
    }

    // geoanon-lint: begin-allow(wallclock) -- bench timing block: the wall and events/s columns; identity is asserted on the digest, not wall time
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_until(util::SimTime::seconds(seconds));
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    // geoanon-lint: end-allow(wallclock)
    out.events = sim.events_processed();
    out.events_per_sec =
        out.wall_seconds > 0.0 ? static_cast<double>(out.events) / out.wall_seconds : 0.0;
    out.transmissions = channel.stats().transmissions;
    out.deliveries = channel.stats().deliveries;
    out.collisions = channel.stats().collisions;
    return out;
}

std::vector<std::size_t> parse_sweep(const std::string& spec) {
    std::vector<std::size_t> out;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        if (!tok.empty()) out.push_back(static_cast<std::size_t>(std::stoull(tok)));
        pos = comma + 1;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const util::CliArgs args(argc, argv);
    const auto nodes = static_cast<std::size_t>(args.get("nodes", std::int64_t{500}));
    const double seconds = args.get("seconds", 60.0);
    const double degree = args.get("degree", 10.0);
    const double pause = args.get("pause", 0.0);
    const double pps = args.get("pps", 4.0);
    const int seeds = static_cast<int>(args.get("seeds", std::int64_t{1}));
    const bool skip_reference = args.has("skip-brute");
    const bool skip_scenario = args.has("skip-scenario");
    const auto kernel_timers =
        static_cast<std::size_t>(args.get("kernel-timers", std::int64_t{10000}));
    const double kernel_seconds = args.get("kernel-seconds", 5.0);
    const std::vector<std::size_t> sweep = parse_sweep(args.get("sweep", std::string{}));
    const double sweep_seconds = args.get("sweep-seconds", 5.0);

    // ---- Section 0: kernel microbenchmark --------------------------------
    std::printf("Kernel microbenchmark: %zu self-rescheduling timers (40 B "
                "captures), %.0f sim-seconds\n\n",
                kernel_timers, kernel_seconds);
    const KernelBenchResult kern_wheel =
        run_kernel_bench<sim::Simulator>(kernel_timers, kernel_seconds);
    const KernelBenchResult kern_heap =
        run_kernel_bench<reference::HeapSimulator>(kernel_timers, kernel_seconds);
    const double kern_speedup = kern_heap.events_per_sec > 0.0
                                    ? kern_wheel.events_per_sec / kern_heap.events_per_sec
                                    : 0.0;
    {
        util::TablePrinter table({"kernel", "wall (s)", "events", "events/s"});
        table.row()
            .cell("wheel")
            .cell(kern_wheel.wall_seconds, 3)
            .cell(static_cast<long long>(kern_wheel.events))
            .cell(kern_wheel.events_per_sec, 0);
        table.row()
            .cell("heap")
            .cell(kern_heap.wall_seconds, 3)
            .cell(static_cast<long long>(kern_heap.events))
            .cell(kern_heap.events_per_sec, 0);
        table.print();
        std::printf("\nkernel speedup (wheel/heap): %.2fx\n", kern_speedup);
    }

    // ---- Section 1: channel microbenchmark -------------------------------
    std::printf("\nChannel microbenchmark: %zu mobile radios, %.0f s, "
                "%.0f Hz beacons, mean degree ~%.0f, unit disk\n\n",
                nodes, seconds, kBeaconHz, kChannelDegree);
    const ChannelBenchResult chan_grid = run_channel_bench(false, nodes, seconds);
    bool chan_identical = true;
    {
        util::TablePrinter table(
            {"channel", "wall (s)", "events/s", "tx", "rx", "collisions"});
        table.row()
            .cell("grid")
            .cell(chan_grid.wall_seconds, 3)
            .cell(chan_grid.events_per_sec, 0)
            .cell(static_cast<long long>(chan_grid.transmissions))
            .cell(static_cast<long long>(chan_grid.deliveries))
            .cell(static_cast<long long>(chan_grid.collisions));
        table.print();
        if (!skip_reference) {
            const ChannelBenchResult ref = run_channel_bench(true, nodes, seconds);
            chan_identical = chan_grid.digest == ref.digest &&
                             chan_grid.transmissions == ref.transmissions &&
                             chan_grid.deliveries == ref.deliveries &&
                             chan_grid.collisions == ref.collisions;
            std::printf("\ndelivery schedule identical to the single-cell reference: %s\n",
                        chan_identical ? "yes" : "NO — INDEX BUG");
        }
    }

    // ---- Node-count sweep (routing off) ----------------------------------
    struct SweepPoint {
        std::size_t nodes;
        ChannelBenchResult r;
    };
    std::vector<SweepPoint> sweep_points;
    if (!sweep.empty()) {
        std::printf("\nNode sweep (grid channel, beacons only, %.0f s each):\n\n",
                    sweep_seconds);
        util::TablePrinter table({"nodes", "wall (s)", "events", "events/s", "tx"});
        for (const std::size_t n : sweep) {
            const ChannelBenchResult r = run_channel_bench(false, n, sweep_seconds);
            sweep_points.push_back({n, r});
            table.row()
                .cell(static_cast<long long>(n))
                .cell(r.wall_seconds, 3)
                .cell(static_cast<long long>(r.events))
                .cell(r.events_per_sec, 0)
                .cell(static_cast<long long>(r.transmissions));
        }
        table.print();
    }

    // ---- Section 2: full-scenario sweep ----------------------------------
    workload::ScenarioConfig base =
        bench::paper_scenario(workload::Scheme::kAgfwAck, nodes, seconds, 1);
    // Square area holding `nodes` at the requested mean neighbor degree.
    const double range = base.phy.range_m;
    const double side = std::sqrt(static_cast<double>(nodes) *
                                  std::numbers::pi * range * range / degree);
    base.area = mobility::Area{side, side};
    // Offered load scales with the network (the paper's 30 fixed flows are a
    // 50-node workload): 0.6 flows and 0.4 senders per node, as in §5.1.
    base.num_flows = nodes * 3 / 5;
    base.num_senders = nodes * 2 / 5;
    base.cbr_pps = pps;
    // Continuously mobile by default: a paused network lets every spatial
    // index look artificially cheap.
    base.pause_s = pause;

    experiment::PointRecord grid;
    grid.labels = {"grid"};
    double setup_rss_mib = 0.0;
    double peak_rss_mib = 0.0;
    bool scen_identical = true;
    const auto wall = [](const workload::ScenarioResult& r) { return r.perf.wall_seconds; };
    const auto eps = [](const workload::ScenarioResult& r) { return r.perf.events_per_sec; };
    if (!skip_scenario) {
        std::printf("\nFull scenario: %zu nodes, %.0f s, %.0fx%.0f m "
                    "(mean degree ~%.0f), %d seed(s)\n\n",
                    nodes, seconds, side, side, degree, seeds);

        for (int s = 0; s < seeds; ++s) {
            workload::ScenarioConfig cfg = base;
            cfg.seed = 42 + static_cast<std::uint64_t>(s);
            reset_peak_rss();
            workload::ScenarioRunner runner(cfg);
            runner.setup();
            setup_rss_mib = std::max(setup_rss_mib, proc_status_mib("VmRSS:"));
            grid.runs.push_back({cfg.seed, runner.run()});
            peak_rss_mib = std::max(peak_rss_mib, proc_status_mib("VmHWM:"));
        }

        const auto& r0 = grid.runs.front().result;
        util::TablePrinter table({"channel", "wall (s)", "events/s", "events", "peak queue",
                                  "pdr", "setup RSS (MiB)", "peak RSS (MiB)"});
        table.row()
            .cell("grid")
            .cell(grid.mean(wall), 2)
            .cell(grid.mean(eps), 0)
            .cell(static_cast<long long>(r0.events_processed))
            .cell(static_cast<long long>(r0.perf.peak_queue_depth))
            .cell(r0.delivery_fraction(), 3)
            .cell(setup_rss_mib, 1)
            .cell(peak_rss_mib, 1);
        table.print();

        // Identity only, run after the timed rows so it cannot skew them.
        if (!skip_reference) {
            for (const auto& run : grid.runs) {
                workload::ScenarioConfig cfg = base;
                cfg.seed = run.seed;
                cfg.phy = reference::single_cell(cfg.phy);
                scen_identical = scen_identical &&
                                 experiment::result_to_json(run.result) ==
                                     experiment::result_to_json(
                                         workload::ScenarioRunner(cfg).run());
            }
            std::printf("\nresults identical to the single-cell reference: %s\n",
                        scen_identical ? "yes" : "NO — INDEX BUG");
        }
    }

    if (args.has("json")) {
        experiment::JsonWriter w;
        w.begin_object();
        w.key("bench").value("scaling_grid");
        w.key("nodes").value(static_cast<std::uint64_t>(nodes));
        w.key("seconds").value(seconds);
        w.key("kernel").begin_object();
        w.key("timers").value(static_cast<std::uint64_t>(kernel_timers));
        w.key("sim_seconds").value(kernel_seconds);
        w.key("wheel_events_per_sec").value(kern_wheel.events_per_sec);
        w.key("heap_events_per_sec").value(kern_heap.events_per_sec);
        w.key("events").value(kern_wheel.events);
        w.key("speedup").value(kern_speedup);
        w.end_object();
        w.key("channel").begin_object();
        w.key("mean_degree").value(kChannelDegree);
        w.key("beacon_hz").value(kBeaconHz);
        w.key("grid_wall_seconds").value(chan_grid.wall_seconds);
        w.key("grid_events_per_sec").value(chan_grid.events_per_sec);
        w.key("transmissions").value(chan_grid.transmissions);
        if (!skip_reference) w.key("identical").value(chan_identical);
        w.end_object();
        if (!sweep_points.empty()) {
            w.key("node_sweep").begin_array();
            for (const SweepPoint& p : sweep_points) {
                w.begin_object();
                w.key("nodes").value(static_cast<std::uint64_t>(p.nodes));
                w.key("sim_seconds").value(sweep_seconds);
                w.key("wall_seconds").value(p.r.wall_seconds);
                w.key("events").value(p.r.events);
                w.key("events_per_sec").value(p.r.events_per_sec);
                w.key("transmissions").value(p.r.transmissions);
                w.end_object();
            }
            w.end_array();
        }
        if (!skip_scenario) {
            w.key("scenario").begin_object();
            w.key("mean_degree").value(degree);
            w.key("area_side_m").value(side);
            w.key("grid").begin_object();
            w.key("wall_seconds").value(grid.mean(wall));
            w.key("events_per_sec").value(grid.mean(eps));
            w.key("setup_rss_mib").value(setup_rss_mib);
            w.key("peak_rss_mib").value(peak_rss_mib);
            w.key("result");
            experiment::result_to_json(w, grid.runs.front().result, /*include_perf=*/true);
            w.end_object();
            if (!skip_reference) w.key("results_identical").value(scen_identical);
            w.end_object();
        }
        w.end_object();
        const std::string path = args.get("json", std::string{});
        if (experiment::write_text_file(path, w.str()))
            std::printf("wrote %s\n", path.c_str());
    }
    return chan_identical && scen_identical ? 0 : 1;
}
