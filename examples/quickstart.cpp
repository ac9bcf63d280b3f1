// Quickstart: run the paper's anonymous geographic routing (AGFW + ANT) on a
// 50-node mobile ad hoc network and compare it against the GPSR-Greedy
// baseline on delivery fraction and latency.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart
//         ./build/examples/quickstart --trace=out.json   # flight-record the
//         AGFW-ACK run; open out.json in https://ui.perfetto.dev or inspect
//         it with ./build/tools/trace_query

#include <cstdio>

#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workload/scenario.hpp"

using namespace geoanon;

int main(int argc, char** argv) {
    const util::CliArgs args(argc, argv);
    std::string trace_path;
    if (args.has("trace")) {
        trace_path = args.get("trace", std::string{});
        if (trace_path.empty() || trace_path == "true") trace_path = "out.json";
    }

    std::printf("geoanon quickstart: 50 nodes, 1500x300 m, 120 s, 30 CBR flows\n\n");

    util::TablePrinter table({"scheme", "delivery", "avg latency (ms)", "avg hops",
                              "collisions", "ctrl bytes"});

    for (workload::Scheme scheme : {workload::Scheme::kGpsrGreedy,
                                    workload::Scheme::kAgfwNoAck,
                                    workload::Scheme::kAgfwAck}) {
        workload::ScenarioConfig cfg;
        cfg.scheme = scheme;
        cfg.num_nodes = 50;
        cfg.sim_seconds = 120.0;
        cfg.traffic_stop_s = 110.0;
        cfg.seed = 42;
        // Flight-record the headline scheme when --trace is given.
        cfg.trace.enabled =
            !trace_path.empty() && scheme == workload::Scheme::kAgfwAck;

        workload::ScenarioRunner runner(cfg);
        const workload::ScenarioResult r = runner.run();

        table.row()
            .cell(workload::scheme_name(scheme))
            .cell(r.delivery_fraction(), 3)
            .cell(r.avg_latency_ms(), 2)
            .cell(r.avg_hops(), 2)
            .cell(static_cast<long long>(r.metrics.counter("phy.frames_corrupted")))
            .cell(static_cast<long long>(r.metrics.counter("agfw.control_bytes") +
                                         r.metrics.counter("gpsr.control_bytes")));

        if (cfg.trace.enabled &&
            util::write_text_file(trace_path, runner.chrome_trace_json())) {
            std::printf("wrote %s (%llu events) — load it in ui.perfetto.dev\n",
                        trace_path.c_str(),
                        static_cast<unsigned long long>(runner.trace_recorder()->recorded()));
        }
    }

    table.print();
    std::printf(
        "\nAGFW delivers data without any identity on the air: pseudonymous\n"
        "hellos (ANT), trapdoor-addressed data (AGFW), broadcast MAC frames.\n");
    return 0;
}
