// Ablation — network-layer acknowledgment design (DESIGN.md §5).
//
// §3.2 specifies "a network layer acknowledgment could be used" and that it
// "can be piggybacked on a data packet to be sent", but gives no timer
// parameters. This ablation justifies the defaults (40 ms base timeout with
// exponential backoff, one same-hop retry before rerouting, piggybacked/
// implicit ACKs): short fixed timers melt down under contention
// (retransmission storms), extra same-hop retries amplify congestion
// hotspots, and disabling piggybacking pays an explicit ACK per hop.

#include "bench_common.hpp"

using namespace geoanon;

namespace {

workload::ScenarioResult run_variant(util::SimTime ack_timeout, bool backoff, int retries,
                                     bool piggyback, std::size_t nodes, double seconds) {
    workload::ScenarioConfig cfg =
        bench::paper_scenario(workload::Scheme::kAgfwAck, nodes, seconds, 21);
    cfg.agfw.ack_timeout = ack_timeout;
    cfg.agfw.ack_backoff = backoff;
    cfg.agfw.ack_retries = retries;
    cfg.agfw.piggyback_acks = piggyback;
    workload::ScenarioRunner runner(cfg);
    return runner.run();
}

}  // namespace

int main() {
    const double seconds = bench::sim_seconds(180.0);
    std::printf("Ablation: NL-ACK timer and piggybacking (AGFW-ACK, %.0f s)\n\n", seconds);

    struct Variant {
        const char* name;
        util::SimTime timeout;
        bool backoff;
        int retries;
        bool piggyback;
    };
    const Variant variants[] = {
        {"40ms, backoff, 1 retry (default)", util::SimTime::millis(40), true, 1, true},
        {"40ms, backoff, 2 retries", util::SimTime::millis(40), true, 2, true},
        {"40ms, plain, 2 retries", util::SimTime::millis(40), false, 2, true},
        {"15ms, plain, 2 retries", util::SimTime::millis(15), false, 2, true},
        {"40ms, backoff, 1 retry, explicit acks", util::SimTime::millis(40), true, 1, false},
    };

    for (std::size_t nodes : {50u, 150u}) {
        std::printf("--- %zu nodes ---\n", nodes);
        util::TablePrinter table({"variant", "delivery", "latency (ms)", "nl retx",
                                  "acks sent", "implicit acks"});
        for (const Variant& v : variants) {
            const auto r =
                run_variant(v.timeout, v.backoff, v.retries, v.piggyback, nodes, seconds);
            table.row()
                .cell(v.name)
                .cell(r.delivery_fraction(), 3)
                .cell(r.avg_latency_ms(), 2)
                .cell(static_cast<long long>(r.metrics.counter("agfw.retransmissions")))
                .cell(static_cast<long long>(r.metrics.counter("agfw.acks_sent")))
                .cell(static_cast<long long>(r.metrics.counter("agfw.implicit_acks")));
        }
        table.print();
        std::printf("\n");
    }
    std::printf(
        "Reading: aggressive 15 ms timers inflate retransmissions and sink\n"
        "delivery; extra same-hop retries double latency for nothing; and\n"
        "disabling piggybacking costs delivery too — the extra explicit ACK\n"
        "per hop is pure added channel load.\n");
    return 0;
}
