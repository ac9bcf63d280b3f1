// §3.3 / §5 — Anonymous Location Service vs plain DLM.
//
// The paper did not simulate ALS, arguing its performance "is expected to be
// similar to the original location service ... with extra message bits and
// limited cryptographic operations involved, one might also expect it to
// elegantly degrade a bit". This bench quantifies that claim: lookup success
// and byte overhead for plain DLM (over GPSR), the indexed ALS, and the
// index-free ALS variant (§3.3's alternative scheme) over AGFW.

#include "bench_common.hpp"

using namespace geoanon;

namespace {

struct Row {
    std::string name;
    workload::ScenarioResult r;
};

Row run_mode(const char* name, workload::Scheme scheme,
             std::optional<routing::LocationService::Mode> mode, double seconds,
             std::uint64_t seed) {
    workload::ScenarioConfig cfg = bench::paper_scenario(scheme, 75, seconds, seed);
    cfg.location_service = mode;
    cfg.traffic_start_s = 25.0;  // let the first updates land
    cfg.cbr_pps = 1.0;           // LS-bound workload, not a saturation test
    workload::ScenarioRunner runner(cfg);
    return Row{name, runner.run()};
}

}  // namespace

int main() {
    const double seconds = bench::sim_seconds(300.0);
    std::printf("Location service comparison: plain DLM vs anonymous ALS (75 nodes)\n");
    std::printf("sim %.0f s, CBR 1 pkt/s per flow; updates every 10 s\n\n", seconds);

    std::vector<Row> rows;
    rows.push_back(run_mode("dlm-plain (gpsr)", workload::Scheme::kGpsrGreedy,
                            routing::LocationService::Mode::kPlain, seconds, 3));
    rows.push_back(run_mode("als-indexed (agfw)", workload::Scheme::kAgfwAck,
                            routing::LocationService::Mode::kAnonymous, seconds, 3));
    rows.push_back(run_mode("als-index-free (agfw)", workload::Scheme::kAgfwAck,
                            routing::LocationService::Mode::kAnonymousIndexFree, seconds, 3));

    util::TablePrinter table({"service", "lookup ok", "lookup fail", "B/update", "B/query",
                              "B/reply", "trial decrypts", "data delivery"});
    for (const Row& row : rows) {
        const auto ls = [&](const char* name) { return row.r.metrics.counter(name); };
        auto per = [&](const char* bytes, const char* count) {
            return ls(count) ? static_cast<double>(ls(bytes)) / static_cast<double>(ls(count))
                             : 0.0;
        };
        table.row()
            .cell(row.name)
            .cell(static_cast<long long>(ls("ls.resolved_ok")))
            .cell(static_cast<long long>(ls("ls.resolved_fail")))
            .cell(per("ls.update_bytes", "ls.updates_sent"), 1)
            .cell(per("ls.query_bytes", "ls.queries_sent"), 1)
            .cell(per("ls.reply_bytes", "ls.replies_sent"), 1)
            .cell(static_cast<long long>(ls("ls.decrypt_attempts")))
            .cell(row.r.delivery_fraction(), 3);
    }
    table.print();

    std::printf(
        "\nExpected shape (paper): ALS succeeds like DLM but pays more bytes\n"
        "per update (one encrypted row per anticipated requester) and per\n"
        "reply; the index-free variant pays the most (whole-bucket replies +\n"
        "trial decryptions) in exchange for requester anonymity.\n");
    return 0;
}
