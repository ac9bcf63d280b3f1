// §4 analysis — the anonymity/overhead trade of the authenticated ANT.
//
// The paper: "the larger the set of ambiguous signers is used, the stronger
// the anonymity the sender has, but with more certificates to transmit", and
// sending certificates by reference cuts the steady-state cost because
// "the number of explicit requests [declines] significantly after the
// network boots up".
//
// This bench reports, per ring size k (ring = k+1 members):
//   - hello bytes with full certificates attached vs certificate references;
//   - modeled CPU cost of ring-sign / ring-verify (paper's 0.5/8.5 ms ops);
//   - measured wall time of the real RST ring signature at 512-bit keys;
//   - cert fetches in the first vs second half of a running network (the
//     boot-time effect).

#include <chrono>

#include "bench_common.hpp"
#include "crypto/engine.hpp"
#include "routing/wire.hpp"

using namespace geoanon;

int main() {
    std::printf("Ring-signed ANT: anonymity k vs overhead (512-bit RSA)\n\n");

    crypto::RealCryptoEngine real(2026, 512);
    util::Rng rng(7);
    const std::size_t kMaxMembers = 17;
    std::vector<crypto::NodeIdNum> ids;
    std::printf("generating %zu RSA-512 key pairs...\n", kMaxMembers);
    for (std::size_t i = 0; i < kMaxMembers; ++i) {
        real.register_node(i);
        ids.push_back(i);
    }

    const util::Bytes msg{'h', 'e', 'l', 'l', 'o', '-', 'a', 'n', 't'};
    util::TablePrinter table({"k", "members", "hello B (cert refs)", "hello B (full certs)",
                              "sign model (ms)", "verify model (ms)", "real sign (ms)",
                              "real verify (ms)"});

    for (std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
        const std::size_t members = k + 1;
        std::vector<crypto::NodeIdNum> ring(ids.begin(),
                                            ids.begin() + static_cast<std::ptrdiff_t>(members));

        const std::size_t sig_bytes = real.ring_signature_bytes(members);
        const std::size_t base = routing::kAgfwHelloBaseBytes + 8;  // + velocity hint
        const std::size_t bytes_refs =
            base + sig_bytes + members * routing::kCertReferenceBytes;
        const std::size_t bytes_full = base + sig_bytes + members * real.certificate_bytes();

        // geoanon-lint: begin-allow(wallclock) -- bench timing block: crypto wall-cost measurement, reported as ms columns, never part of a result contract
        const auto t0 = std::chrono::steady_clock::now();
        const util::Bytes sig = real.ring_sign_msg(0, ring, msg, rng);
        const auto t1 = std::chrono::steady_clock::now();
        const bool ok = real.ring_verify_msg(ring, msg, sig);
        const auto t2 = std::chrono::steady_clock::now();
        // geoanon-lint: end-allow(wallclock)
        if (!ok) {
            std::fprintf(stderr, "ring verification failed!\n");
            return 1;
        }

        table.row()
            .cell(static_cast<long long>(k))
            .cell(static_cast<long long>(members))
            .cell(static_cast<long long>(bytes_refs))
            .cell(static_cast<long long>(bytes_full))
            .cell(real.costs().ring_sign(members).to_millis(), 2)
            .cell(real.costs().ring_verify(members).to_millis(), 2)
            .cell(std::chrono::duration<double, std::milli>(t1 - t0).count(), 2)
            .cell(std::chrono::duration<double, std::milli>(t2 - t1).count(), 2);
    }
    table.print();

    // Boot-time cert-request decline, measured in a running network.
    std::printf("\nCert-by-reference fetches over time (40 nodes, authenticated ANT):\n");
    workload::ScenarioConfig cfg =
        bench::paper_scenario(workload::Scheme::kAgfwAck, 40, 120.0, 5);
    cfg.agfw.authenticated_hello = true;
    cfg.agfw.ring_k = 4;
    workload::ScenarioRunner runner(cfg);
    runner.setup();
    runner.network().start_agents();

    auto fetches_now = [&runner] {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < runner.network().size(); ++i)
            total += runner.agfw_agent(static_cast<net::NodeId>(i))->stats().cert_fetches;
        return total;
    };
    runner.network().sim().run_until(util::SimTime::seconds(60));
    const std::uint64_t first_half = fetches_now();
    runner.network().sim().run_until(util::SimTime::seconds(120));
    const std::uint64_t second_half = fetches_now() - first_half;
    std::printf("  fetches in [0,60)s: %llu   fetches in [60,120)s: %llu\n",
                static_cast<unsigned long long>(first_half),
                static_cast<unsigned long long>(second_half));
    std::printf("  (paper §4: explicit requests decline after the network boots)\n");
    return 0;
}
