#include <gtest/gtest.h>

#include "published_metrics.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using test::published_counter;
using test::published_gauge;
using workload::Scheme;
using workload::ScenarioConfig;
using workload::ScenarioResult;
using workload::ScenarioRunner;

ScenarioResult run(Scheme scheme, bool anonymous_mac = true, std::uint64_t seed = 3) {
    ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.num_nodes = 40;
    cfg.sim_seconds = 60.0;
    cfg.traffic_stop_s = 55.0;
    cfg.seed = seed;
    cfg.anonymous_mac = anonymous_mac;
    cfg.attach_eavesdropper = true;
    ScenarioRunner runner(cfg);
    return runner.run();
}

TEST(Adversary, GpsrExposesEveryone) {
    const auto r = run(Scheme::kGpsrGreedy);
    // Every node beacons its identity+location every 1.5 s: the passive
    // sniffer localizes all of them, nearly continuously (§2's threat).
    EXPECT_EQ(published_counter(r.metrics, "eav.nodes_ever_localized"), 40u);
    EXPECT_GT(published_counter(r.metrics, "eav.identity_sightings"), 1000u);
    EXPECT_GT(published_gauge(r.metrics, "eav.mean_tracking_coverage"), 0.9);
}

TEST(Adversary, AgfwExposesNothing) {
    const auto r = run(Scheme::kAgfwAck);
    // §4: "no node exposes its identity and location simultaneously".
    EXPECT_EQ(published_counter(r.metrics, "eav.identity_sightings"), 0u);
    EXPECT_EQ(published_counter(r.metrics, "eav.nodes_ever_localized"), 0u);
    EXPECT_EQ(published_counter(r.metrics, "eav.mac_pseudonym_links"), 0u);
    EXPECT_EQ(published_gauge(r.metrics, "eav.mean_tracking_coverage"), 0.0);
    // The sniffer still sees plenty of (unlinkable) pseudonymous traffic.
    EXPECT_GT(published_counter(r.metrics, "eav.pseudonym_sightings"), 1000u);
}

TEST(Adversary, AgfwNoAckAlsoExposesNothing) {
    const auto r = run(Scheme::kAgfwNoAck);
    EXPECT_EQ(published_counter(r.metrics, "eav.identity_sightings"), 0u);
    EXPECT_EQ(published_counter(r.metrics, "eav.nodes_ever_localized"), 0u);
}

TEST(Adversary, MacAddressLeakEnablesCorrelationAttack) {
    // §3.2's warning: if AGFW frames carried real MAC source addresses, the
    // eavesdropper correlates consecutive hops of one packet (same trapdoor
    // == same uid) and binds pseudonyms to the persistent MAC, after which
    // hellos localize the victim.
    const auto r = run(Scheme::kAgfwAck, /*anonymous_mac=*/false);
    EXPECT_GT(published_counter(r.metrics, "eav.mac_pseudonym_links"), 0u);
    EXPECT_GT(published_counter(r.metrics, "eav.identity_sightings"), 0u);
    EXPECT_GT(published_counter(r.metrics, "eav.nodes_ever_localized"), 0u);
}

TEST(Adversary, AnonymousMacClosesTheLeak) {
    const auto with_leak = run(Scheme::kAgfwAck, false, 5);
    const auto sealed = run(Scheme::kAgfwAck, true, 5);
    EXPECT_GT(published_counter(with_leak.metrics, "eav.identity_sightings"),
              published_counter(sealed.metrics, "eav.identity_sightings"));
    EXPECT_EQ(published_counter(sealed.metrics, "eav.mac_pseudonym_links"), 0u);
}

TEST(Adversary, IndexedAlsLeaksQueryRelationships) {
    // §3.3: "the index part E_{K_B}(A,B) is a fixed block of data, a
    // sophisticated attacker may find a matching identity with a certain
    // probability by collecting enough certificates or computing it
    // exhaustively." A dictionary attacker matches observed LREQ indices and
    // learns who queries whom — though never anyone's location.
    ScenarioConfig cfg;
    cfg.scheme = Scheme::kAgfwAck;
    cfg.num_nodes = 40;
    cfg.sim_seconds = 90.0;
    cfg.traffic_start_s = 20.0;
    cfg.traffic_stop_s = 80.0;
    cfg.seed = 3;
    cfg.attach_eavesdropper = true;
    cfg.location_service = routing::LocationService::Mode::kAnonymous;
    const auto indexed = ScenarioRunner(cfg).run();
    EXPECT_GT(published_counter(indexed.metrics, "eav.index_linkages"), 0u);
    EXPECT_GT(published_counter(indexed.metrics, "eav.relationship_pairs_learned"), 0u);
    // Still zero identity-LOCATION linkage: the leak is relational only.
    EXPECT_EQ(published_counter(indexed.metrics, "eav.identity_sightings"), 0u);

    // The index-free alternative closes exactly this channel (at its higher
    // communication/computation cost, see bench/als_overhead).
    cfg.location_service = routing::LocationService::Mode::kAnonymousIndexFree;
    const auto index_free = ScenarioRunner(cfg).run();
    EXPECT_EQ(published_counter(index_free.metrics, "eav.index_linkages"), 0u);
}

TEST(Adversary, FramesObservedCountsEverything) {
    const auto r = run(Scheme::kGpsrGreedy);
    const std::uint64_t frames = published_counter(r.metrics, "adv.frames_observed");
    EXPECT_GT(frames, published_counter(r.metrics, "eav.identity_sightings") / 2);
    EXPECT_EQ(frames, r.metrics.counter("phy.transmissions"));
}

}  // namespace
