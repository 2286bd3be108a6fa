/**
 * @file
 * Determinism harness: same seed, same event trace.
 *
 * Each scenario (tests/helpers/determinism_scenarios.hh) is a compact
 * replica of a tier-1 benchmark workload.  A scenario is run twice,
 * each time on a fresh system, and must produce an identical Trace:
 * the event-trace fingerprint — the rolling FNV-1a hash the
 * EventQueue folds over (when, priority, sequence) of every executed
 * event — and the behaviour digest of its deliveries and counters.
 * Any wall-clock leak, unseeded randomness, or hash-order-dependent
 * iteration shows up here as a fingerprint mismatch long before it
 * would surface as a flaky benchmark number.
 *
 * The companion golden test (test_golden_fingerprint.cc) pins the
 * *absolute* fingerprints of the same scenarios, so a change that is
 * self-consistent but reorders events or changes behaviour is also
 * caught.
 */

#include <gtest/gtest.h>

#include "helpers/determinism_scenarios.hh"

using namespace nectar;
using nectar::testutil::Trace;

TEST(Determinism, FingerprintAdvancesAndIsOrderSensitive)
{
    sim::EventQueue eq;
    std::uint64_t empty = eq.fingerprint();
    eq.schedule(1 * sim::ticks::ns, [] {});
    eq.schedule(2 * sim::ticks::ns, [] {});
    eq.run();
    EXPECT_NE(eq.fingerprint(), empty);

    // Same events, different order: the trace hash must differ.
    sim::EventQueue other;
    other.schedule(2 * sim::ticks::ns, [] {});
    other.schedule(1 * sim::ticks::ns, [] {});
    other.run();
    EXPECT_EQ(other.executedCount(), eq.executedCount());
    EXPECT_NE(other.fingerprint(), eq.fingerprint());
}

TEST(Determinism, PacketPipelineTraceIsReproducible)
{
    Trace a = testutil::packetPipelineOnce(32 * 1024);
    Trace b = testutil::packetPipelineOnce(32 * 1024);
    EXPECT_GT(a.executed, 0u);
    EXPECT_GT(a.end, 0);
    EXPECT_EQ(a, b);
}

TEST(Determinism, BroadcastTraceIsReproducible)
{
    Trace a = testutil::broadcastOnce(4, 512);
    Trace b = testutil::broadcastOnce(4, 512);
    EXPECT_GT(a.executed, 0u);
    EXPECT_EQ(a, b);
}

TEST(Determinism, AllreduceTraceIsReproducible)
{
    Trace a = testutil::allreduceOnce(4, 256, 2);
    Trace b = testutil::allreduceOnce(4, 256, 2);
    EXPECT_GT(a.executed, 0u);
    EXPECT_EQ(a, b);
}

TEST(Determinism, MeshAllreduceTraceIsReproducible)
{
    Trace a = testutil::meshAllreduceOnce(testutil::mesh2x2(), 4, 512, 2);
    Trace b = testutil::meshAllreduceOnce(testutil::mesh2x2(), 4, 512, 2);
    EXPECT_GT(a.executed, 0u);
    EXPECT_EQ(a, b);
}

TEST(Determinism, Fabric16AllreduceTraceIsReproducible)
{
    Trace a =
        testutil::meshAllreduceOnce(testutil::fabric16(), 32, 512, 1);
    Trace b =
        testutil::meshAllreduceOnce(testutil::fabric16(), 32, 512, 1);
    EXPECT_GT(a.executed, 0u);
    EXPECT_EQ(a, b);
}

TEST(Determinism, ContendedFabric16AllreduceIsReproducible)
{
    Trace a = testutil::contendedFabric16AllreduceOnce();
    Trace b = testutil::contendedFabric16AllreduceOnce();
    EXPECT_GT(a.opensFailed, 0u);
    EXPECT_EQ(a, b);
}

TEST(Determinism, HwTreeAllreduceIsReproducible)
{
    Trace a = testutil::hwTreeAllreduceOnce();
    Trace b = testutil::hwTreeAllreduceOnce();
    EXPECT_EQ(a, b);
}

TEST(Determinism, ServingPastKneeIsReproducible)
{
    Trace a = testutil::servingPastKneeOnce();
    Trace b = testutil::servingPastKneeOnce();
    EXPECT_GT(a.opensFailed, 0u);
    EXPECT_EQ(a, b);
}
