/**
 * @file
 * Golden event-trace fingerprints: the engine must fire events in
 * exactly the seed engine's (tick, priority, sequence) order.
 *
 * test_determinism.cc proves a scenario is *self*-consistent (two
 * runs agree).  This test pins the *absolute* trace: the golden
 * constants below were recorded from the seed engine (the
 * priority_queue + unordered_set representation of PR 0, preserved in
 * helpers/legacy_event_queue.hh) running the three single-HUB
 * determinism scenarios; the multi-HUB allreduce pins were recorded
 * later from the production engine.  An engine change that reorders
 * events — even deterministically — fails here.
 *
 * A second layer drives the production engine and the frozen legacy
 * model with an identical randomized schedule/cancel/re-arm workload
 * and asserts the two fingerprints match, which exercises ordering
 * corners (same-tick priorities, cancellations, timer churn, far
 * horizons) no fixed scenario covers.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "helpers/determinism_scenarios.hh"
#include "helpers/legacy_event_queue.hh"
#include "sim/random.hh"

using namespace nectar;
using nectar::testutil::LegacyEventQueue;
using nectar::testutil::Trace;
using sim::EventPriority;
using sim::Tick;

namespace {

// Golden traces recorded from the seed engine (see file comment).
// If a legitimate *workload* change (not an engine change) alters a
// scenario, re-record by running the scenario and updating the
// constants — and say so in the commit message.
constexpr std::uint64_t goldenPipelineFp = 7224527340904190798ULL;
constexpr std::uint64_t goldenPipelineExecuted = 2774;
constexpr Tick goldenPipelineEnd = 3535770;

constexpr std::uint64_t goldenBroadcastFp = 3639186759136957353ULL;
constexpr std::uint64_t goldenBroadcastExecuted = 183;
constexpr Tick goldenBroadcastEnd = 1050510;

constexpr std::uint64_t goldenAllreduceFp = 11152452941777749890ULL;
constexpr std::uint64_t goldenAllreduceExecuted = 1044;
constexpr Tick goldenAllreduceEnd = 220400;

// Multi-HUB pins: every round of these allreduces crosses trunk
// fibers, so they hold fiber delivery, HUB linking and fabric wiring
// to the traces those layers produced when the pins were recorded.
constexpr std::uint64_t goldenMeshAllreduceFp = 6308076100225322705ULL;
constexpr std::uint64_t goldenMeshAllreduceExecuted = 1876;
constexpr Tick goldenMeshAllreduceEnd = 358880;

constexpr std::uint64_t goldenFabric16AllreduceFp =
    5685572027073699096ULL;
constexpr std::uint64_t goldenFabric16AllreduceExecuted = 25356;
constexpr Tick goldenFabric16AllreduceEnd = 835330;

/**
 * Drive @p eq with a seeded workload mixing the shapes the real stack
 * produces: dense near-future hardware events, same-tick priority
 * collisions, immediate software wakeups, retransmission-style timers
 * that are almost always cancelled or re-armed, and the occasional
 * far-future event (beyond the wheel horizon).  Every op draws from
 * @p rng identically for both engines; handles are tracked by
 * position so the op stream never depends on handle *values*.
 */
template <typename Queue>
std::uint64_t
churnFingerprint(Queue &eq, std::uint64_t seed)
{
    // nectar-lint-file: capture-ok eq.run() drains before any
    // captured frame local leaves scope

    sim::Random rng(seed, /*stream=*/7);
    std::vector<typename Queue::EventId> timers;

    int budget = 4000;
    std::function<void()> body;
    body = [&eq, &rng, &timers, &budget, &body] {
        if (--budget <= 0)
            return;
        const std::function<void()> &again = body;
        int shape = rng.range(0, 99);
        if (shape < 40) {
            // Dense hardware tick, HUB-cycle spacing.
            eq.scheduleIn(70 * sim::ticks::ns, again,
                          EventPriority::hardware);
        } else if (shape < 55) {
            // Same-tick priority collision.
            eq.scheduleIn(80 * sim::ticks::ns, again,
                          EventPriority::hardware);
            eq.scheduleIn(80 * sim::ticks::ns, [] {},
                          EventPriority::software);
            eq.scheduleIn(80 * sim::ticks::ns, [] {},
                          EventPriority::stats);
        } else if (shape < 70) {
            // Immediate software wakeup (channel/mutex shape).
            eq.scheduleIn(sim::ticks::immediate, again,
                          EventPriority::software);
        } else if (shape < 85) {
            // RTO-style timer: armed, then usually cancelled before
            // expiry by a later event.
            auto id = eq.scheduleIn(
                (1 + rng.range(0, 3)) * sim::ticks::ms, [] {},
                EventPriority::software);
            timers.push_back(id);
            eq.scheduleIn(rng.range(1, 200) * sim::ticks::us, again,
                          EventPriority::software);
        } else if (shape < 95 && !timers.empty()) {
            // Cancel a previously armed timer (position-addressed).
            std::size_t k = rng.below(
                static_cast<std::uint32_t>(timers.size()));
            eq.cancel(timers[k]);
            timers.erase(timers.begin() +
                         static_cast<std::ptrdiff_t>(k));
            eq.scheduleIn(rng.range(1, 50) * sim::ticks::us, again,
                          EventPriority::normal);
        } else {
            // Far-future event, beyond any wheel horizon.
            eq.scheduleIn(5 * sim::ticks::sec +
                              rng.range(0, 1000) * sim::ticks::ms,
                          [] {}, EventPriority::last);
            eq.scheduleIn(rng.range(1, 10) * sim::ticks::us, again,
                          EventPriority::normal);
        }
    };
    // Several independent "threads" of activity keep the queue deep.
    for (int i = 0; i < 8; ++i)
        eq.scheduleIn(i * sim::ticks::us, body,
                      EventPriority::normal);
    eq.run();
    return eq.fingerprint();
}

} // namespace

TEST(GoldenFingerprint, PacketPipelineMatchesSeedEngine)
{
    Trace t = testutil::packetPipelineOnce(32 * 1024);
    EXPECT_EQ(t.fingerprint, goldenPipelineFp);
    EXPECT_EQ(t.executed, goldenPipelineExecuted);
    EXPECT_EQ(t.end, goldenPipelineEnd);
}

TEST(GoldenFingerprint, BroadcastMatchesSeedEngine)
{
    Trace t = testutil::broadcastOnce(4, 512);
    EXPECT_EQ(t.fingerprint, goldenBroadcastFp);
    EXPECT_EQ(t.executed, goldenBroadcastExecuted);
    EXPECT_EQ(t.end, goldenBroadcastEnd);
}

TEST(GoldenFingerprint, AllreduceMatchesSeedEngine)
{
    Trace t = testutil::allreduceOnce(4, 256, 2);
    EXPECT_EQ(t.fingerprint, goldenAllreduceFp);
    EXPECT_EQ(t.executed, goldenAllreduceExecuted);
    EXPECT_EQ(t.end, goldenAllreduceEnd);
}

TEST(GoldenFingerprint, MeshAllreduceMatchesPin)
{
    Trace t = testutil::meshAllreduceOnce(testutil::mesh2x2(), 4, 512, 2);
    EXPECT_EQ(t.fingerprint, goldenMeshAllreduceFp);
    EXPECT_EQ(t.executed, goldenMeshAllreduceExecuted);
    EXPECT_EQ(t.end, goldenMeshAllreduceEnd);
}

TEST(GoldenFingerprint, Fabric16AllreduceMatchesPin)
{
    Trace t = testutil::meshAllreduceOnce(testutil::fabric16(), 32, 512, 1);
    EXPECT_EQ(t.fingerprint, goldenFabric16AllreduceFp);
    EXPECT_EQ(t.executed, goldenFabric16AllreduceExecuted);
    EXPECT_EQ(t.end, goldenFabric16AllreduceEnd);
}

TEST(GoldenFingerprint, ChurnWorkloadMatchesLegacyModel)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 20260805ULL}) {
        LegacyEventQueue legacy;
        sim::EventQueue current;
        std::uint64_t want = churnFingerprint(legacy, seed);
        std::uint64_t got = churnFingerprint(current, seed);
        EXPECT_EQ(got, want) << "seed " << seed;
        EXPECT_EQ(current.executedCount(), legacy.executedCount())
            << "seed " << seed;
        EXPECT_EQ(current.now(), legacy.now()) << "seed " << seed;
    }
}
