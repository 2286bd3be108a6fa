/**
 * @file
 * Golden fingerprints: two kinds of pin on the determinism scenarios.
 *
 * Behaviour pins (the BehaviourProbe digest, helpers/behaviour_probe.hh)
 * guard what the simulated system does: every send, outcome and
 * delivery with its tick, the end tick, every HUB, datalink and
 * transport counter, and the allreduce report.  Every change must
 * keep them, or re-pin them with the reason; a model change that
 * fires fewer events to simulate the same system keeps them all.
 * The contended pins are behaviour pins only, with their watchdog
 * counters spelt out: a fabric16 allreduce on seeded cabling, E15's
 * 16-member hardware-tree allreduce on one HUB, and a serving rung
 * past the knee, the regimes the benchmarks spend their time in.
 *
 * Event-trace pins guard how the engine fires events: the FNV-1a hash
 * of (tick, priority, sequence) of every executed event, and the
 * count.  An engine change that reorders events, even
 * deterministically, fails them.  A model change that removes events
 * fails them too, so such a change re-pins them — with their end ticks
 * and behaviour pins unchanged.  The single-HUB pins were first
 * recorded from the seed engine (the priority_queue + unordered_set
 * representation preserved in helpers/legacy_event_queue.hh), the
 * multi-HUB allreduce pins later from the production engine.
 *
 * test_determinism.cc proves a scenario is *self*-consistent (two
 * runs agree); this test pins the absolute values.
 *
 * A second layer drives the production engine and the frozen legacy
 * model with an identical randomized schedule/cancel/re-arm workload
 * and asserts the two fingerprints match, which exercises ordering
 * corners (same-tick priorities, cancellations, timer churn, far
 * horizons) no fixed scenario covers.
 */

#include <algorithm>
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

// Event-trace pins (see file comment).  If a legitimate model change
// (not an engine change) alters a scenario's events, re-record by
// running the scenario and updating the constants — and say so in the
// commit message.  Last re-recorded when a HUB port stopped
// re-evaluating its queue on every arrival (2774, 183, 1044, 1876 and
// 25 356 events before); every end tick and behaviour pin held.
constexpr std::uint64_t goldenPipelineFp = 18046115523275976731ULL;
constexpr std::uint64_t goldenPipelineExecuted = 2220;
constexpr Tick goldenPipelineEnd = 3535770;

// The broadcast's closeAll fans out of one input to three outputs.
// Until a closeAll closed every branch of such a fan-out, one circuit
// stayed open until the idle reaper took it at 1 050 510 ns (153
// events); every pin of this scenario moved when that was fixed.
constexpr std::uint64_t goldenBroadcastFp = 11484349554944646917ULL;
constexpr std::uint64_t goldenBroadcastExecuted = 151;
constexpr Tick goldenBroadcastEnd = 88980;

constexpr std::uint64_t goldenAllreduceFp = 9305349096586196163ULL;
constexpr std::uint64_t goldenAllreduceExecuted = 836;
constexpr Tick goldenAllreduceEnd = 220400;

// Multi-HUB pins: every round of these allreduces crosses trunk
// fibers, so they hold fiber delivery, HUB linking and fabric wiring
// to the traces those layers produced when the pins were recorded.
constexpr std::uint64_t goldenMeshAllreduceFp = 13189510038482665003ULL;
constexpr std::uint64_t goldenMeshAllreduceExecuted = 1396;
constexpr Tick goldenMeshAllreduceEnd = 358880;

constexpr std::uint64_t goldenFabric16AllreduceFp =
    8817030529292204748ULL;
constexpr std::uint64_t goldenFabric16AllreduceExecuted = 19924;
constexpr Tick goldenFabric16AllreduceEnd = 835330;

// Behaviour pins (see file comment).  Recorded before the HUB port
// stopped re-evaluating its queue on every arrival; that change kept
// every one of them.  Only the closeAll fan-out fix moved one.
constexpr std::uint64_t goldenPipelineBehaviour =
    12579633150412155005ULL;
constexpr std::uint64_t goldenBroadcastBehaviour =
    13442719409903870615ULL; // was 9609968991825272673, see above
constexpr std::uint64_t goldenAllreduceBehaviour =
    8210344853463968005ULL;
constexpr std::uint64_t goldenMeshAllreduceBehaviour =
    11196025493431109066ULL;
constexpr std::uint64_t goldenFabric16AllreduceBehaviour =
    8360722459872846873ULL;

// The contended pins (behaviour only; see file comment).  All three
// were recorded on the model whose recovery watchdogs measured time
// spent waiting, then re-pinned when the watchdogs came to measure
// lack of progress (old values in the trailing comments): the
// fabric16 allreduce and the hardware tree no longer fire a watchdog
// at all, and the serving rung past the knee fires far fewer.
constexpr Tick goldenContendedEnd = 13513032; // 34235231
constexpr std::uint64_t goldenContendedReportFp =
    6616672917857215115ULL; // 6616672914966518409
constexpr std::uint64_t goldenContendedStuckDrops = 0;    // 789
constexpr std::uint64_t goldenContendedOpensFailed = 25483; // 19879
constexpr std::uint64_t goldenContendedBehaviour =
    9660686761782540799ULL; // 17716634636126741474
constexpr std::uint64_t goldenContendedCmdAbandons = 0;   // 112
constexpr std::uint64_t goldenContendedReadyRearms = 0;   // 23
constexpr std::uint64_t goldenContendedReadyTimeouts = 0; // 181

// E15's worst row, the 16-member 16 KB hardware-tree allreduce on one
// HUB.
constexpr Tick goldenHwTreeEnd = 27291600; // 35053402
constexpr std::uint64_t goldenHwTreeReportFp =
    162173569058971612ULL; // 162173584062884328
constexpr std::uint64_t goldenHwTreeStuckDrops = 0;    // 189
constexpr std::uint64_t goldenHwTreeCmdAbandons = 0;   // 56
constexpr std::uint64_t goldenHwTreeReadyRearms = 0;   // 0
constexpr std::uint64_t goldenHwTreeReadyTimeouts = 0; // 71
constexpr std::uint64_t goldenHwTreeOpensFailed = 6784; // 7409
constexpr std::uint64_t goldenHwTreeBehaviour =
    10071149118409022687ULL; // 8629035476615890903

// A serving rung past the knee: fabric16 at 272 k rps offered for
// 3 ms of arrivals, seed 1's cabling.  Overload makes true deadlocks,
// which the watchdogs still break.
constexpr Tick goldenServingEnd = 9910837; // 13623123
constexpr std::uint64_t goldenServingReportFp =
    18106876202270595777ULL; // 17246010622151752041
constexpr std::uint64_t goldenServingStuckDrops = 602;     // 2293
constexpr std::uint64_t goldenServingCmdAbandons = 93;     // 358
constexpr std::uint64_t goldenServingReadyRearms = 10;     // 55
constexpr std::uint64_t goldenServingReadyTimeouts = 41;   // 515
constexpr std::uint64_t goldenServingOpensFailed = 14116;  // 8561
constexpr std::uint64_t goldenServingBehaviour =
    586030110236866819ULL; // 2449091221432250771

/** The seed engine has no rearm(): cancel + schedule, which rearm()'s
 *  contract calls trace-equivalent (every timer's callback is empty
 *  and software-priority). */
LegacyEventQueue::EventId
rearmTimer(LegacyEventQueue &eq, LegacyEventQueue::EventId id, Tick when)
{
    if (!eq.cancel(id))
        return 0; // the seed engine numbers its events from 1
    return eq.schedule(when, [] {}, EventPriority::software);
}

sim::EventId
rearmTimer(sim::EventQueue &eq, sim::EventId id, Tick when)
{
    return eq.rearm(id, when);
}

/**
 * Drive @p eq with a seeded workload mixing the shapes the real stack
 * produces: dense near-future hardware events, same-tick priority
 * collisions, immediate software wakeups, retransmission-style timers
 * that are almost always cancelled or re-armed (earlier, later or to
 * the current tick), and the occasional far-future event (beyond the
 * wheel horizon).  Every op draws from @p rng identically for both
 * engines; handles are tracked by position so the op stream never
 * depends on handle *values*.  @p drain runs the queue dry.
 */
template <typename Queue, typename Drain>
std::uint64_t
churnFingerprint(Queue &eq, std::uint64_t seed, Drain drain)
{
    // nectar-lint-file: capture-ok drain() empties the queue before
    // any captured frame local leaves scope

    sim::Random rng(seed, /*stream=*/7);
    std::vector<typename Queue::EventId> timers;

    int budget = 4000;
    std::function<void()> body;
    body = [&eq, &rng, &timers, &budget, &body] {
        if (--budget <= 0)
            return;
        const std::function<void()> &again = body;
        int shape = rng.range(0, 99);
        if (shape < 35) {
            // Dense hardware tick, HUB-cycle spacing.
            eq.scheduleIn(70 * sim::ticks::ns, again,
                          EventPriority::hardware);
        } else if (shape < 50) {
            // Same-tick priority collision.
            eq.scheduleIn(80 * sim::ticks::ns, again,
                          EventPriority::hardware);
            eq.scheduleIn(80 * sim::ticks::ns, [] {},
                          EventPriority::software);
            eq.scheduleIn(80 * sim::ticks::ns, [] {},
                          EventPriority::stats);
        } else if (shape < 62) {
            // Immediate software wakeup (channel/mutex shape).
            eq.scheduleIn(sim::ticks::immediate, again,
                          EventPriority::software);
        } else if (shape < 77) {
            // RTO-style timer: armed, then usually cancelled or
            // re-armed before expiry by a later event.
            auto id = eq.scheduleIn(
                (1 + rng.range(0, 3)) * sim::ticks::ms, [] {},
                EventPriority::software);
            timers.push_back(id);
            eq.scheduleIn(rng.range(1, 200) * sim::ticks::us, again,
                          EventPriority::software);
        } else if (shape < 85 && !timers.empty()) {
            // Cancel a previously armed timer (position-addressed).
            std::size_t k = rng.below(
                static_cast<std::uint32_t>(timers.size()));
            eq.cancel(timers[k]);
            timers.erase(timers.begin() +
                         static_cast<std::ptrdiff_t>(k));
            eq.scheduleIn(rng.range(1, 50) * sim::ticks::us, again,
                          EventPriority::normal);
        } else if (shape < 95 && !timers.empty()) {
            // Re-arm a timer on "ack": mostly later than its filed
            // deadline (the lazy path), sometimes earlier or now.
            std::size_t k = rng.below(
                static_cast<std::uint32_t>(timers.size()));
            timers[k] = rearmTimer(
                eq, timers[k],
                eq.now() + rng.range(0, 4000) * sim::ticks::us);
            eq.scheduleIn(rng.range(1, 50) * sim::ticks::us, again,
                          EventPriority::normal);
        } else {
            // Far-future event, beyond any wheel horizon, on a whole
            // millisecond.  Its follow-up lands in the wheel and often
            // on the tick of a far event still waiting in the heap.
            const Tick at = (eq.now() / sim::ticks::ms + 5000 +
                             rng.range(0, 1000)) *
                            sim::ticks::ms;
            eq.schedule(
                at,
                [&eq] {
                    eq.scheduleIn(1 * sim::ticks::ms, [] {},
                                  EventPriority::last);
                },
                EventPriority::last);
            eq.scheduleIn(rng.range(1, 10) * sim::ticks::us, again,
                          EventPriority::normal);
        }
    };
    // Several independent "threads" of activity keep the queue deep.
    for (int i = 0; i < 8; ++i)
        eq.scheduleIn(i * sim::ticks::us, body,
                      EventPriority::normal);
    drain(eq);
    return eq.fingerprint();
}

/** Run @p eq up to tick @p end through runUntil() slices of seeded
 *  length, drawn from a stream of their own so the workload's draws
 *  stay the same.  A slice that ends between events leaves the wheel
 *  cursor past now(), so events fired next can schedule behind it. */
void
runInSlices(sim::EventQueue &eq, std::uint64_t seed, Tick end)
{
    sim::Random rng(seed, /*stream=*/8);
    while (eq.now() < end) {
        const int shape = rng.range(0, 9);
        const Tick len = shape == 0  ? 0
                         : shape < 6 ? rng.range(1, 300) * sim::ticks::ns
                                     : rng.range(1, 200) * sim::ticks::us;
        eq.runUntil(std::min(eq.now() + len, end));
    }
}

} // namespace

TEST(GoldenFingerprint, PacketPipelineMatchesSeedEngine)
{
    Trace t = testutil::packetPipelineOnce(32 * 1024);
    EXPECT_EQ(t.fingerprint, goldenPipelineFp);
    EXPECT_EQ(t.executed, goldenPipelineExecuted);
    EXPECT_EQ(t.end, goldenPipelineEnd);
    EXPECT_EQ(t.behaviour, goldenPipelineBehaviour);
}

TEST(GoldenFingerprint, BroadcastMatchesSeedEngine)
{
    Trace t = testutil::broadcastOnce(4, 512);
    EXPECT_EQ(t.fingerprint, goldenBroadcastFp);
    EXPECT_EQ(t.executed, goldenBroadcastExecuted);
    EXPECT_EQ(t.end, goldenBroadcastEnd);
    EXPECT_EQ(t.behaviour, goldenBroadcastBehaviour);
}

TEST(GoldenFingerprint, AllreduceMatchesSeedEngine)
{
    Trace t = testutil::allreduceOnce(4, 256, 2);
    EXPECT_EQ(t.fingerprint, goldenAllreduceFp);
    EXPECT_EQ(t.executed, goldenAllreduceExecuted);
    EXPECT_EQ(t.end, goldenAllreduceEnd);
    EXPECT_EQ(t.behaviour, goldenAllreduceBehaviour);
}

TEST(GoldenFingerprint, MeshAllreduceMatchesPin)
{
    Trace t = testutil::meshAllreduceOnce(testutil::mesh2x2(), 4, 512, 2);
    EXPECT_EQ(t.fingerprint, goldenMeshAllreduceFp);
    EXPECT_EQ(t.executed, goldenMeshAllreduceExecuted);
    EXPECT_EQ(t.end, goldenMeshAllreduceEnd);
    EXPECT_EQ(t.behaviour, goldenMeshAllreduceBehaviour);
}

TEST(GoldenFingerprint, Fabric16AllreduceMatchesPin)
{
    Trace t = testutil::meshAllreduceOnce(testutil::fabric16(), 32, 512, 1);
    EXPECT_EQ(t.fingerprint, goldenFabric16AllreduceFp);
    EXPECT_EQ(t.executed, goldenFabric16AllreduceExecuted);
    EXPECT_EQ(t.end, goldenFabric16AllreduceEnd);
    EXPECT_EQ(t.behaviour, goldenFabric16AllreduceBehaviour);
}

TEST(GoldenFingerprint, ContendedFabric16AllreduceMatchesBehaviourPin)
{
    Trace t = testutil::contendedFabric16AllreduceOnce();
    EXPECT_EQ(t.end, goldenContendedEnd);
    EXPECT_EQ(t.reportFp, goldenContendedReportFp);
    EXPECT_EQ(t.stuckDrops, goldenContendedStuckDrops);
    EXPECT_EQ(t.cmdAbandons, goldenContendedCmdAbandons);
    EXPECT_EQ(t.readyRearms, goldenContendedReadyRearms);
    EXPECT_EQ(t.readyTimeouts, goldenContendedReadyTimeouts);
    EXPECT_EQ(t.opensFailed, goldenContendedOpensFailed);
    EXPECT_EQ(t.behaviour, goldenContendedBehaviour);
}

TEST(GoldenFingerprint, HwTreeAllreduceMatchesBehaviourPin)
{
    Trace t = testutil::hwTreeAllreduceOnce();
    EXPECT_EQ(t.end, goldenHwTreeEnd);
    EXPECT_EQ(t.reportFp, goldenHwTreeReportFp);
    EXPECT_EQ(t.stuckDrops, goldenHwTreeStuckDrops);
    EXPECT_EQ(t.cmdAbandons, goldenHwTreeCmdAbandons);
    EXPECT_EQ(t.readyRearms, goldenHwTreeReadyRearms);
    EXPECT_EQ(t.readyTimeouts, goldenHwTreeReadyTimeouts);
    EXPECT_EQ(t.opensFailed, goldenHwTreeOpensFailed);
    EXPECT_EQ(t.behaviour, goldenHwTreeBehaviour);
}

TEST(GoldenFingerprint, ServingPastKneeMatchesBehaviourPin)
{
    Trace t = testutil::servingPastKneeOnce();
    EXPECT_EQ(t.end, goldenServingEnd);
    EXPECT_EQ(t.reportFp, goldenServingReportFp);
    EXPECT_EQ(t.stuckDrops, goldenServingStuckDrops);
    EXPECT_EQ(t.cmdAbandons, goldenServingCmdAbandons);
    EXPECT_EQ(t.readyRearms, goldenServingReadyRearms);
    EXPECT_EQ(t.readyTimeouts, goldenServingReadyTimeouts);
    EXPECT_EQ(t.opensFailed, goldenServingOpensFailed);
    EXPECT_EQ(t.behaviour, goldenServingBehaviour);
}

TEST(GoldenFingerprint, ChurnWorkloadMatchesLegacyModel)
{
    const auto runDry = [](auto &q) { q.run(); };
    for (std::uint64_t seed : {1ULL, 42ULL, 20260805ULL}) {
        LegacyEventQueue legacy;
        const std::uint64_t want = churnFingerprint(legacy, seed, runDry);

        sim::EventQueue whole;
        EXPECT_EQ(churnFingerprint(whole, seed, runDry), want)
            << "seed " << seed;
        EXPECT_EQ(whole.executedCount(), legacy.executedCount())
            << "seed " << seed;
        EXPECT_EQ(whole.now(), legacy.now()) << "seed " << seed;
        EXPECT_GT(whole.lazyRearmCount(), 0u) << "seed " << seed;

        // The same workload through runUntil() peeks, up to the tick
        // the seed engine's last event fired at.
        const Tick end = legacy.now();
        sim::EventQueue sliced;
        EXPECT_EQ(churnFingerprint(sliced, seed,
                                   [seed, end](sim::EventQueue &q) {
                                       runInSlices(q, seed, end);
                                   }),
                  want)
            << "seed " << seed;
        EXPECT_EQ(sliced.executedCount(), legacy.executedCount())
            << "seed " << seed;
        EXPECT_TRUE(sliced.empty()) << "seed " << seed;
        EXPECT_GT(sliced.lazyRearmCount(), 0u) << "seed " << seed;
    }
}
