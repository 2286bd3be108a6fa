/**
 * @file
 * Unit tests for the discrete-event queue: ordering, determinism,
 * cancellation, and time semantics.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

// nectar-lint-file: capture-ok test frames drive eq.run() to
// completion before any captured locals leave scope

using namespace nectar::sim;

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30 * ticks::ns, [&] { order.push_back(3); });
    eq.schedule(10 * ticks::ns, [&] { order.push_back(1); });
    eq.schedule(20 * ticks::ns, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueue, SameTickOrderedByPriorityThenSequence)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5 * ticks::ns, [&] { order.push_back(2); }, EventPriority::software);
    eq.schedule(5 * ticks::ns, [&] { order.push_back(1); }, EventPriority::hardware);
    eq.schedule(5 * ticks::ns, [&] { order.push_back(3); }, EventPriority::software);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NowAdvancesOnlyWhenEventsFire)
{
    EventQueue eq;
    Tick seen = -1;
    eq.schedule(100 * ticks::ns, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 100);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(50 * ticks::ns, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(10 * ticks::ns, [] {}), PanicError);
}

TEST(EventQueue, EmptyCallbackPanics)
{
    EventQueue eq;
    EXPECT_THROW(eq.schedule(1 * ticks::ns, std::function<void()>()), PanicError);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule(10 * ticks::ns, [&] { fired = true; });
    EXPECT_TRUE(eq.pending(id));
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.pending(id));
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse)
{
    EventQueue eq;
    EventId id = eq.schedule(10 * ticks::ns, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse)
{
    EventQueue eq;
    EventId id = eq.schedule(10 * ticks::ns, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
    EXPECT_FALSE(eq.pending(id));
}

TEST(EventQueue, CancelInvalidIdReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.cancel(invalidEventId));
    EXPECT_FALSE(eq.cancel(9999));
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5)
            eq.scheduleIn(10 * ticks::ns, chain);
    };
    eq.schedule(ticks::immediate, chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick t : {10, 20, 30, 40})
        eq.schedule(t, [&fired, t] { fired.push_back(t); });
    eq.runUntil(20);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(eq.now(), 20);
    eq.runUntil(100);
    EXPECT_EQ(fired.size(), 4u);
    EXPECT_EQ(eq.now(), 100);
}

TEST(EventQueue, RunUntilAdvancesNowWhenQueueEmpty)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500);
}

TEST(EventQueue, PendingCountTracksLiveEvents)
{
    EventQueue eq;
    EventId a = eq.schedule(10 * ticks::ns, [] {});
    eq.schedule(20 * ticks::ns, [] {});
    EXPECT_EQ(eq.pendingCount(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.run();
    EXPECT_EQ(eq.pendingCount(), 0u);
}

TEST(EventQueue, RunRespectsEventLimit)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> forever = [&] {
        ++count;
        eq.scheduleIn(1 * ticks::ns, forever);
    };
    eq.schedule(ticks::immediate, forever);
    std::uint64_t n = eq.run(1000);
    EXPECT_EQ(n, 1000u);
    EXPECT_EQ(count, 1000);
}

TEST(EventQueue, RunUntilStoppedByLimitKeepsTimeMonotonic)
{
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick t : {10, 20, 30})
        eq.schedule(t, [&eq, &fired] { fired.push_back(eq.now()); });

    // The limit stops the run with 20 and 30 still due before 100:
    // now() must not jump past them.
    EXPECT_EQ(eq.runUntil(100, 1), 1u);
    EXPECT_EQ(eq.now(), 10);
    EXPECT_EQ(eq.run(1), 1u);
    EXPECT_EQ(eq.now(), 20);

    // Without the limit the rest fires and now() lands on the target.
    EXPECT_EQ(eq.runUntil(100), 1u);
    EXPECT_EQ(eq.now(), 100);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20, 30}));
}

TEST(EventQueue, ExecutedCountAccumulates)
{
    EventQueue eq;
    eq.schedule(1 * ticks::ns, [] {});
    eq.schedule(2 * ticks::ns, [] {});
    eq.run();
    EXPECT_EQ(eq.executedCount(), 2u);
}

TEST(EventQueue, DeterministicInterleavingAcrossRuns)
{
    auto trace = [] {
        EventQueue eq;
        std::vector<int> order;
        for (int i = 0; i < 100; ++i) {
            eq.schedule((i * 7) % 50, [&order, i] { order.push_back(i); });
        }
        eq.run();
        return order;
    };
    EXPECT_EQ(trace(), trace());
}

// ---- re-arm (the retransmission-timer fast path) -------------------

TEST(EventQueue, RearmToLaterFiresAtNewDeadlineOnly)
{
    EventQueue eq;
    std::vector<Tick> fired;
    EventId id = eq.schedule(100 * ticks::ns,
                             [&] { fired.push_back(eq.now()); });
    EventId fresh = eq.rearm(id, 250 * ticks::ns);
    ASSERT_NE(fresh, invalidEventId);
    EXPECT_FALSE(eq.pending(id)); // old handle is dead
    EXPECT_TRUE(eq.pending(fresh));
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{250}));
}

TEST(EventQueue, RearmToLaterTakesLazyFastPath)
{
    EventQueue eq;
    int count = 0;
    EventId id = eq.schedule(2000 * ticks::ns, [&] { ++count; });
    // Each re-arm pushes the deadline out without re-filing the node:
    // this is the path a timer re-armed on every ack exercises.
    for (int i = 1; i <= 10; ++i)
        id = eq.rearm(id, (2000 + i) * ticks::ns);
    EXPECT_EQ(eq.lazyRearmCount(), 10u);
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.run();
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 2010);
}

TEST(EventQueue, RearmToEarlierFiresEarlier)
{
    EventQueue eq;
    std::vector<Tick> fired;
    EventId id = eq.schedule(1000 * ticks::ns,
                             [&] { fired.push_back(eq.now()); });
    eq.rearm(id, 50 * ticks::ns);
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{50}));
}

TEST(EventQueue, RearmDeadHandleReturnsInvalid)
{
    EventQueue eq;
    EventId fired_id = eq.schedule(10 * ticks::ns, [] {});
    eq.run();
    EXPECT_EQ(eq.rearm(fired_id, 20 * ticks::ns), invalidEventId);

    EventId cancelled = eq.schedule(30 * ticks::ns, [] {});
    eq.cancel(cancelled);
    EXPECT_EQ(eq.rearmIn(cancelled, 10 * ticks::ns), invalidEventId);
    EXPECT_EQ(eq.rearm(invalidEventId, 40 * ticks::ns),
              invalidEventId);
}

TEST(EventQueue, RearmTraceMatchesCancelPlusSchedule)
{
    // rearm() must consume a sequence number exactly like the seed
    // idiom it replaces, so the event-trace fingerprint is unchanged
    // whichever idiom a component uses.
    auto viaRearm = [] {
        EventQueue eq;
        eq.schedule(5 * ticks::ns, [] {});
        EventId t = eq.schedule(100 * ticks::ns, [] {},
                                EventPriority::software);
        t = eq.rearm(t, 200 * ticks::ns);
        eq.schedule(7 * ticks::ns, [] {});
        eq.run();
        return eq.fingerprint();
    };
    auto viaCancel = [] {
        EventQueue eq;
        eq.schedule(5 * ticks::ns, [] {});
        EventId t = eq.schedule(100 * ticks::ns, [] {},
                                EventPriority::software);
        eq.cancel(t);
        eq.schedule(200 * ticks::ns, [] {}, EventPriority::software);
        eq.schedule(7 * ticks::ns, [] {});
        eq.run();
        return eq.fingerprint();
    };
    EXPECT_EQ(viaRearm(), viaCancel());
}

// ---- wheel geometry: level boundaries, cascades, the horizon -------

TEST(EventQueue, FiresAcrossWheelLevelBoundaries)
{
    EventQueue eq;
    std::vector<Tick> fired;
    // Straddle every level boundary plus the wheel horizon: level 0
    // covers [0, 256), level 1 [256, 65536), level 2 [65536, 2^24),
    // level 3 [2^24, 2^32), and beyond 2^32 waits in the heap.
    const std::vector<Tick> when = {
        255,
        256,
        257,
        65535,
        65536,
        65537,
        (Tick{1} << 24) - 1,
        (Tick{1} << 24),
        (Tick{1} << 32) - 1,
        (Tick{1} << 32),
        (Tick{1} << 32) + 1,
    };
    // Schedule shuffled so insertion order can't mask ordering bugs.
    for (std::size_t i = when.size(); i-- > 0;)
        eq.schedule(when[i], [&fired, t = when[i]] {
            fired.push_back(t);
        });
    eq.run();
    EXPECT_EQ(fired, when);
    EXPECT_GT(eq.cascadeCount(), 0u);
}

TEST(EventQueue, CancelSurvivesCascade)
{
    EventQueue eq;
    bool fired = false;
    // Park two events in the same level-1 slot, fire one, cancel the
    // other after the cascade has re-filed it to level 0.
    eq.schedule(300 * ticks::ns, [] {});
    EventId id = eq.schedule(310 * ticks::ns, [&] { fired = true; });
    eq.runUntil(300);
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, ScheduleIntoGapBehindCursorStillFires)
{
    EventQueue eq;
    std::vector<Tick> fired;
    // Locating the tick-300 event cascades the wheel cursor to 256.
    eq.schedule(300 * ticks::ns, [&] { fired.push_back(eq.now()); });
    eq.runUntil(5);
    EXPECT_EQ(eq.now(), 5);
    // Tick 100 is now behind the cursor but ahead of now(): the
    // heap must catch it and fire it first.
    eq.schedule(100 * ticks::ns, [&] { fired.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{100, 300}));
}

// ---- node pool and generation-tagged handles -----------------------

TEST(EventQueue, PoolRecyclesNodes)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
        eq.scheduleIn(1 * ticks::ns, [&] { ++count; });
        eq.run();
    }
    EXPECT_EQ(count, 1000);
    // One live event at a time -> the pool never grows past one node.
    EXPECT_EQ(eq.poolSize(), 1u);
}

TEST(EventQueue, StaleHandleCannotTouchRecycledNode)
{
    EventQueue eq;
    EventId stale = eq.schedule(10 * ticks::ns, [] {});
    eq.cancel(stale);
    // The next schedule reuses the same pool node under a new
    // generation; the stale handle must not reach it.
    bool fired = false;
    EventId live = eq.schedule(20 * ticks::ns, [&] { fired = true; });
    EXPECT_FALSE(eq.pending(stale));
    EXPECT_FALSE(eq.cancel(stale));
    EXPECT_TRUE(eq.pending(live));
    eq.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelSelfDuringFireReturnsFalse)
{
    EventQueue eq;
    bool sawCancel = true;
    EventId id = invalidEventId;
    id = eq.schedule(10 * ticks::ns,
                     [&] { sawCancel = eq.cancel(id); });
    eq.run();
    EXPECT_FALSE(sawCancel); // already firing == no longer pending
}

// ---- EventFn small-buffer contract ---------------------------------

TEST(EventFnTest, SmallCapturesDoNotAllocate)
{
    const std::uint64_t before = EventFn::heapAllocCount();
    EventQueue eq;
    int sum = 0;
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    // this-pointer-sized and four-word captures both fit in sboBytes.
    eq.schedule(1 * ticks::ns, [&sum] { ++sum; });
    eq.schedule(2 * ticks::ns, [&sum, a, b, c, d] {
        sum += static_cast<int>(a + b + c + d);
    });
    eq.run();
    EXPECT_EQ(sum, 11);
    EXPECT_EQ(EventFn::heapAllocCount(), before);
}

TEST(EventFnTest, OversizeCapturesFallBackToCountedHeap)
{
    const std::uint64_t before = EventFn::heapAllocCount();
    EventQueue eq;
    std::array<std::uint64_t, 8> big{}; // 64 bytes > sboBytes
    big[7] = 42;
    std::uint64_t seen = 0;
    eq.schedule(1 * ticks::ns, [big, &seen] { seen = big[7]; });
    EXPECT_EQ(EventFn::heapAllocCount(), before + 1);
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventFnTest, EmptyStdFunctionBecomesNull)
{
    EventFn fn{std::function<void()>{}};
    EXPECT_FALSE(static_cast<bool>(fn));
    EventFn fnp{static_cast<void (*)()>(nullptr)};
    EXPECT_FALSE(static_cast<bool>(fnp));
}

TEST(EventFnTest, MoveTransfersCallable)
{
    int count = 0;
    EventFn a{[&count] { ++count; }};
    EventFn b{std::move(a)};
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(count, 1);
}
