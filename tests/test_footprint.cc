/**
 * @file
 * Footprint gates: the heap a CAB and a 64-HUB fabric cost to
 * construct, and the heap allocations of a message round trip.  Bytes
 * and calls are counted exactly, through the replaced global
 * operator new in helpers/alloc_counter.hh, so the gates are
 * deterministic: no RSS, no wall-clock.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "cab/cab.hh"
#include "helpers/alloc_counter.hh"
#include "nectarine/system.hh"
#include "sim/event_fn.hh"
#include "topo/description.hh"
#include "workload/probes.hh"

namespace {

using namespace nectar;

/** ROADMAP's per-CAB gate: an idle board costs at most 64 KiB. */
constexpr std::uint64_t cabBudgetBytes = 64 * 1024;

/** Bytes requested from operator new while @p build runs. */
template <typename F>
std::uint64_t
bytesAllocatedBy(F &&build)
{
    const std::uint64_t before = testutil::allocCounts.bytes;
    build();
    return testutil::allocCounts.bytes - before;
}

TEST(Footprint, IdleCabAllocatesAtMost64KiB)
{
    sim::EventQueue eq;
    std::unique_ptr<cab::Cab> board;
    const std::uint64_t bytes = bytesAllocatedBy(
        [&] { board = std::make_unique<cab::Cab>(eq, "cab0"); });
    RecordProperty("bytes", std::to_string(bytes));
    EXPECT_LE(bytes, cabBudgetBytes);
}

TEST(Footprint, Mesh8x8Of13CabHubsAllocatesAtMost64KiBPerCab)
{
    const auto desc = topo::describeMesh2D(8, 8, 13, 0, 20);
    ASSERT_EQ(desc.cabs.size(), 832u);
    sim::EventQueue eq;
    std::unique_ptr<nectarine::NectarSystem> sys;
    const std::uint64_t bytes = bytesAllocatedBy([&] {
        sys = nectarine::NectarSystem::fromDescription(eq, desc);
    });
    RecordProperty("bytes", std::to_string(bytes));
    EXPECT_LE(bytes, desc.cabs.size() * cabBudgetBytes);
}

/** EventFn heap fallbacks and operator new calls during one run. */
struct RunAllocs
{
    std::uint64_t fallbacks = 0;
    std::uint64_t calls = 0;
};

/** A ping-pong message shape. */
struct Shape
{
    bool twoHubs = false; ///< The CABs sit on two meshed HUBs.
    nectarine::Delivery delivery = nectarine::Delivery::datagram;
    std::uint32_t bytes = 64;
};

/** A ping-pong of @p trips round trips of @p shape between two
 *  CABs, counted from the first event to the drain. */
RunAllocs
pingPongAllocs(const Shape &shape, int trips)
{
    sim::EventQueue eq;
    auto sys = shape.twoHubs
        ? nectarine::NectarSystem::fromDescription(
              eq, topo::describeMesh2D(1, 2, 1))
        : nectarine::NectarSystem::singleHub(eq, 2);
    nectarine::Nectarine api(*sys);
    workload::PingPongConfig cfg;
    cfg.iterations = trips;
    cfg.messageBytes = shape.bytes;
    cfg.delivery = shape.delivery;
    workload::PingPong pp(api, 0, 1, cfg);
    const RunAllocs before{sim::EventFn::heapAllocCount(),
                           testutil::allocCounts.calls};
    eq.run();
    EXPECT_TRUE(pp.finished());
    return {sim::EventFn::heapAllocCount() - before.fallbacks,
            testutil::allocCounts.calls - before.calls};
}

/**
 * Check that a round trip of @p shape in the steady state spills no
 * EventFn and calls operator new at most @p maxCallsPerTrip times.
 * Two run lengths differ by whole round trips only, so their
 * difference is the steady-state cost, free of start-up and drain.
 */
void
expectSteadyStateAllocs(const Shape &shape, double maxCallsPerTrip)
{
    constexpr int extraTrips = 100;
    const RunAllocs base = pingPongAllocs(shape, 100);
    const RunAllocs more = pingPongAllocs(shape, 100 + extraTrips);
    const std::uint64_t fallbacks = more.fallbacks - base.fallbacks;
    const std::uint64_t calls = more.calls - base.calls;
    const double callsPerTrip =
        static_cast<double>(calls) / extraTrips;
    testing::Test::RecordProperty(
        "eventfn_fallbacks_per_round_trip",
        std::to_string(static_cast<double>(fallbacks) / extraTrips));
    testing::Test::RecordProperty("operator_new_calls_per_round_trip",
                                  std::to_string(callsPerTrip));
    EXPECT_EQ(fallbacks, 0u);
    EXPECT_LE(callsPerTrip, maxCallsPerTrip);
}

// The message path allocates nothing per round trip but PingPong's
// payload vector and its Buffer (2) and each header's vector and
// Buffer (4); the datalink holds the directory's shared route instead
// of copying it per packet (that copy was 2 more).  Before the
// in-flight fiber FIFOs, inline PacketView segments, reusable frames
// and pooled coroutine frames, a 64 B datagram round trip on one HUB
// made 98.6 operator new calls and 24 EventFn spills.
TEST(Footprint, PingPongRoundTripMakesNoSpillAndAtMost6Allocations)
{
    expectSteadyStateAllocs(Shape{}, 6);
}

// Two HUBs, 64 B datagram: 6.00 calls (120.9 calls and 38 spills
// before that work, 8.00 with the route copy).
TEST(Footprint, TwoHubRoundTripMakesNoSpillAndAtMost6Allocations)
{
    Shape shape;
    shape.twoHubs = true;
    expectSteadyStateAllocs(shape, 6);
}

// One HUB, reliable delivery, 64 B: 9.95 calls (190.5 calls and 48
// spills before that work, 15.94 with the route copy, 11.95 with a
// std::map node per data packet in SenderFlow::unacked).
TEST(Footprint, ReliableRoundTripMakesNoSpillAndAtMost10Allocations)
{
    Shape shape;
    shape.delivery = nectarine::Delivery::reliable;
    expectSteadyStateAllocs(shape, 10);
}

// One HUB, 900 B datagram (two fragments): 10.00 calls (239.5 calls
// and 60 spills before that work).  Reassembling fragments in reused
// slots instead of map nodes took it from 19.84 calls to 14.00, and
// dropping the route copy to 10.00.
TEST(Footprint, LargeDatagramRoundTripMakesNoSpillAndAtMost10Allocations)
{
    Shape shape;
    shape.bytes = 900;
    expectSteadyStateAllocs(shape, 10);
}

} // namespace
