/**
 * @file
 * Footprint gates: the heap a CAB and a 64-HUB fabric cost to
 * construct, and the heap fallbacks of a message round trip.  Bytes
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

/** A ping-pong of @p trips 64 B datagram round trips between the two
 *  CABs of a single HUB, counted from the first event to the drain. */
RunAllocs
pingPongAllocs(int trips)
{
    sim::EventQueue eq;
    auto sys = nectarine::NectarSystem::singleHub(eq, 2);
    nectarine::Nectarine api(*sys);
    workload::PingPongConfig cfg;
    cfg.iterations = trips;
    cfg.messageBytes = 64;
    workload::PingPong pp(api, 0, 1, cfg);
    const RunAllocs before{sim::EventFn::heapAllocCount(),
                           testutil::allocCounts.calls};
    eq.run();
    EXPECT_TRUE(pp.finished());
    return {sim::EventFn::heapAllocCount() - before.fallbacks,
            testutil::allocCounts.calls - before.calls};
}

TEST(Footprint, PingPongRoundTripSpillsAtMost24EventFns)
{
    // The message path is not allocation-free: FiberLink::deliver's
    // capture (a WireItem and two ticks) outgrows EventFn::sboBytes.
    // This bound lets the count fall, never rise.  Two run lengths
    // differ by whole round trips only, so their difference is the
    // steady-state cost, free of start-up and drain.
    constexpr int extraTrips = 100;
    const RunAllocs base = pingPongAllocs(100);
    const RunAllocs more = pingPongAllocs(100 + extraTrips);
    const std::uint64_t fallbacks = more.fallbacks - base.fallbacks;
    const std::uint64_t calls = more.calls - base.calls;
    RecordProperty("eventfn_fallbacks_per_round_trip",
                   std::to_string(static_cast<double>(fallbacks) /
                                  extraTrips));
    RecordProperty("operator_new_calls_per_round_trip",
                   std::to_string(static_cast<double>(calls) /
                                  extraTrips));
    EXPECT_LE(fallbacks, 24u * extraTrips);
}

} // namespace
