/**
 * @file
 * Build-footprint gates: the heap a CAB and a 64-HUB fabric cost to
 * construct.  Bytes are counted exactly, through the replaced global
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
#include "topo/description.hh"

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

} // namespace
