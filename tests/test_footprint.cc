/**
 * @file
 * Build-footprint gates: the heap a CAB and a 64-HUB fabric cost to
 * construct.  Bytes are counted exactly, through the replaced global
 * operator new below, so the gates are deterministic: no RSS, no
 * wall-clock.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "cab/cab.hh"
#include "nectarine/system.hh"
#include "topo/description.hh"

// ----- global allocation counter ------------------------------------

namespace {
std::uint64_t g_newBytes = 0;

// Kept out of line so GCC does not see free() applied to a pointer
// from operator new (-Wmismatched-new-delete); see bench_engine.cc.
[[gnu::noinline]] void
releaseBlock(void *p) noexcept
{
    std::free(p);
}
} // namespace

void *
operator new(std::size_t n)
{
    g_newBytes += n;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    releaseBlock(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    releaseBlock(p);
}

void
operator delete[](void *p) noexcept
{
    releaseBlock(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    releaseBlock(p);
}

namespace {

using namespace nectar;

/** ROADMAP's per-CAB gate: an idle board costs at most 64 KiB. */
constexpr std::uint64_t cabBudgetBytes = 64 * 1024;

/** Bytes requested from operator new while @p build runs. */
template <typename F>
std::uint64_t
bytesAllocatedBy(F &&build)
{
    const std::uint64_t before = g_newBytes;
    build();
    return g_newBytes - before;
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
