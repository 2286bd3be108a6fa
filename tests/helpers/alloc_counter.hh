/**
 * @file
 * Exact heap accounting for the allocation gates: a replaced global
 * operator new that counts every call and every requested byte in
 * the process.  Counting is exact, not sampled, so a gate built on a
 * before/after delta is deterministic: no RSS, no wall-clock.
 *
 * A replaced operator new may not be inline, so this header defines
 * it outright: include it from exactly one translation unit of a
 * binary (bench_engine counts calls, test_footprint counts bytes).
 */

#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace nectar::testutil {

/** Every operator new call since the process started. */
struct AllocCounts
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

inline AllocCounts allocCounts;

// Kept out of line: once a replaced delete inlines into its caller,
// GCC sees free() applied to a pointer that came from operator new
// and warns (-Wmismatched-new-delete).  Counting happens in operator
// new alone, so this changes no count.
[[gnu::noinline]] inline void
releaseBlock(void *p) noexcept
{
    std::free(p);
}

} // namespace nectar::testutil

void *
operator new(std::size_t n)
{
    ++nectar::testutil::allocCounts.calls;
    nectar::testutil::allocCounts.bytes += n;
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
    nectar::testutil::releaseBlock(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    nectar::testutil::releaseBlock(p);
}

void
operator delete[](void *p) noexcept
{
    nectar::testutil::releaseBlock(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    nectar::testutil::releaseBlock(p);
}
