/**
 * @file
 * Tests for the message path's allocation-free containers: sim::Fifo
 * (ring buffer with inline room) and sim::SmallVector (inline first
 * elements).  Both hold shared_ptrs here so element lifetimes show in
 * use counts.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/fifo.hh"
#include "sim/small_vector.hh"

namespace {

using nectar::sim::Fifo;
using nectar::sim::SmallVector;

template <typename F>
std::vector<int>
drain(F &fifo)
{
    std::vector<int> out;
    while (!fifo.empty()) {
        out.push_back(fifo.front());
        fifo.pop_front();
    }
    return out;
}

TEST(Fifo, GrowsAcrossTheWrapInOrder)
{
    Fifo<int> q;
    for (int i = 0; i < 3; ++i)
        q.push_back(i);
    q.pop_front();
    q.pop_front();
    // The head sits mid-ring; growing must unroll it in order.
    for (int i = 3; i < 12; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 10u);
    EXPECT_EQ(drain(q), (std::vector<int>{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(Fifo, InlineRoomSpillsToTheHeap)
{
    Fifo<int, 1> q;
    q.push_back(7);
    EXPECT_EQ(drain(q), std::vector<int>{7});
    for (int i = 0; i < 5; ++i)
        q.push_back(i);
    EXPECT_EQ(drain(q), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Fifo, EraseIfKeepsTheRestInOrder)
{
    Fifo<int> q;
    for (int i = 0; i < 4; ++i)
        q.push_back(i);
    q.pop_front();
    for (int i = 4; i < 7; ++i)
        q.push_back(i); // wraps
    q.eraseIf([](int v) { return v % 2 == 0; });
    EXPECT_EQ(drain(q), (std::vector<int>{1, 3, 5}));
}

TEST(Fifo, ReleasesElementsOnPopClearAndDestruction)
{
    auto token = std::make_shared<int>(0);
    {
        Fifo<std::shared_ptr<int>, 1> q;
        for (int i = 0; i < 3; ++i)
            q.push_back(token);
        q.eraseIf([](const auto &) { return false; });
        EXPECT_EQ(token.use_count(), 4);
        q.pop_front();
        EXPECT_EQ(token.use_count(), 3);
        q.clear();
        EXPECT_EQ(token.use_count(), 1);
        q.push_back(token);
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallVector, CopiesAndMovesInlineAndSpilled)
{
    auto token = std::make_shared<int>(0);
    using Vec = SmallVector<std::shared_ptr<int>, 2>;
    for (std::size_t n : {2u, 5u}) { // fits inline; spills
        Vec v;
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(token);
        Vec copy = v;
        EXPECT_EQ(copy.size(), n);
        EXPECT_EQ(token.use_count(), static_cast<long>(1 + 2 * n));
        Vec moved = std::move(v);
        EXPECT_TRUE(v.empty());
        EXPECT_EQ(moved.size(), n);
        moved = copy;
        copy = std::move(moved);
        EXPECT_TRUE(moved.empty());
        EXPECT_EQ(copy.size(), n);
        EXPECT_EQ(token.use_count(), static_cast<long>(1 + n));
        copy.clear();
        EXPECT_EQ(token.use_count(), 1);
    }
}

} // namespace
