/**
 * @file
 * Nectarine API tests: tasks, messaging, RPC, buffers, and the iPSC
 * compatibility library (ring and hypercube exchanges, typed
 * receives).
 */

#include <gtest/gtest.h>

#include <numeric>

#include "nectarine/ipsc.hh"
#include "nectarine/nectarine.hh"

using namespace nectar;
using namespace nectar::nectarine;
using sim::Task;
using sim::Tick;
using sim::ticks::us;

class NectarineTest : public ::testing::Test
{
  protected:
    void
    build(int cabs)
    {
        sys = NectarSystem::singleHub(eq, cabs);
        api = std::make_unique<Nectarine>(*sys);
    }

    sim::EventQueue eq;
    std::unique_ptr<NectarSystem> sys;
    std::unique_ptr<Nectarine> api;
};

TEST_F(NectarineTest, TaskCreationAndLookup)
{
    build(2);
    TaskId a = api->createTask(0, "alpha",
                               [](TaskContext &) -> Task<void> {
                                   co_return;
                               });
    EXPECT_EQ(api->lookup("alpha"), a);
    EXPECT_FALSE(api->lookup("nosuch").has_value());
    EXPECT_THROW(api->createTask(1, "alpha",
                                 [](TaskContext &) -> Task<void> {
                                     co_return;
                                 }),
                 sim::FatalError);
    eq.run();
    EXPECT_EQ(api->completedTasks(), 1);
}

TEST_F(NectarineTest, SendReceiveBetweenTasks)
{
    build(2);
    std::vector<std::uint8_t> got;
    TaskId rx = api->createTask(
        1, "rx", [&got](TaskContext &ctx) -> Task<void> {
            auto m = co_await ctx.receive();
            got = m.bytes();
        });
    api->createTask(0, "tx", [rx](TaskContext &ctx) -> Task<void> {
        std::vector<std::uint8_t> msg(100);
        std::iota(msg.begin(), msg.end(), std::uint8_t(0));
        co_await ctx.send(rx, std::move(msg));
    });
    eq.run();
    ASSERT_EQ(got.size(), 100u);
    EXPECT_EQ(got[99], 99);
    EXPECT_EQ(api->completedTasks(), 2);
}

TEST_F(NectarineTest, DatagramDelivery)
{
    build(2);
    std::size_t got = 0;
    TaskId rx = api->createTask(
        1, "rx", [&got](TaskContext &ctx) -> Task<void> {
            auto m = co_await ctx.receive();
            got = m.size();
        });
    api->createTask(0, "tx", [rx](TaskContext &ctx) -> Task<void> {
        std::vector<std::uint8_t> msg(64, 1);
        co_await ctx.send(rx, std::move(msg), Delivery::datagram);
    });
    eq.run();
    EXPECT_EQ(got, 64u);
}

TEST_F(NectarineTest, RpcCallAndReply)
{
    build(2);
    TaskId server = api->createTask(
        1, "server", [](TaskContext &ctx) -> Task<void> {
            for (int i = 0; i < 3; ++i) {
                auto req = co_await ctx.receive();
                std::vector<std::uint8_t> resp = req.bytes();
                for (auto &b : resp)
                    b *= 2;
                ctx.reply(req, std::move(resp));
            }
        });
    std::vector<int> results;
    api->createTask(0, "client",
                    [server, &results](TaskContext &ctx) -> Task<void> {
        for (int i = 1; i <= 3; ++i) {
            std::vector<std::uint8_t> req(1, std::uint8_t(i));
            auto resp = co_await ctx.call(server, std::move(req));
            if (resp && resp->size() == 1)
                results.push_back((*resp)[0]);
        }
    });
    eq.run();
    EXPECT_EQ(results, (std::vector<int>{2, 4, 6}));
}

TEST_F(NectarineTest, BuffersAllocateAndReleaseCabMemory)
{
    build(2);
    auto &kernel = *sys->site(0).kernel;
    auto before = kernel.allocator().bytesInUse();
    {
        Buffer buf(kernel, 4096);
        EXPECT_TRUE(buf.valid());
        EXPECT_TRUE(kernel.board().memory().inDataRam(buf.address(),
                                                      buf.size()));
        EXPECT_EQ(kernel.allocator().bytesInUse(), before + 4096);
    }
    EXPECT_EQ(kernel.allocator().bytesInUse(), before);
}

TEST_F(NectarineTest, SendBufferTransfersContents)
{
    build(2);
    std::vector<std::uint8_t> got;
    TaskId rx = api->createTask(
        1, "rx", [&got](TaskContext &ctx) -> Task<void> {
            auto m = co_await ctx.receive();
            got = m.bytes();
        });
    api->createTask(0, "tx", [rx](TaskContext &ctx) -> Task<void> {
        auto buf = ctx.allocBuffer(512);
        std::iota(buf->data().begin(), buf->data().end(),
                  std::uint8_t(7));
        co_await ctx.sendBuffer(rx, *buf);
    });
    eq.run();
    ASSERT_EQ(got.size(), 512u);
    EXPECT_EQ(got[0], 7);
}

// ----- iPSC compatibility ------------------------------------------------

TEST_F(NectarineTest, IpscRingPass)
{
    build(4);
    ipsc::IpscSystem cube(*api, 4);
    std::vector<int> received(4, -1);
    cube.load([&received](ipsc::IpscNode &self) -> Task<void> {
        int n = self.mynode();
        int right = (n + 1) % self.numnodes();
        std::vector<std::uint8_t> token(1, std::uint8_t(n));
        co_await self.csend(/*type=*/1, std::move(token), right);
        auto msg = co_await self.crecv(1);
        received[n] = msg[0];
    });
    eq.run();
    for (int n = 0; n < 4; ++n)
        EXPECT_EQ(received[n], (n + 3) % 4);
    EXPECT_EQ(cube.completedNodes(), 4);
}

TEST_F(NectarineTest, IpscHypercubeAllDimensionsExchange)
{
    build(4);
    ipsc::IpscSystem cube(*api, 8); // 3-cube on 4 CABs
    std::vector<int> sums(8, 0);
    cube.load([&sums](ipsc::IpscNode &self) -> Task<void> {
        int value = self.mynode();
        for (int dim = 0; dim < 3; ++dim) {
            std::vector<std::uint8_t> out(1, std::uint8_t(value));
            co_await self.csend(10 + dim, std::move(out),
                                self.neighbor(dim));
            auto in = co_await self.crecv(10 + dim);
            value += in[0];
        }
        sums[self.mynode()] = value;
    });
    eq.run();
    // Recursive doubling: every node ends with the sum 0+1+...+7.
    for (int n = 0; n < 8; ++n)
        EXPECT_EQ(sums[n], 28);
}

TEST_F(NectarineTest, IpscTypedReceiveOutOfOrder)
{
    build(2);
    ipsc::IpscSystem cube(*api, 2);
    std::vector<int> order;
    cube.load([&order](ipsc::IpscNode &self) -> Task<void> {
        if (self.mynode() == 0) {
            // Send type 5 first, then type 6.
            std::vector<std::uint8_t> a(1, 50);
            co_await self.csend(5, std::move(a), 1);
            std::vector<std::uint8_t> b(1, 60);
            co_await self.csend(6, std::move(b), 1);
        } else {
            // Receive type 6 FIRST: crecv must match by type, parking
            // the type-5 message.
            auto six = co_await self.crecv(6);
            order.push_back(six[0]);
            auto five = co_await self.crecv(5);
            order.push_back(five[0]);
        }
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{60, 50}));
}
