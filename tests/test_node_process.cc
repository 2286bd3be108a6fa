/**
 * @file
 * Node-resident Nectarine tasks: processes on nodes exchanging
 * messages with CAB tasks and with each other through the
 * shared-memory interface ("Tasks are processes on any CAB or node",
 * Section 6.3).
 */

#include <gtest/gtest.h>

#include "nectarine/nectarine.hh"
#include "node/node_process.hh"

// nectar-lint-file: capture-ok test frames drive eq.run() to
// completion before any captured locals leave scope

using namespace nectar;
using namespace nectar::node;
using nectarine::Nectarine;
using nectarine::NectarSystem;
using nectarine::TaskContext;
using sim::Task;
using sim::ticks::us;

// ----- Node processes ----------------------------------------------------

class NodeProcessTest : public ::testing::Test
{
  protected:
    void
    build(int cabs)
    {
        sys = NectarSystem::singleHub(eq, cabs);
        api = std::make_unique<Nectarine>(*sys);
        runner = std::make_unique<NodeProcessRunner>(*api);
    }

    sim::EventQueue eq;
    std::unique_ptr<NectarSystem> sys;
    std::unique_ptr<Nectarine> api;
    std::unique_ptr<NodeProcessRunner> runner;
};

TEST_F(NodeProcessTest, RoundTripBetweenNodeAndCabTask)
{
    build(2);
    Node host(eq, "sun1");

    std::vector<std::uint8_t> cab_got, node_got;

    // CAB-side echo task.
    nectarine::TaskId echo = api->createTask(
        1, "echo", [&cab_got](TaskContext &ctx) -> Task<void> {
            auto m = co_await ctx.receive();
            cab_got = m.bytes();
            // First two bytes carry the reply address.
            nectarine::TaskId back{
                static_cast<transport::CabAddress>(
                    (m.view()[0] << 8) | m.view()[1]),
                static_cast<std::uint16_t>((m.view()[2] << 8) |
                                           m.view()[3])};
            std::vector<std::uint8_t> reply(m.bytes().rbegin(),
                                            m.bytes().rend());
            co_await ctx.send(back, std::move(reply));
        });

    // Node-side process.
    runner->spawn(0, host, "nodeproc",
                  [echo, &node_got](NodeProcess &self) -> Task<void> {
        std::vector<std::uint8_t> msg(8, 0);
        msg[0] = static_cast<std::uint8_t>(self.id().cab >> 8);
        msg[1] = static_cast<std::uint8_t>(self.id().cab);
        msg[2] = static_cast<std::uint8_t>(self.id().index >> 8);
        msg[3] = static_cast<std::uint8_t>(self.id().index);
        msg[7] = 0x77;
        co_await self.send(echo, msg);
        auto m = co_await self.receive();
        node_got = m.bytes();
    });

    eq.run();
    ASSERT_EQ(cab_got.size(), 8u);
    EXPECT_EQ(cab_got[7], 0x77);
    ASSERT_EQ(node_got.size(), 8u);
    EXPECT_EQ(node_got[0], 0x77); // reversed echo
    EXPECT_EQ(runner->completed(), 1);
    // The node paid for its I/O: VME transfers happened, and no
    // interrupts (shared-memory interface polls).
    EXPECT_GT(host.vme().bytesTransferred(), 0u);
    EXPECT_EQ(host.interruptsTaken(), 0u);
}

TEST_F(NodeProcessTest, TwoNodeProcessesCommunicate)
{
    build(2);
    Node sun1(eq, "sun1"), sun2(eq, "sun2");

    std::vector<std::uint8_t> got;
    nectarine::TaskId receiver = api->registerExternalTask(1, "rx");
    // Manually run the receiver against its own interface (the
    // runner would do the same).
    auto shm_rx = std::make_unique<SharedMemoryInterface>(
        sun2, sys->site(1));
    sim::spawn([](SharedMemoryInterface &shm, nectarine::TaskId id,
                  std::vector<std::uint8_t> &got) -> Task<void> {
        auto m = co_await shm.receive(
            nectarine::Nectarine::inboxId(id.index));
        got = m.bytes();
    }(*shm_rx, receiver, got));

    runner->spawn(0, sun1, "tx",
                  [receiver](NodeProcess &self) -> Task<void> {
        std::vector<std::uint8_t> msg(64, 0xAB);
        co_await self.send(receiver, std::move(msg));
    });

    eq.run();
    ASSERT_EQ(got.size(), 64u);
    EXPECT_EQ(got[0], 0xAB);
}

TEST_F(NodeProcessTest, ExternalTasksAppearInDirectory)
{
    build(2);
    Node host(eq, "sun1");
    auto id = runner->spawn(0, host, "proc",
                            [](NodeProcess &) -> Task<void> {
                                co_return;
                            });
    EXPECT_EQ(api->lookup("proc"), id);
    eq.run();
    EXPECT_EQ(api->completedTasks(), 1);
}
