/**
 * @file
 * HUB behaviour tests: connection setup, cut-through forwarding,
 * circuit and packet switching, multicast, flow control, locks,
 * status interrogation, and supervisor commands.  The multi-HUB
 * scenarios replicate Figure 7 and Sections 4.2.1-4.2.4 of the paper.
 */

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "helpers/test_endpoint.hh"
#include "hub/hub.hh"
#include "topo/topology.hh"

// nectar-lint-file: capture-ok test frames drive eq.run() to
// completion before any captured locals leave scope

using namespace nectar;
using namespace nectar::hub;
using nectar::test::TestEndpoint;
using phys::ItemKind;
using phys::WireItem;
using sim::Tick;
using sim::ticks::ns;
using sim::ticks::us;

namespace {

std::vector<std::uint8_t>
iotaBytes(std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    std::iota(v.begin(), v.end(), std::uint8_t(0));
    return v;
}

} // namespace

class HubTest : public ::testing::Test
{
  protected:
    HubTest() : wiring(eq) {}

    void
    makeHub(std::uint8_t id = 0, HubConfig cfg = {})
    {
        h = std::make_unique<Hub>(eq, "hub", id, cfg, &mon);
    }

    TestEndpoint &
    addEp(PortId port)
    {
        eps.push_back(std::make_unique<TestEndpoint>(eq));
        auto &ep = *eps.back();
        auto &tx = wiring.connectEndpoint(
            ep, *h, port, "ep" + std::to_string(port));
        ep.attachTx(tx);
        return ep;
    }

    sim::EventQueue eq;
    RecordingMonitor mon;
    topo::Wiring wiring;
    std::unique_ptr<Hub> h;
    std::vector<std::unique_ptr<TestEndpoint>> eps;
};

TEST_F(HubTest, OpenEstablishesConnection)
{
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    a.sendCommand(Op::open, 0, 1);
    eq.run();
    EXPECT_EQ(h->crossbar().ownerOf(1), 0);
    EXPECT_EQ(h->stats().opensOk.value(), 1u);
}

TEST_F(HubTest, ConnectionSetupUnderOneMicrosecond)
{
    // Section 2.3 goal: "the latency to establish a connection
    // through a single HUB should be under 1 microsecond."
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    a.sendCommand(Op::open, 0, 1);
    eq.run();
    ASSERT_EQ(mon.count(HubEvent::connectionOpen), 1u);
    Tick opened = mon.events().back().when;
    EXPECT_LT(opened, 1 * us);
    // Expected decomposition: 240 ns command serialization + 2-cycle
    // decode + 1 controller cycle = 450 ns.
    EXPECT_EQ(opened, 450 * ns);
}

TEST_F(HubTest, DataFlowsThroughOpenConnection)
{
    makeHub();
    auto &a = addEp(0);
    auto &b = addEp(1);
    a.sendCommand(Op::open, 0, 1);
    eq.run();

    auto payload = iotaBytes(64);
    eq.schedule(1000 * sim::ticks::ns, [&] { a.sendPacket(payload); });
    eq.run();

    EXPECT_EQ(b.countKind(ItemKind::startOfPacket), 1u);
    EXPECT_EQ(b.countKind(ItemKind::endOfPacket), 1u);
    EXPECT_EQ(b.collectData(), payload);
}

TEST_F(HubTest, CutThroughTimingMatchesPrototype)
{
    // Section 4, goal 1: transfer latency through an open connection
    // is five cycles (350 ns), pipelined at the fiber rate.
    makeHub();
    auto &a = addEp(0);
    auto &b = addEp(1);
    a.sendCommand(Op::open, 0, 1);
    eq.run();

    eq.schedule(1000 * sim::ticks::ns, [&] { a.sendPacket(iotaBytes(16)); });
    eq.run();

    // SOP: serialized to the HUB (80 ns), forwarded 350 ns after its
    // first byte arrives, serialized to B (80 ns): 1000+510 = 1510.
    EXPECT_EQ(b.arrivalOf(ItemKind::startOfPacket), 1510 * ns);
    // Data chunk first byte: one byte time behind the SOP.
    EXPECT_EQ(b.arrivalOf(ItemKind::data), 1590 * ns);
}

TEST_F(HubTest, SetupPlusFirstByteNearTenCycles)
{
    // Section 4, goal 1: "the latency to set up a connection and
    // transfer the first byte of a packet through a single HUB is ten
    // cycles (700 nanoseconds)."  Measured here from the arrival of
    // the command's last byte at the HUB to the first byte of data
    // emerging from the output register.
    makeHub();
    auto &a = addEp(0);
    auto &b = addEp(1);
    // Command followed immediately by the packet, as a CAB datalink
    // would send for an uncontended circuit.
    a.sendCommand(Op::openRetry, 0, 1);
    a.sendPacket(iotaBytes(16));
    eq.run();

    const Tick cmd_last_byte = 240 * ns;
    Tick sop_out = b.arrivalOf(ItemKind::startOfPacket) - 80 * ns;
    Tick setup_to_first_byte = sop_out - cmd_last_byte;
    EXPECT_GT(setup_to_first_byte, 350 * ns);
    EXPECT_LE(setup_to_first_byte, 700 * ns);
    EXPECT_EQ(b.collectData(), iotaBytes(16));
}

TEST_F(HubTest, OpenFailsWhenOutputBusy)
{
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    auto &c = addEp(2);
    a.sendCommand(Op::open, 0, 1);
    eq.run();
    c.sendCommand(Op::openReply, 0, 1);
    eq.run();
    auto replies = c.replies();
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].status, status::failure);
    EXPECT_EQ(h->crossbar().ownerOf(1), 0);
    EXPECT_GE(h->stats().opensFailed.value(), 1u);
}

TEST_F(HubTest, OpenRetrySucceedsAfterClose)
{
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    auto &c = addEp(2);
    a.sendCommand(Op::open, 0, 1);
    eq.runUntil(1 * us);
    // c keeps retrying while the output is owned by a.
    c.sendCommand(Op::openRetry, 0, 1);
    eq.runUntil(5 * us);
    EXPECT_EQ(h->crossbar().ownerOf(1), 0);
    EXPECT_GT(h->controller().retries(), 0u);
    // a releases; c's retry wins the output.
    a.sendCommand(Op::close, 0, 1);
    eq.runUntil(10 * us);
    EXPECT_EQ(h->crossbar().ownerOf(1), 2);
}

TEST_F(HubTest, CloseAllTravelsWithDataAndClosesBehind)
{
    makeHub();
    auto &a = addEp(0);
    auto &b = addEp(1);
    a.sendCommand(Op::openRetry, 0, 1);
    a.sendPacket(iotaBytes(32), /*closeAllAfter=*/true);
    eq.run();
    EXPECT_EQ(b.collectData(), iotaBytes(32));
    EXPECT_EQ(h->crossbar().connectionCount(), 0);
    // The connection can be re-established afterwards.
    a.sendCommand(Op::open, 0, 1);
    eq.run();
    EXPECT_EQ(h->crossbar().ownerOf(1), 0);
}

TEST_F(HubTest, CloseAllWithNoConnectionIsIdempotent)
{
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    a.sendCommand(Op::closeAll, 0, 0);
    eq.run();
    EXPECT_EQ(h->crossbar().connectionCount(), 0);
    EXPECT_EQ(h->errorCount(), 0);
}

TEST_F(HubTest, MulticastSingleHub)
{
    makeHub();
    auto &a = addEp(0);
    auto &b = addEp(1);
    auto &c = addEp(2);
    a.sendCommand(Op::openRetryReply, 0, 1);
    a.sendCommand(Op::openRetryReply, 0, 2);
    eq.run();
    EXPECT_EQ(a.replies().size(), 2u);

    auto payload = iotaBytes(100);
    eq.schedule(5000 * sim::ticks::ns, [&] { a.sendPacket(payload, true); });
    eq.run();
    EXPECT_EQ(b.collectData(), payload);
    EXPECT_EQ(c.collectData(), payload);
    EXPECT_EQ(h->crossbar().connectionCount(), 0);
}

TEST_F(HubTest, HeadWhoseCircuitClosesIsDroppedAfterItsWakeup)
{
    // A circuit can close under a queue head that waits out its
    // cut-through (the idle reaper or a supervisor reset do that).
    // The head's wakeup then finds no connection, starts the
    // stuck-head watchdog and drops the head stuckTimeout later; an
    // item arriving behind it in between changes nothing.
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    a.sendCommand(Op::openRetry, 0, 1);
    eq.run();
    ASSERT_EQ(h->crossbar().ownerOf(1), 0);

    const HubConfig &cfg = h->configuration();
    const Tick sent = eq.now() + 1 * us;
    const Tick sopArrives = sent + sim::proto::fiberByteTime;
    const Tick dataArrives = sopArrives + sim::proto::fiberByteTime;
    const Tick cutThrough = sopArrives + cfg.transferCycles * cfg.cycle;
    eq.schedule(sent, [&] { a.sendPacket(iotaBytes(64)); });
    eq.schedule((sopArrives + dataArrives) / 2,
                [&] { h->crossbar().close(1); });
    eq.run();

    ASSERT_GT(h->stats().stuckDrops.value(), 0u);
    Tick firstDrop = sim::maxTick;
    for (const auto &e : mon.events())
        if (e.event == HubEvent::stuckDrop)
            firstDrop = std::min(firstDrop, e.when);
    EXPECT_EQ(firstDrop, cutThrough + cfg.stuckTimeout);
}

TEST_F(HubTest, SettleWatchdogWaitsWhileTheOutputKeepsForwarding)
{
    // An open retrying against an output whose circuit keeps
    // forwarding has a wakeup in sight: it waits out the circuit,
    // however long, and is never withdrawn.
    makeHub();
    auto &a = addEp(0);
    auto &b = addEp(1);
    addEp(2);
    b.sendCommand(Op::openRetry, 0, 2);
    eq.run();
    ASSERT_EQ(h->crossbar().ownerOf(2), 1);

    const Tick t0 = eq.now();
    const Tick gap = h->configuration().stuckTimeout / 2;
    for (int i = 0; i < 8; ++i)
        eq.schedule(t0 + i * gap,
                    [&b, i] { b.sendPacket(iotaBytes(64), i == 7); });
    eq.schedule(t0 + 1 * us, [&a] {
        a.sendCommand(Op::openRetry, 0, 2);
        a.sendPacket(iotaBytes(64), /*closeAllAfter=*/true);
    });
    eq.run();

    EXPECT_EQ(h->stats().cmdAbandons.value(), 0u);
    EXPECT_EQ(h->stats().stuckDrops.value(), 0u);
    EXPECT_EQ(h->crossbar().connectionCount(), 0);
    EXPECT_EQ(eps[2]->dataBytes(), 9u * 64u);
}

TEST_F(HubTest, SettleWatchdogWithdrawsAnOpenOnASilentOutput)
{
    // The circuit holding the output never moves again: a whole stuck
    // limit later the waiting open is withdrawn, and can never
    // execute after that.
    makeHub();
    auto &a = addEp(0);
    auto &b = addEp(1);
    addEp(2);
    b.sendCommand(Op::openRetry, 0, 2);
    eq.run();
    a.sendCommand(Op::openRetry, 0, 2);
    a.sendPacket(iotaBytes(64), /*closeAllAfter=*/true);
    eq.run();

    EXPECT_EQ(h->stats().cmdAbandons.value(), 1u);
    EXPECT_EQ(h->crossbar().ownerOf(2), 1);
    EXPECT_EQ(h->controller().backlog(), 0u);
    EXPECT_EQ(eps[2]->dataBytes(), 0u);
}

namespace {

/**
 * A frame ending in closeAll, sent by input 0 to outputs 1..k, must
 * close every branch of the fan-out and count each close once.
 */
void
expectCloseAllClosesFanOut(int k)
{
    sim::EventQueue eq;
    topo::Wiring wiring(eq);
    Hub h(eq, "hub", 0, HubConfig{});
    std::vector<std::unique_ptr<TestEndpoint>> eps;
    for (PortId p = 0; p <= k; ++p) {
        eps.push_back(std::make_unique<TestEndpoint>(eq));
        eps.back()->attachTx(wiring.connectEndpoint(
            *eps.back(), h, p, "ep" + std::to_string(p)));
    }
    TestEndpoint &a = *eps.front();
    for (PortId o = 1; o <= k; ++o)
        a.sendCommand(Op::openRetryReply, 0, static_cast<std::uint8_t>(o));
    eq.run();
    ASSERT_EQ(h.crossbar().connectionCount(), k);

    a.sendPacket(iotaBytes(64), /*closeAllAfter=*/true);
    eq.run();
    for (PortId o = 1; o <= k; ++o)
        EXPECT_EQ(eps[static_cast<std::size_t>(o)]->collectData(),
                  iotaBytes(64))
            << "output " << o;
    EXPECT_EQ(h.crossbar().connectionCount(), 0);
    EXPECT_EQ(h.stats().closes.value(), static_cast<std::uint64_t>(k));
}

} // namespace

TEST(HubCloseAll, ClosesTwoBranchFanOut)
{
    expectCloseAllClosesFanOut(2);
}

TEST(HubCloseAll, ClosesThreeBranchFanOut)
{
    expectCloseAllClosesFanOut(3);
}

TEST(HubCloseAll, ClosesFourBranchFanOut)
{
    expectCloseAllClosesFanOut(4);
}

TEST_F(HubTest, ReplyCarriesOpcodeHubAndParam)
{
    makeHub(7);
    auto &a = addEp(0);
    addEp(3);
    a.sendCommand(Op::openRetryReply, 7, 3);
    eq.run();
    auto replies = a.replies();
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].op,
              static_cast<std::uint8_t>(Op::openRetryReply));
    EXPECT_EQ(replies[0].hubId, 7);
    EXPECT_EQ(replies[0].param, 3);
    EXPECT_EQ(replies[0].status, status::success);
}

TEST_F(HubTest, CommandForOtherHubWaitsForConnection)
{
    makeHub(0);
    auto &a = addEp(0);
    addEp(1);
    // A command addressed to HUB 9 is not consumed here; with no
    // connection open it waits at the head of the input queue (the
    // byte stream is strictly FIFO, so a CAB must open its local
    // connection before sending commands for downstream HUBs).
    a.sendCommand(Op::openRetry, 9, 5);
    eq.runUntil(10 * us);
    EXPECT_EQ(h->port(0).queueLength(), 1u);
}

TEST_F(HubTest, CommandForOtherHubForwardedThroughConnection)
{
    makeHub(0);
    auto &a = addEp(0);
    auto &b = addEp(1);
    a.sendCommand(Op::open, 0, 1);
    eq.run();
    // With the connection open, a command addressed to HUB 9 travels
    // through the crossbar like data.
    a.sendCommand(Op::noop, 9, 5);
    eq.run();
    ASSERT_EQ(b.countKind(ItemKind::command), 1u);
    EXPECT_EQ(b.received.back().item.cmd.hubId, 9);
}

TEST_F(HubTest, ReadySignalSentWhenSopEmergesFromInputQueue)
{
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    a.sendCommand(Op::openRetry, 0, 1);
    a.sendPacket(iotaBytes(8));
    eq.run();
    // Section 4.2.3: upstream learns the queue drained.
    EXPECT_GE(a.countKind(ItemKind::readySignal), 1u);
}

TEST_F(HubTest, TestOpenBlocksUntilDownstreamReady)
{
    makeHub();
    auto &a = addEp(0);
    auto &b = addEp(1);
    b.autoReady = false; // B never acknowledges packets

    a.sendCommand(Op::testOpenRetry, 0, 1);
    a.sendPacket(iotaBytes(16), true);
    eq.runUntil(20 * us);
    // First packet goes through (ready bit starts at 1)...
    EXPECT_EQ(b.countKind(ItemKind::startOfPacket), 1u);

    // ...but the second blocks: B has not signalled readiness.
    a.sendCommand(Op::testOpenRetry, 0, 1);
    a.sendPacket(iotaBytes(16), true);
    eq.runUntil(100 * us);
    EXPECT_EQ(b.countKind(ItemKind::startOfPacket), 1u);
    EXPECT_FALSE(h->port(1).ready());
    EXPECT_GT(h->controller().retries(), 0u);

    // B drains its queue and signals ready: the packet flows.
    b.txLink()->sendStolen(WireItem::ready());
    eq.run();
    EXPECT_EQ(b.countKind(ItemKind::startOfPacket), 2u);
    EXPECT_EQ(b.dataBytes(), 32u);
}

TEST_F(HubTest, QueueOverflowDropsAndCountsErrors)
{
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    // 2 KB into a 1 KB queue with no connection open.
    a.sendPacket(iotaBytes(2048));
    eq.runUntil(1 * sim::ticks::ms);
    EXPECT_GT(h->stats().queueOverflows.value(), 0u);
    EXPECT_GT(h->errorCount(), 0);
}

TEST_F(HubTest, LockBlocksOtherOpens)
{
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    auto &c = addEp(2);
    a.sendCommand(Op::lock, 0, 1);
    eq.run();
    c.sendCommand(Op::openReply, 0, 1);
    eq.run();
    ASSERT_EQ(c.replies().size(), 1u);
    EXPECT_EQ(c.replies()[0].status, status::failure);
    // The holder itself can open.
    a.sendCommand(Op::openReply, 0, 1);
    eq.run();
    ASSERT_EQ(a.replies().size(), 1u);
    EXPECT_EQ(a.replies()[0].status, status::success);
}

TEST_F(HubTest, TestLockRepliesAndUnlockReleases)
{
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    auto &c = addEp(2);
    a.sendCommand(Op::testLock, 0, 1);
    eq.run();
    ASSERT_EQ(a.replies().size(), 1u);
    EXPECT_EQ(a.replies()[0].status, status::success);

    c.sendCommand(Op::testLock, 0, 1);
    eq.run();
    ASSERT_EQ(c.replies().size(), 1u);
    EXPECT_EQ(c.replies()[0].status, status::failure);

    a.sendCommand(Op::unlock, 0, 1);
    eq.run();
    c.sendCommand(Op::testLock, 0, 1);
    eq.run();
    EXPECT_EQ(c.replies().back().status, status::success);
}

TEST_F(HubTest, StatusQueries)
{
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    a.sendCommand(Op::open, 0, 1);
    eq.run();

    a.sendCommand(Op::queryConn, 0, 1);
    a.sendCommand(Op::queryReady, 0, 1);
    a.sendCommand(Op::queryLock, 0, 1);
    eq.run();
    auto replies = a.replies();
    ASSERT_EQ(replies.size(), 3u);
    EXPECT_EQ(replies[0].status, 0); // owner of output 1 is port 0
    EXPECT_EQ(replies[1].status, 1); // ready
    EXPECT_EQ(replies[2].status, status::none); // unlocked

    a.sendCommand(Op::queryConn, 0, 5);
    eq.run();
    EXPECT_EQ(a.replies().back().status, status::none);
}

TEST_F(HubTest, EchoRepliesWithParam)
{
    makeHub();
    auto &a = addEp(0);
    a.sendCommand(Op::echo, 0, 0x5A);
    eq.run();
    ASSERT_EQ(a.replies().size(), 1u);
    EXPECT_EQ(a.replies()[0].status, 0x5A);
}

TEST_F(HubTest, DisabledPortDropsTraffic)
{
    makeHub();
    auto &a = addEp(0);
    auto &c = addEp(2);
    c.sendCommand(Op::svDisablePort, 0, 0);
    eq.run();
    a.sendCommand(Op::open, 0, 1);
    eq.run();
    EXPECT_EQ(h->crossbar().connectionCount(), 0);
    EXPECT_GT(h->stats().disabledDrops.value(), 0u);

    c.sendCommand(Op::svEnablePort, 0, 0);
    eq.run();
    a.sendCommand(Op::open, 0, 1);
    eq.run();
    EXPECT_EQ(h->crossbar().ownerOf(1), 0);
}

TEST_F(HubTest, SupervisorResetClearsState)
{
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    auto &c = addEp(2);
    a.sendCommand(Op::open, 0, 1);
    a.sendCommand(Op::lock, 0, 3);
    eq.run();
    EXPECT_EQ(h->crossbar().connectionCount(), 1);
    c.sendCommand(Op::svReset, 0, 0);
    eq.run();
    EXPECT_EQ(h->crossbar().connectionCount(), 0);
    EXPECT_EQ(h->crossbar().lockHolder(3), noPort);
}

TEST_F(HubTest, SupervisorQueryErrorsReply)
{
    makeHub();
    auto &a = addEp(0);
    addEp(1);
    a.sendPacket(iotaBytes(2048)); // forces queue overflow errors
    eq.runUntil(1 * sim::ticks::ms);
    auto &c = addEp(2);
    c.sendCommand(Op::svQueryErrors, 0, 0);
    eq.run();
    ASSERT_EQ(c.replies().size(), 1u);
    EXPECT_GT(c.replies()[0].status, 0);
}

TEST_F(HubTest, SupervisorPing)
{
    makeHub();
    auto &a = addEp(0);
    a.sendCommand(Op::svPing, 0, 0);
    eq.run();
    ASSERT_EQ(a.replies().size(), 1u);
    EXPECT_EQ(a.replies()[0].status, status::success);
}

// ---------------------------------------------------------------
// Multi-HUB scenarios (Figure 7, Sections 4.2.1-4.2.4).
// ---------------------------------------------------------------

class MultiHubTest : public ::testing::Test
{
  protected:
    sim::EventQueue eq;
    std::unique_ptr<topo::Topology> topo;
    std::vector<std::unique_ptr<TestEndpoint>> eps;

    TestEndpoint &
    addEp(int hubIndex, PortId port)
    {
        eps.push_back(std::make_unique<TestEndpoint>(eq));
        auto &ep = *eps.back();
        auto &tx = topo->attachEndpoint(
            ep, hubIndex, port,
            "cab_h" + std::to_string(hubIndex) + "p" +
                std::to_string(port));
        ep.attachTx(tx);
        return ep;
    }

    void
    sendRoute(TestEndpoint &src, const topo::Route &route,
              bool packetSwitched = false)
    {
        for (const auto &hop : route) {
            Op op;
            if (packetSwitched) {
                op = hop.reply ? Op::testOpenRetryReply
                               : Op::testOpenRetry;
            } else {
                op = hop.reply ? Op::openRetryReply : Op::openRetry;
            }
            src.sendCommand(op, hop.hubId, hop.outPort);
        }
    }
};

namespace {

/** H0 port 8 -- H1 port 3, a source on H0 port 0, a sink on H1 port 9,
 *  and a second source on H1 port 5. */
struct TwoHubTrunk
{
    explicit TwoHubTrunk(sim::EventQueue &eq)
        : topo(eq), src(eq), dst(eq), rival(eq)
    {
        topo.addHub("H0");
        topo.addHub("H1");
        topo.linkHubs(0, 8, 1, 3);
        src.attachTx(topo.attachEndpoint(src, 0, 0, "src"));
        dst.attachTx(topo.attachEndpoint(dst, 1, 9, "dst"));
        rival.attachTx(topo.attachEndpoint(rival, 1, 5, "rival"));
    }

    /** A packet-switched frame from src to dst. */
    void
    sendFrame()
    {
        for (const auto &hop : topo.route({0, 0}, {1, 9}))
            src.sendCommand(Op::testOpenRetry, hop.hubId, hop.outPort);
        src.sendPacket(iotaBytes(64), /*closeAllAfter=*/true);
    }

    topo::Topology topo;
    TestEndpoint src, dst, rival;
};

} // namespace

TEST(HubReadyWatchdog, WaitsForAFarQueueThatIsLate)
{
    // The far queue holds our packet behind a busy output for longer
    // than the ready limit.  The trunk's ready watchdog probes the far
    // HUB, whose answer queues behind the packet, so the ready signal
    // comes first and the bit is never presumed lost.
    sim::EventQueue eq;
    TwoHubTrunk t(eq);
    hub::Hub &h0 = t.topo.hubAt(0);
    const Tick limit = h0.configuration().readyTimeout;
    t.rival.sendCommand(Op::openRetry, 1, 9);
    eq.run();
    const Tick t0 = eq.now();
    const Tick gap = 100 * us;
    const int packets = static_cast<int>((limit * 8 / 5) / gap);
    for (int i = 0; i < packets; ++i)
        eq.schedule(t0 + i * gap, [&t, i, packets] {
            t.rival.sendPacket(iotaBytes(64), i == packets - 1);
        });
    eq.schedule(t0 + 1 * us, [&t] { t.sendFrame(); });
    eq.run();

    EXPECT_EQ(h0.stats().readyRearms.value(), 0u);
    EXPECT_TRUE(h0.port(8).ready());
    EXPECT_EQ(t.dst.dataBytes(), 64u * (packets + 1));
}

TEST(HubReadyWatchdog, RearmsOnceTheProbeIsAnsweredFirst)
{
    // The far HUB's ready signal dies on a dark fiber.  The probe's
    // answer comes back with the bit still clear, so the signal is
    // presumed lost at once instead of after a second limit.
    sim::EventQueue eq;
    TwoHubTrunk t(eq);
    hub::Hub &h0 = t.topo.hubAt(0);
    const Tick limit = h0.configuration().readyTimeout;
    phys::FiberLink *back = t.topo.hubLinks().front().ba;
    back->setLinkUp(false);
    t.sendFrame();
    eq.schedule(50 * us, [back] { back->setLinkUp(true); });
    bool rearmedInTime = false;
    eq.schedule(limit + 100 * us, [&] {
        rearmedInTime = h0.stats().readyRearms.value() == 1;
    });
    eq.run();

    EXPECT_TRUE(rearmedInTime);
    EXPECT_EQ(h0.stats().readyRearms.value(), 1u);
    EXPECT_TRUE(h0.port(8).ready());
}

TEST_F(MultiHubTest, CircuitSwitchingTwoHubs)
{
    // Section 4.2.1: CAB3 -> HUB2(P4->P8) -> HUB1(P3->P8) -> CAB1.
    topo = std::make_unique<topo::Topology>(eq);
    int hub1 = topo->addHub("HUB1");
    int hub2 = topo->addHub("HUB2");
    topo->linkHubs(hub2, 8, hub1, 3);
    auto &cab3 = addEp(hub2, 4);
    auto &cab1 = addEp(hub1, 8);

    auto route = topo->route({hub2, 4}, {hub1, 8});
    ASSERT_EQ(route.size(), 2u);
    EXPECT_EQ(route[0],
              (topo::Hop{topo->hubAt(hub2).hubId(), 8, false}));
    EXPECT_EQ(route[1],
              (topo::Hop{topo->hubAt(hub1).hubId(), 8, true}));

    sendRoute(cab3, route);
    eq.run();
    // The reply travelled backward over the established route.
    ASSERT_EQ(cab3.replies().size(), 1u);
    EXPECT_EQ(cab3.replies()[0].hubId, topo->hubAt(hub1).hubId());
    EXPECT_EQ(cab3.replies()[0].status, status::success);

    auto payload = iotaBytes(200);
    eq.schedule(eq.now() + 100, [&] { cab3.sendPacket(payload, true); });
    eq.run();
    EXPECT_EQ(cab1.collectData(), payload);
    // closeAll closed both hops behind the data.
    EXPECT_EQ(topo->hubAt(hub1).crossbar().connectionCount(), 0);
    EXPECT_EQ(topo->hubAt(hub2).crossbar().connectionCount(), 0);
}

TEST_F(MultiHubTest, MulticastFourHubs)
{
    // Section 4.2.2 / Figure 7: CAB2 multicasts to CAB4 and CAB5.
    topo = std::make_unique<topo::Topology>(eq);
    int hub1 = topo->addHub("HUB1");
    topo->addHub("HUB2"); // present in the figure, unused by route
    int hub3 = topo->addHub("HUB3");
    int hub4 = topo->addHub("HUB4");
    topo->linkHubs(hub1, 6, hub4, 0);
    topo->linkHubs(hub4, 3, hub3, 1);

    auto &cab2 = addEp(hub1, 2);
    auto &cab4 = addEp(hub4, 5);
    auto &cab5 = addEp(hub3, 4);

    auto route = topo->multicastRoute({hub1, 2},
                                      {{hub4, 5}, {hub3, 4}});
    // Expected command order (paper): open HUB1 P6; openRR HUB4 P5;
    // open HUB4 P3; openRR HUB3 P4.
    ASSERT_EQ(route.size(), 4u);
    EXPECT_EQ(route[0],
              (topo::Hop{topo->hubAt(hub1).hubId(), 6, false}));
    EXPECT_EQ(route[1],
              (topo::Hop{topo->hubAt(hub4).hubId(), 5, true}));
    EXPECT_EQ(route[2],
              (topo::Hop{topo->hubAt(hub4).hubId(), 3, false}));
    EXPECT_EQ(route[3],
              (topo::Hop{topo->hubAt(hub3).hubId(), 4, true}));

    sendRoute(cab2, route);
    eq.run();
    // One reply per terminal open.
    EXPECT_EQ(cab2.replies().size(), 2u);

    auto payload = iotaBytes(150);
    eq.schedule(eq.now() + 100, [&] { cab2.sendPacket(payload, true); });
    eq.run();
    EXPECT_EQ(cab4.collectData(), payload);
    EXPECT_EQ(cab5.collectData(), payload);
    EXPECT_EQ(topo->hubAt(hub1).crossbar().connectionCount(), 0);
    EXPECT_EQ(topo->hubAt(hub4).crossbar().connectionCount(), 0);
    EXPECT_EQ(topo->hubAt(hub3).crossbar().connectionCount(), 0);
}

TEST_F(MultiHubTest, PacketSwitchingStoreAndForward)
{
    // Section 4.2.3: with test open, the packet is forwarded to the
    // next HUB as soon as that HUB's input queue is available.
    topo = std::make_unique<topo::Topology>(eq);
    int hub1 = topo->addHub("HUB1");
    int hub2 = topo->addHub("HUB2");
    topo->linkHubs(hub2, 8, hub1, 3);
    auto &cab3 = addEp(hub2, 4);
    auto &cab1 = addEp(hub1, 8);

    auto route = topo->route({hub2, 4}, {hub1, 8});
    sendRoute(cab3, route, /*packetSwitched=*/true);
    auto payload = iotaBytes(128);
    cab3.sendPacket(payload, true);
    eq.run();
    EXPECT_EQ(cab1.collectData(), payload);
    EXPECT_EQ(cab3.replies().size(), 1u);
    EXPECT_EQ(topo->hubAt(hub1).crossbar().connectionCount(), 0);
    EXPECT_EQ(topo->hubAt(hub2).crossbar().connectionCount(), 0);
}

TEST_F(MultiHubTest, MeshRouteHopCountsMatchManhattanDistance)
{
    auto mesh = topo::buildTopology(eq, topo::describeMesh2D(3, 3, 0));
    // Corner to corner: 4 inter-hub hops + the destination hop.
    topo::Endpoint a{topo::meshHubIndex(0, 0, 3), 0};
    topo::Endpoint b{topo::meshHubIndex(2, 2, 3), 0};
    EXPECT_EQ(mesh->hopCount(a, b), 5);
    // Same hub: just the destination open.
    topo::Endpoint c{topo::meshHubIndex(0, 0, 3), 1};
    EXPECT_EQ(mesh->hopCount(a, c), 1);
}

TEST_F(MultiHubTest, MeshEndToEndDelivery)
{
    topo = topo::buildTopology(eq, topo::describeMesh2D(2, 2, 0));
    auto &src = addEp(topo::meshHubIndex(0, 0, 2), 0);
    auto &dst = addEp(topo::meshHubIndex(1, 1, 2), 3);

    auto route = topo->route({topo::meshHubIndex(0, 0, 2), 0},
                             {topo::meshHubIndex(1, 1, 2), 3});
    EXPECT_EQ(route.size(), 3u);
    sendRoute(src, route);
    eq.run();
    ASSERT_EQ(src.replies().size(), 1u);

    auto payload = iotaBytes(99);
    eq.schedule(eq.now() + 100, [&] { src.sendPacket(payload, true); });
    eq.run();
    EXPECT_EQ(dst.collectData(), payload);
}
