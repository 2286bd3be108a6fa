/**
 * @file
 * Datalink-layer tests: packet/circuit switched transfer between full
 * CAB stacks across single- and multi-HUB systems, multicast, flow
 * control, and recovery from lost commands.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "nectarine/system.hh"
#include "sim/coro.hh"

// nectar-lint-file: capture-ok test frames drive eq.run() to
// completion before any captured locals leave scope

using namespace nectar;
using namespace nectar::datalink;
using nectarine::NectarSystem;
using sim::Task;
using sim::Tick;
using sim::ticks::ms;
using sim::ticks::us;

namespace {

std::vector<std::uint8_t>
iotaBytes(std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    std::iota(v.begin(), v.end(), std::uint8_t(0));
    return v;
}

/** Run a datalink send and capture the result. */
void
runSend(sim::EventQueue &eq, Datalink &dl, topo::Route route,
        phys::Payload payload, SwitchMode mode, bool &result)
{
    sim::spawn([](Datalink &dl, topo::Route route, phys::Payload p,
                  SwitchMode mode, bool &result) -> Task<void> {
        result = co_await dl.sendPacket(std::move(route), std::move(p),
                                        mode);
    }(dl, std::move(route), std::move(payload), mode, result));
    eq.run();
}

} // namespace

class DatalinkTest : public ::testing::Test
{
  protected:
    sim::EventQueue eq;
    std::unique_ptr<NectarSystem> sys;

    struct RxCapture
    {
        std::vector<std::vector<std::uint8_t>> packets;
        int corrupted = 0;
    };

    RxCapture &
    capture(std::size_t site)
    {
        auto cap = std::make_unique<RxCapture>();
        RxCapture &ref = *cap;
        captures.push_back(std::move(cap));
        sys->site(site).datalink->rxHandler =
            [&ref](sim::PacketView &&bytes, bool corrupted) {
                ref.packets.push_back(bytes.toVector());
                if (corrupted)
                    ++ref.corrupted;
            };
        return ref;
    }

    topo::Route
    routeBetween(std::size_t from, std::size_t to)
    {
        return sys->topo().route(sys->site(from).at, sys->site(to).at);
    }

    std::vector<std::unique_ptr<RxCapture>> captures;
};

TEST_F(DatalinkTest, PacketSwitchedDelivery)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &rx = capture(1);
    bool sent = false;
    auto payload = iotaBytes(500);
    runSend(eq, *sys->site(0).datalink, routeBetween(0, 1),
            phys::makePayload(payload), SwitchMode::packet, sent);
    EXPECT_TRUE(sent);
    ASSERT_EQ(rx.packets.size(), 1u);
    EXPECT_EQ(rx.packets[0], payload);
    EXPECT_EQ(sys->site(1).datalink->stats().packetsReceived.value(),
              1u);
}

TEST_F(DatalinkTest, CircuitSwitchedDelivery)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &rx = capture(1);
    bool sent = false;
    auto payload = iotaBytes(500);
    runSend(eq, *sys->site(0).datalink, routeBetween(0, 1),
            phys::makePayload(payload), SwitchMode::circuit, sent);
    EXPECT_TRUE(sent);
    ASSERT_EQ(rx.packets.size(), 1u);
    EXPECT_EQ(rx.packets[0], payload);
    // The route closed behind the data.
    EXPECT_EQ(sys->topo().hubAt(0).crossbar().connectionCount(), 0);
}

TEST_F(DatalinkTest, CircuitStreamsLargePacket)
{
    // Circuit switching carries packets larger than the HUB input
    // queue ("Circuit switching must be used for larger packets",
    // Section 4.2.3).
    sys = NectarSystem::singleHub(eq, 2);
    auto &rx = capture(1);
    bool sent = false;
    auto payload = iotaBytes(64 * 1024);
    runSend(eq, *sys->site(0).datalink, routeBetween(0, 1),
            phys::makePayload(payload), SwitchMode::circuit, sent);
    EXPECT_TRUE(sent);
    ASSERT_EQ(rx.packets.size(), 1u);
    EXPECT_EQ(rx.packets[0].size(), payload.size());
    EXPECT_EQ(rx.packets[0], payload);
}

TEST_F(DatalinkTest, PacketModeRejectsOversizedFrame)
{
    sys = NectarSystem::singleHub(eq, 2);
    bool sent = false;
    EXPECT_THROW(
        runSend(eq, *sys->site(0).datalink, routeBetween(0, 1),
                phys::makePayload(iotaBytes(2000)), SwitchMode::packet,
                sent),
        sim::PanicError);
}

TEST_F(DatalinkTest, MultiHubMeshDelivery)
{
    sys = NectarSystem::mesh2D(eq, 2, 2, 1);
    auto &rx = capture(3); // CAB on the diagonally opposite hub
    bool sent = false;
    auto payload = iotaBytes(256);
    runSend(eq, *sys->site(0).datalink, routeBetween(0, 3),
            phys::makePayload(payload), SwitchMode::packet, sent);
    EXPECT_TRUE(sent);
    ASSERT_EQ(rx.packets.size(), 1u);
    EXPECT_EQ(rx.packets[0], payload);
}

TEST_F(DatalinkTest, MultiHubCircuitDelivery)
{
    sys = NectarSystem::mesh2D(eq, 2, 2, 1);
    auto &rx = capture(3);
    bool sent = false;
    auto payload = iotaBytes(4096);
    runSend(eq, *sys->site(0).datalink, routeBetween(0, 3),
            phys::makePayload(payload), SwitchMode::circuit, sent);
    EXPECT_TRUE(sent);
    ASSERT_EQ(rx.packets.size(), 1u);
    EXPECT_EQ(rx.packets[0], payload);
    for (int h = 0; h < 4; ++h)
        EXPECT_EQ(sys->topo().hubAt(h).crossbar().connectionCount(), 0);
}

TEST_F(DatalinkTest, MulticastCircuitDelivery)
{
    sys = NectarSystem::singleHub(eq, 3);
    auto &rx1 = capture(1);
    auto &rx2 = capture(2);
    auto route = sys->topo().multicastRoute(
        sys->site(0).at, {sys->site(1).at, sys->site(2).at});
    bool sent = false;
    auto payload = iotaBytes(300);
    runSend(eq, *sys->site(0).datalink, route,
            phys::makePayload(payload), SwitchMode::circuit, sent);
    EXPECT_TRUE(sent);
    ASSERT_EQ(rx1.packets.size(), 1u);
    ASSERT_EQ(rx2.packets.size(), 1u);
    EXPECT_EQ(rx1.packets[0], payload);
    EXPECT_EQ(rx2.packets[0], payload);
}

TEST_F(DatalinkTest, BackToBackPacketsRespectFlowControl)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &rx = capture(1);
    int done = 0;
    auto sender = [](Datalink &dl, topo::Route route,
                     int count, int &done) -> Task<void> {
        for (int i = 0; i < count; ++i) {
            bool ok = co_await dl.sendPacket(
                route, phys::makePayload(
                    std::vector<std::uint8_t>(400, std::uint8_t(i))),
                SwitchMode::packet);
            if (ok)
                ++done;
        }
    };
    sim::spawn(sender(*sys->site(0).datalink, routeBetween(0, 1), 10,
                      done));
    eq.run();
    EXPECT_EQ(done, 10);
    EXPECT_EQ(rx.packets.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rx.packets[i][0], std::uint8_t(i));
}

TEST_F(DatalinkTest, CircuitRecoversFromBusyOutput)
{
    // A competing connection occupies the destination port; the
    // openRetry keeps retrying in hardware until it frees up.
    sys = NectarSystem::singleHub(eq, 3);
    auto &rx = capture(1);

    // Site 2 manually opens a connection to site 1's port and holds
    // it for a while.
    auto &hub0 = sys->topo().hubAt(0);
    auto dst_port = sys->site(1).at.port;
    auto blocker_port = sys->site(2).at.port;
    ASSERT_TRUE(hub0.crossbar().open(blocker_port, dst_port));

    bool sent = false;
    sim::spawn([](Datalink &dl, topo::Route route,
                  phys::Payload p, bool &sent) -> Task<void> {
        sent = co_await dl.sendPacket(std::move(route), std::move(p),
                                      SwitchMode::circuit);
    }(*sys->site(0).datalink, routeBetween(0, 1),
      phys::makePayload(iotaBytes(100)), sent));

    // Release the blocker after 100 us (within the reply timeout, so
    // the hardware retry wins without software recovery).
    eq.schedule(100 * us, [&] { hub0.crossbar().close(dst_port); });
    eq.run();
    EXPECT_TRUE(sent);
    ASSERT_EQ(rx.packets.size(), 1u);
}

TEST_F(DatalinkTest, StrayQueryReplyLeavesCircuitOpenWaiting)
{
    // A queryConn reply nobody asked for arrives while a circuit open
    // waits for its route reply.  Its status is a port number, which
    // must not read as the route's failure: the open keeps waiting
    // and the reply counts as stale.
    sys = NectarSystem::singleHub(eq, 3);
    auto &rx = capture(1);
    auto &hub0 = sys->topo().hubAt(0);
    auto dst_port = sys->site(1).at.port;
    auto blocker_port = sys->site(2).at.port;
    ASSERT_TRUE(hub0.crossbar().open(blocker_port, dst_port));

    Datalink &dl = *sys->site(0).datalink;
    bool sent = false;
    sim::spawn([](Datalink &dl, topo::Route route,
                  phys::Payload p, bool &sent) -> Task<void> {
        sent = co_await dl.sendPacket(std::move(route), std::move(p),
                                      SwitchMode::circuit);
    }(dl, routeBetween(0, 1), phys::makePayload(iotaBytes(100)), sent));

    eq.schedule(50 * us, [&] {
        dl.board().onReply(phys::ReplyWord{
            static_cast<std::uint8_t>(hub::Op::queryConn), hub0.hubId(),
            static_cast<std::uint8_t>(dst_port),
            static_cast<std::uint8_t>(blocker_port)});
    });
    eq.schedule(100 * us, [&] { hub0.crossbar().close(dst_port); });
    eq.run();
    EXPECT_TRUE(sent);
    EXPECT_EQ(dl.stats().staleReplies.value(), 1u);
    EXPECT_EQ(dl.stats().recoveries.value(), 0u);
    ASSERT_EQ(rx.packets.size(), 1u);
}

TEST_F(DatalinkTest, LateReadySignalIsNotPresumedLost)
{
    // The first packet waits in the HUB's input queue for longer than
    // the datalink's ready limit (its destination port is not ready).
    // The datalink's echo probe queues behind it, so the ready signal
    // arrives before the answer: late, not lost, and no recovery.
    sys = NectarSystem::singleHub(eq, 2);
    auto &rx = capture(1);
    auto &hub0 = sys->topo().hubAt(0);
    const auto dst_port = sys->site(1).at.port;
    hub0.port(dst_port).setReady(false);
    Datalink &dl = *sys->site(0).datalink;
    int sent = 0;
    for (int i = 0; i < 2; ++i)
        sim::spawn([](Datalink &dl, topo::Route route,
                      int &sent) -> Task<void> {
            if (co_await dl.sendPacket(std::move(route),
                                       phys::makePayload(iotaBytes(64))))
                ++sent;
        }(dl, routeBetween(0, 1), sent));
    eq.schedule(2 * dl.config().readyTimeout,
                [&] { hub0.port(dst_port).setReady(true); });
    eq.run();

    EXPECT_EQ(sent, 2);
    EXPECT_EQ(rx.packets.size(), 2u);
    EXPECT_EQ(dl.stats().readyTimeouts.value(), 0u);
    EXPECT_EQ(dl.stats().recoveries.value(), 0u);
    EXPECT_EQ(dl.stats().staleReplies.value(), 0u);
    EXPECT_EQ(hub0.stats().cmdAbandons.value(), 0u);
}

TEST_F(DatalinkTest, LostReadySignalIsPresumedLostOnceTheProbeAnswers)
{
    // The HUB's ready signal to the CAB dies on a dark fiber.  The
    // echo probe comes back with no signal before it, so the datalink
    // presumes the signal lost and recovers the route.
    sys = NectarSystem::singleHub(eq, 2);
    auto &rx = capture(1);
    Datalink &dl = *sys->site(0).datalink;
    phys::FiberLink *toCab =
        sys->topo().endpointFibers(0, sys->site(0).at.port).reverse;
    toCab->setLinkUp(false);
    eq.schedule(50 * us, [toCab] { toCab->setLinkUp(true); });
    int sent = 0;
    for (int i = 0; i < 2; ++i)
        sim::spawn([](Datalink &dl, topo::Route route,
                      int &sent) -> Task<void> {
            if (co_await dl.sendPacket(std::move(route),
                                       phys::makePayload(iotaBytes(64))))
                ++sent;
        }(dl, routeBetween(0, 1), sent));
    eq.run();

    EXPECT_EQ(sent, 2);
    EXPECT_EQ(rx.packets.size(), 2u);
    EXPECT_EQ(dl.stats().readyTimeouts.value(), 1u);
    EXPECT_EQ(dl.stats().recoveries.value(), 1u);
}

TEST_F(DatalinkTest, CircuitTimesOutAndRecovers)
{
    // The blocker holds the port past the reply timeout: the sender
    // tears down with closeAll, backs off, and succeeds on a retry.
    sys = NectarSystem::singleHub(eq, 3);
    auto &rx = capture(1);
    auto &hub0 = sys->topo().hubAt(0);
    auto dst_port = sys->site(1).at.port;
    ASSERT_TRUE(hub0.crossbar().open(sys->site(2).at.port, dst_port));

    bool sent = false;
    sim::spawn([](Datalink &dl, topo::Route route,
                  phys::Payload p, bool &sent) -> Task<void> {
        sent = co_await dl.sendPacket(std::move(route), std::move(p),
                                      SwitchMode::circuit);
    }(*sys->site(0).datalink, routeBetween(0, 1),
      phys::makePayload(iotaBytes(100)), sent));

    eq.schedule(1 * ms, [&] { hub0.crossbar().close(dst_port); });
    eq.run();
    EXPECT_TRUE(sent);
    EXPECT_GE(sys->site(0).datalink->stats().routeTimeouts.value(), 1u);
    EXPECT_GE(sys->site(0).datalink->stats().recoveries.value(), 1u);
    ASSERT_EQ(rx.packets.size(), 1u);
}

TEST_F(DatalinkTest, GivesUpAfterMaxAttempts)
{
    nectarine::SiteConfig cfg;
    cfg.datalink.maxAttempts = 2;
    cfg.datalink.replyTimeout = 100 * us;
    cfg.datalink.retryBackoff = 50 * us;
    sys = NectarSystem::singleHub(eq, 3, cfg);
    auto &hub0 = sys->topo().hubAt(0);
    // Permanently blocked destination.
    ASSERT_TRUE(hub0.crossbar().open(sys->site(2).at.port,
                                     sys->site(1).at.port));
    // Avoid infinite hardware retries filling the run.
    hub0.controller().setRetryLimit(100000);

    bool sent = true;
    runSend(eq, *sys->site(0).datalink, routeBetween(0, 1),
            phys::makePayload(iotaBytes(10)), SwitchMode::circuit,
            sent);
    EXPECT_FALSE(sent);
    EXPECT_EQ(sys->site(0).datalink->stats().sendFailures.value(), 1u);
}

TEST_F(DatalinkTest, QueryConnectionStatus)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &hub0 = sys->topo().hubAt(0);
    std::optional<int> free_status, owned_status;

    sim::spawn([](Datalink &dl, hub::Hub &hub, int dst_port,
                  int src_port, std::optional<int> &free_status,
                  std::optional<int> &owned_status) -> Task<void> {
        free_status = co_await dl.queryConnection(hub.hubId(),
                                                  dst_port);
        hub.crossbar().open(src_port, dst_port);
        owned_status = co_await dl.queryConnection(hub.hubId(),
                                                   dst_port);
    }(*sys->site(0).datalink, hub0, sys->site(1).at.port,
      sys->site(0).at.port, free_status, owned_status));
    eq.run();
    ASSERT_TRUE(free_status.has_value());
    EXPECT_EQ(*free_status, hub::noPort);
    ASSERT_TRUE(owned_status.has_value());
    EXPECT_EQ(*owned_status, sys->site(0).at.port);
}

TEST_F(DatalinkTest, ConcurrentSendersSerializeOnTxFiber)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &rx = capture(1);
    int completed = 0;
    auto one = [](Datalink &dl, topo::Route route, int id,
                  int &completed) -> Task<void> {
        bool ok = co_await dl.sendPacket(
            route,
            phys::makePayload(
                std::vector<std::uint8_t>(200, std::uint8_t(id))),
            SwitchMode::packet);
        if (ok)
            ++completed;
    };
    for (int i = 0; i < 5; ++i)
        sim::spawn(one(*sys->site(0).datalink, routeBetween(0, 1), i,
                       completed));
    eq.run();
    EXPECT_EQ(completed, 5);
    EXPECT_EQ(rx.packets.size(), 5u);
}
