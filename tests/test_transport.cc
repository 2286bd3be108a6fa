/**
 * @file
 * Transport-layer tests: header wire format, the datagram /
 * byte-stream / request-response protocols end-to-end over the
 * simulated Nectar-net, loss and corruption recovery, flow control,
 * and mailbox backpressure.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "nectarine/system.hh"
#include "sim/coro.hh"
#include "transport/header.hh"

using namespace nectar;
using namespace nectar::transport;
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

} // namespace

// ----- Header wire format ---------------------------------------------

TEST(TransportHeader, RoundTrip)
{
    Header h;
    h.protocol = Proto::stream;
    h.flags = flags::lastFragment;
    h.srcCab = 3;
    h.dstCab = 9;
    h.srcMailbox = 11;
    h.dstMailbox = 22;
    h.seq = 0xDEADBEEF;
    h.ack = 0x12345678;
    h.window = 8;
    h.msgId = 77;
    h.fragIndex = 2;
    h.fragCount = 5;

    auto payload = iotaBytes(100);
    auto bytes = encodePacket(h, payload);
    EXPECT_EQ(bytes.size(), Header::wireSize + 100);

    std::vector<std::uint8_t> out;
    auto got = decodePacket(bytes, out);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->protocol, Proto::stream);
    EXPECT_EQ(got->flags, flags::lastFragment);
    EXPECT_EQ(got->srcCab, 3);
    EXPECT_EQ(got->dstCab, 9);
    EXPECT_EQ(got->srcMailbox, 11);
    EXPECT_EQ(got->dstMailbox, 22);
    EXPECT_EQ(got->seq, 0xDEADBEEFu);
    EXPECT_EQ(got->ack, 0x12345678u);
    EXPECT_EQ(got->window, 8);
    EXPECT_EQ(got->msgId, 77u);
    EXPECT_EQ(got->fragIndex, 2);
    EXPECT_EQ(got->fragCount, 5);
    EXPECT_EQ(got->length, 100);
    EXPECT_EQ(out, payload);
}

TEST(TransportHeader, ChecksumDetectsCorruption)
{
    Header h;
    h.protocol = Proto::datagram;
    auto bytes = encodePacket(h, iotaBytes(64));
    bytes[Header::wireSize + 10] ^= 0x01;
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(decodePacket(bytes, out).has_value());
}

TEST(TransportHeader, HeaderCorruptionDetected)
{
    Header h;
    h.protocol = Proto::stream;
    h.seq = 42;
    auto bytes = encodePacket(h, std::vector<std::uint8_t>{});
    bytes[10] ^= 0x80; // flip a bit in seq
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(decodePacket(bytes, out).has_value());
}

TEST(TransportHeader, TruncatedPacketRejected)
{
    Header h;
    auto bytes = encodePacket(h, iotaBytes(10));
    bytes.resize(bytes.size() - 3);
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(decodePacket(bytes, out).has_value());
    std::vector<std::uint8_t> tiny{1, 2, 3};
    EXPECT_FALSE(decodePacket(tiny, out).has_value());
}

// ----- End-to-end fixture ----------------------------------------------

class TransportTest : public ::testing::Test
{
  protected:
    sim::EventQueue eq;
    std::unique_ptr<NectarSystem> sys;

    Transport &tp(std::size_t i) { return *sys->site(i).transport; }
    cabos::Kernel &kern(std::size_t i) { return *sys->site(i).kernel; }

    /** Inject faults on every fiber link in the system. */
    void
    injectFaults(const phys::FaultModel &model, std::uint64_t seed = 1)
    {
        std::uint64_t s = seed;
        for (auto &link : sys->topo().wiring().allLinks())
            link->setFaults(model, s++);
    }
};

// ----- Datagram protocol -------------------------------------------------

TEST_F(TransportTest, DatagramDelivery)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &mb = kern(1).createMailbox("in", 64 * 1024, 10);
    bool sent = false;
    auto data = iotaBytes(100);
    sim::spawn([](Transport &tp, std::vector<std::uint8_t> data,
                  bool &sent) -> Task<void> {
        sent = co_await tp.sendDatagram(2, 10, std::move(data));
    }(tp(0), data, sent));
    eq.run();
    EXPECT_TRUE(sent);
    ASSERT_EQ(mb.count(), 1u);
    EXPECT_EQ(mb.tryGet()->bytes(), data);
}

TEST_F(TransportTest, DatagramFragmentationAndReassembly)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &mb = kern(1).createMailbox("in", 64 * 1024, 10);
    auto data = iotaBytes(5000); // ~6 fragments at MTU 896
    bool sent = false;
    sim::spawn([](Transport &tp, std::vector<std::uint8_t> data,
                  bool &sent) -> Task<void> {
        sent = co_await tp.sendDatagram(2, 10, std::move(data));
    }(tp(0), data, sent));
    eq.run();
    EXPECT_TRUE(sent);
    ASSERT_EQ(mb.count(), 1u);
    EXPECT_EQ(mb.tryGet()->bytes(), data);
    EXPECT_GT(tp(0).stats().packetsSent.value(), 4u);
}

TEST_F(TransportTest, DatagramFragmentPastItsCountIsDropped)
{
    // Fragments 1, 5 and 0 of a two-fragment datagram, sent raw: the
    // datagram has no fragment 5, so the receiver drops it and
    // assembles the message from fragments 0 and 1 alone.
    sys = NectarSystem::singleHub(eq, 2);
    auto &mb = kern(1).createMailbox("in", 64 * 1024, 10);
    sim::spawn([](NectarSystem &sys) -> Task<void> {
        for (std::uint16_t index : {1, 5, 0}) {
            Header h;
            h.protocol = Proto::datagram;
            h.srcCab = 1;
            h.dstCab = 2;
            h.dstMailbox = 10;
            h.msgId = 7;
            h.fragIndex = index;
            h.fragCount = 2;
            co_await sys.site(0).datalink->sendPacket(
                sys.directory().route(1, 2),
                encodePacket(h, sim::PacketView(std::vector<std::uint8_t>(
                                    100, std::uint8_t(index)))));
        }
    }(*sys));
    eq.run();
    ASSERT_EQ(mb.count(), 1u);
    std::vector<std::uint8_t> want(100, 0);
    want.insert(want.end(), 100, 1);
    EXPECT_EQ(mb.tryGet()->bytes(), want);
}

TEST_F(TransportTest, DatagramToUnknownMailboxDropped)
{
    sys = NectarSystem::singleHub(eq, 2);
    bool sent = false;
    sim::spawn([](Transport &tp, bool &sent) -> Task<void> {
        std::vector<std::uint8_t> msg(3, 7);
        sent = co_await tp.sendDatagram(2, 99, std::move(msg));
    }(tp(0), sent));
    eq.run();
    EXPECT_TRUE(sent); // transmitted...
    EXPECT_EQ(tp(1).stats().datagramsDropped.value(), 1u); // ...not delivered
}

TEST_F(TransportTest, DatagramLostFragmentLosesMessage)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &mb = kern(1).createMailbox("in", 1 << 20, 10);
    phys::FaultModel faults;
    faults.dropData = 0.15;
    injectFaults(faults, 42);

    int sent_count = 0;
    sim::spawn([](Transport &tp, int &sent_count) -> Task<void> {
        for (int i = 0; i < 20; ++i) {
            co_await tp.sendDatagram(
                2, 10, std::vector<std::uint8_t>(3000, std::uint8_t(i)));
            ++sent_count;
        }
    }(tp(0), sent_count));
    eq.run();
    EXPECT_EQ(sent_count, 20);
    // Some messages must have been lost, and none delivered partially.
    EXPECT_LT(mb.count(), 20u);
    while (auto m = mb.tryGet())
        EXPECT_EQ(m->size(), 3000u);
}

// ----- Byte-stream protocol ------------------------------------------------

TEST_F(TransportTest, ReliableDeliverySmall)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &mb = kern(1).createMailbox("in", 64 * 1024, 20);
    bool ok = false;
    auto data = iotaBytes(200);
    sim::spawn([](Transport &tp, std::vector<std::uint8_t> data,
                  bool &ok) -> Task<void> {
        ok = co_await tp.sendReliable(2, 20, std::move(data));
    }(tp(0), data, ok));
    eq.run();
    EXPECT_TRUE(ok);
    ASSERT_EQ(mb.count(), 1u);
    EXPECT_EQ(mb.tryGet()->bytes(), data);
}

TEST_F(TransportTest, ReliableLargeMessageWindowed)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &mb = kern(1).createMailbox("in", 1 << 20, 20);
    auto data = iotaBytes(50 * 1024); // ~57 fragments, window 8
    bool ok = false;
    sim::spawn([](Transport &tp, std::vector<std::uint8_t> data,
                  bool &ok) -> Task<void> {
        ok = co_await tp.sendReliable(2, 20, std::move(data));
    }(tp(0), data, ok));
    eq.run();
    EXPECT_TRUE(ok);
    ASSERT_EQ(mb.count(), 1u);
    EXPECT_EQ(mb.tryGet()->bytes(), data);
    EXPECT_EQ(tp(0).stats().sendFailures.value(), 0u);
}

TEST_F(TransportTest, ReliableRecoversFromPacketLoss)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &mb = kern(1).createMailbox("in", 1 << 20, 20);
    phys::FaultModel faults;
    faults.dropData = 0.10;
    injectFaults(faults, 7);

    auto data = iotaBytes(20 * 1024);
    bool ok = false;
    sim::spawn([](Transport &tp, std::vector<std::uint8_t> data,
                  bool &ok) -> Task<void> {
        ok = co_await tp.sendReliable(2, 20, std::move(data));
    }(tp(0), data, ok));
    eq.run();
    EXPECT_TRUE(ok);
    ASSERT_EQ(mb.count(), 1u);
    EXPECT_EQ(mb.tryGet()->bytes(), data);
    EXPECT_GT(tp(0).stats().retransmissions.value(), 0u);
}

TEST_F(TransportTest, ReliableRecoversFromCorruption)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &mb = kern(1).createMailbox("in", 1 << 20, 20);
    phys::FaultModel faults;
    faults.corruptData = 0.10;
    injectFaults(faults, 13);

    auto data = iotaBytes(20 * 1024);
    bool ok = false;
    sim::spawn([](Transport &tp, std::vector<std::uint8_t> data,
                  bool &ok) -> Task<void> {
        ok = co_await tp.sendReliable(2, 20, std::move(data));
    }(tp(0), data, ok));
    eq.run();
    EXPECT_TRUE(ok);
    ASSERT_EQ(mb.count(), 1u);
    EXPECT_EQ(mb.tryGet()->bytes(), data);
    // Corruption was detected either by the phys flag or checksum.
    EXPECT_GT(tp(1).stats().checksumDrops.value() +
                  tp(1).stats().duplicates.value(),
              0u);
}

TEST_F(TransportTest, ReliableAcrossMesh)
{
    sys = NectarSystem::mesh2D(eq, 2, 2, 1);
    auto &mb = kern(3).createMailbox("in", 1 << 20, 20);
    auto data = iotaBytes(10 * 1024);
    bool ok = false;
    sim::spawn([](Transport &tp, std::vector<std::uint8_t> data,
                  bool &ok) -> Task<void> {
        ok = co_await tp.sendReliable(4, 20, std::move(data));
    }(tp(0), data, ok));
    eq.run();
    EXPECT_TRUE(ok);
    ASSERT_EQ(mb.count(), 1u);
    EXPECT_EQ(mb.tryGet()->bytes(), data);
}

TEST_F(TransportTest, ReliableInterleavedMessagesInOrder)
{
    sys = NectarSystem::singleHub(eq, 2);
    auto &mb = kern(1).createMailbox("in", 1 << 20, 20);
    int done = 0;
    sim::spawn([](Transport &tp, int &done) -> Task<void> {
        for (int i = 0; i < 8; ++i) {
            bool ok = co_await tp.sendReliable(
                2, 20, std::vector<std::uint8_t>(2000, std::uint8_t(i)));
            if (ok)
                ++done;
        }
    }(tp(0), done));
    eq.run();
    EXPECT_EQ(done, 8);
    ASSERT_EQ(mb.count(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(mb.tryGet()->view()[0], std::uint8_t(i));
}

TEST_F(TransportTest, ReliableBackpressureOnFullMailbox)
{
    sys = NectarSystem::singleHub(eq, 2);
    // Mailbox holds only one 500-byte message at a time.
    auto &mb = kern(1).createMailbox("in", 600, 20);
    int delivered = 0;

    // A slow consumer drains one message per 5 ms.
    kern(1).spawnThread("consumer",
                        [](cabos::Kernel &k, cabos::Mailbox &mb,
                           int &delivered) -> Task<void> {
        for (int i = 0; i < 3; ++i) {
            co_await mb.get();
            ++delivered;
            co_await k.sleepFor(5 * ms);
        }
    }(kern(1), mb, delivered));

    int sent = 0;
    sim::spawn([](Transport &tp, int &sent) -> Task<void> {
        for (int i = 0; i < 3; ++i) {
            if (co_await tp.sendReliable(
                    2, 20, std::vector<std::uint8_t>(500,
                                                     std::uint8_t(i))))
                ++sent;
        }
    }(tp(0), sent));

    eq.run();
    EXPECT_EQ(sent, 3);
    EXPECT_EQ(delivered, 3);
    // The stalls show the flow control engaged rather than dropping.
    EXPECT_GT(tp(1).stats().deliveryStalls.value(), 0u);
}

TEST_F(TransportTest, ReliableFailsWhenReceiverUnreachable)
{
    nectarine::SiteConfig cfg;
    cfg.transport.retransmitTimeout = 200 * us;
    cfg.transport.maxRetransmits = 3;
    cfg.datalink.maxAttempts = 1;
    cfg.datalink.replyTimeout = 100 * us;
    sys = NectarSystem::singleHub(eq, 2, cfg);
    kern(1).createMailbox("in", 1 << 20, 20);
    // Sever the receiver: drop every data item on every link.
    phys::FaultModel faults;
    faults.dropData = 1.0;
    injectFaults(faults);

    bool ok = true;
    sim::spawn([](Transport &tp, bool &ok) -> Task<void> {
        std::vector<std::uint8_t> msg(3, 7);
        ok = co_await tp.sendReliable(2, 20, std::move(msg));
    }(tp(0), ok));
    eq.run();
    EXPECT_FALSE(ok);
    EXPECT_GE(tp(0).stats().sendFailures.value(), 1u);
}

// ----- Request-response protocol -------------------------------------------

namespace {

/** Spawn an echo server thread on @p site: replies with req + 1. */
void
startEchoServer(cabos::Kernel &kernel, Transport &tp,
                cabos::MailboxId service, int count)
{
    auto &mb = kernel.createMailbox("service", 64 * 1024, service);
    kernel.spawnThread("server",
                       [](cabos::Mailbox &mb, Transport &tp,
                          int count) -> Task<void> {
        for (int i = 0; i < count; ++i) {
            cabos::Message m = co_await mb.get();
            std::vector<std::uint8_t> reply = m.bytes();
            for (auto &b : reply)
                b += 1;
            tp.respond(m.tag, std::move(reply));
        }
    }(mb, tp, count));
}

} // namespace

TEST_F(TransportTest, RequestResponseRoundTrip)
{
    sys = NectarSystem::singleHub(eq, 2);
    startEchoServer(kern(1), tp(1), 30, 1);

    std::optional<std::vector<std::uint8_t>> resp;
    sim::spawn([](Transport &tp,
                  std::optional<std::vector<std::uint8_t>> &resp)
                   -> Task<void> {
        std::vector<std::uint8_t> req{10, 20, 30};
        resp = co_await tp.request(2, 30, std::move(req));
    }(tp(0), resp));
    eq.run();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(*resp, (std::vector<std::uint8_t>{11, 21, 31}));
    EXPECT_EQ(tp(1).stats().responsesServed.value(), 1u);
}

TEST_F(TransportTest, ConcurrentRequestsMatchedById)
{
    sys = NectarSystem::singleHub(eq, 2);
    startEchoServer(kern(1), tp(1), 64, 10);

    std::vector<int> results(10, -1);
    auto client = [](Transport &tp, int i,
                     std::vector<int> &results) -> Task<void> {
        std::vector<std::uint8_t> req(1, std::uint8_t(i));
        auto r = co_await tp.request(2, 64, std::move(req));
        if (r && r->size() == 1)
            results[i] = (*r)[0];
    };
    for (int i = 0; i < 10; ++i)
        sim::spawn(client(tp(0), i, results));
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(results[i], i + 1);
}

TEST_F(TransportTest, RequestRetriesOnLoss)
{
    nectarine::SiteConfig cfg;
    cfg.transport.requestTimeout = 500 * us;
    cfg.transport.maxRequestAttempts = 8;
    sys = NectarSystem::singleHub(eq, 2, cfg);
    startEchoServer(kern(1), tp(1), 30, 5);
    phys::FaultModel faults;
    faults.dropData = 0.25;
    injectFaults(faults, 99);

    int got = 0;
    sim::spawn([](Transport &tp, int &got) -> Task<void> {
        for (int i = 0; i < 5; ++i) {
            std::vector<std::uint8_t> req(1, std::uint8_t(i));
            auto r = co_await tp.request(2, 30, std::move(req));
            if (r)
                ++got;
        }
    }(tp(0), got));
    eq.run();
    EXPECT_EQ(got, 5);
    EXPECT_GT(tp(0).stats().requestRetries.value() +
                  tp(1).stats().cachedResponseHits.value(),
              0u);
}

TEST_F(TransportTest, RequestFailsWithoutServer)
{
    nectarine::SiteConfig cfg;
    cfg.transport.requestTimeout = 200 * us;
    cfg.transport.maxRequestAttempts = 2;
    sys = NectarSystem::singleHub(eq, 2, cfg);

    std::optional<std::vector<std::uint8_t>> resp;
    bool finished = false;
    sim::spawn([](Transport &tp,
                  std::optional<std::vector<std::uint8_t>> &resp,
                  bool &finished) -> Task<void> {
        std::vector<std::uint8_t> req(1, 1);
        resp = co_await tp.request(2, 77, std::move(req));
        finished = true;
    }(tp(0), resp, finished));
    eq.run();
    EXPECT_TRUE(finished);
    EXPECT_FALSE(resp.has_value());
    EXPECT_EQ(tp(0).stats().requestsFailed.value(), 1u);
}

TEST_F(TransportTest, DuplicateRequestAnsweredFromCache)
{
    nectarine::SiteConfig cfg;
    cfg.transport.requestTimeout = 300 * us;
    sys = NectarSystem::singleHub(eq, 2, cfg);
    startEchoServer(kern(1), tp(1), 30, 1);
    // Drop most replies so the client retries after the server
    // already executed: the cache must answer.
    phys::FaultModel faults;
    faults.dropData = 0.5;
    injectFaults(faults, 5);

    std::optional<std::vector<std::uint8_t>> resp;
    sim::spawn([](Transport &tp,
                  std::optional<std::vector<std::uint8_t>> &resp)
                   -> Task<void> {
        std::vector<std::uint8_t> req(1, 42);
        resp = co_await tp.request(2, 30, std::move(req));
    }(tp(0), resp));
    eq.run();
    if (resp.has_value()) {
        EXPECT_EQ((*resp)[0], 43);
        // The server thread ran exactly once even if the request
        // arrived multiple times.
        EXPECT_EQ(tp(1).stats().responsesServed.value(), 1u);
    }
}

// ----- Latency goal (Section 2.3) -------------------------------------------

TEST_F(TransportTest, CabToCabLatencyUnderThirtyMicroseconds)
{
    // "the latency for a message sent between processes on two CABs
    // should be under 30 microseconds" (excluding fiber transmission
    // delays, which are 0 here).
    sys = NectarSystem::singleHub(eq, 2);
    auto &mb = kern(1).createMailbox("in", 4096, 20);

    Tick received = -1;
    kern(1).spawnThread("rx",
                        [](cabos::Kernel &k, cabos::Mailbox &mb,
                           Tick &received) -> Task<void> {
        co_await mb.get();
        received = k.now();
    }(kern(1), mb, received));

    Tick sent_at = 1 * ms; // let the system settle
    sim::spawn([](sim::EventQueue &eq, Transport &tp,
                  Tick when) -> Task<void> {
        co_await sim::Delay{eq, when};
        co_await tp.sendDatagram(2, 20, std::vector<std::uint8_t>(64));
    }(eq, tp(0), sent_at));
    eq.run();

    ASSERT_GT(received, 0);
    Tick latency = received - sent_at;
    EXPECT_LT(latency, 30 * us);
}
