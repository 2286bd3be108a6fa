/**
 * @file
 * Unit tests for the CAB hardware model: checksum unit, memory
 * protection, on-board memory, and the fiber RX/TX datapath.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cab/cab.hh"
#include "cab/checksum.hh"
#include "helpers/test_endpoint.hh"
#include "phys/fiber.hh"
#include "sim/logging.hh"

// nectar-lint-file: capture-ok test frames drive eq.run() to
// completion before any captured locals leave scope

using namespace nectar;
using namespace nectar::cab;
using nectar::test::TestEndpoint;
using phys::ItemKind;
using phys::WireItem;
using sim::Tick;
using sim::ticks::us;

// ----- Checksum ----------------------------------------------------

TEST(Checksum, KnownVector)
{
    // Classic IP-header example folded to our byte-wise interface.
    std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5,
                                   0xf6, 0xf7};
    EXPECT_EQ(checksum16(data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero)
{
    std::vector<std::uint8_t> even{0xAB, 0x00};
    std::vector<std::uint8_t> odd{0xAB};
    EXPECT_EQ(checksum16(even), checksum16(odd));
}

TEST(Checksum, DetectsSingleByteCorruption)
{
    std::vector<std::uint8_t> data(64);
    std::iota(data.begin(), data.end(), std::uint8_t(1));
    auto base = checksum16(data);
    data[13] ^= 0x40;
    EXPECT_NE(checksum16(data), base);
}

TEST(Checksum, NeverReturnsZero)
{
    // The all-0xFF buffer sums to 0xFFFF whose complement is 0.
    std::vector<std::uint8_t> data(10, 0xFF);
    EXPECT_EQ(checksum16(data), 0xFFFF);
}

TEST(Checksum, EmptyBuffer)
{
    EXPECT_EQ(checksum16(nullptr, 0), 0xFFFF);
}

// ----- Memory protection --------------------------------------------

TEST(Protection, KernelDomainStartsWithFullAccess)
{
    MemoryProtection p(64 * 1024);
    EXPECT_TRUE(p.check(kernelDomain, 0, 64 * 1024, permAll));
    // A grant replaces only the pages it covers.
    p.setPerms(kernelDomain, 0, 1024, permRead);
    EXPECT_FALSE(p.check(kernelDomain, 0, 4, permWrite));
    EXPECT_TRUE(p.check(kernelDomain, 1024, 63 * 1024, permAll));
}

TEST(Protection, UserDomainStartsWithNoAccess)
{
    MemoryProtection p(64 * 1024);
    EXPECT_FALSE(p.check(1, 0, 4, permRead));
    EXPECT_EQ(p.violations(), 1u);
}

TEST(Protection, GrantAndRevokePageRange)
{
    MemoryProtection p(64 * 1024);
    p.setPerms(2, 4096, 2048, permRW);
    EXPECT_TRUE(p.check(2, 4096, 2048, permRead));
    EXPECT_TRUE(p.check(2, 5000, 100, permWrite));
    EXPECT_FALSE(p.check(2, 4096, 100, permExec));
    // Pages outside the grant remain protected.
    EXPECT_FALSE(p.check(2, 0, 4, permRead));
    EXPECT_FALSE(p.check(2, 8192, 4, permRead));
    p.setPerms(2, 4096, 2048, permNone);
    EXPECT_FALSE(p.check(2, 4096, 4, permRead));
}

TEST(Protection, PageGranularityIsOneKilobyte)
{
    MemoryProtection p(64 * 1024);
    p.setPerms(3, 1024, 1, permRead); // one byte grants its page
    EXPECT_TRUE(p.check(3, 2047, 1, permRead));
    EXPECT_FALSE(p.check(3, 2048, 1, permRead));
    EXPECT_FALSE(p.check(3, 1023, 1, permRead));
}

TEST(Protection, CrossPageAccessNeedsAllPages)
{
    MemoryProtection p(64 * 1024);
    p.setPerms(4, 0, 1024, permRW);
    // Access straddling into an unprotected page fails.
    EXPECT_FALSE(p.check(4, 1000, 100, permWrite));
}

TEST(Protection, DomainsAreIsolated)
{
    MemoryProtection p(64 * 1024);
    p.setPerms(5, 0, 1024, permAll);
    EXPECT_TRUE(p.check(5, 0, 8, permExec));
    EXPECT_FALSE(p.check(6, 0, 8, permRead));
}

TEST(Protection, ClearDomainRevokesEverything)
{
    MemoryProtection p(64 * 1024);
    p.setPerms(7, 0, 32 * 1024, permAll);
    p.clearDomain(7);
    EXPECT_FALSE(p.check(7, 0, 4, permRead));
    // Even the kernel's initial full access.
    p.clearDomain(kernelDomain);
    EXPECT_FALSE(p.check(kernelDomain, 0, 4, permRead));
    EXPECT_EQ(p.pagePerms(kernelDomain, 60 * 1024), permNone);
}

TEST(Protection, OutOfSpaceAccessFails)
{
    MemoryProtection p(64 * 1024);
    EXPECT_FALSE(p.check(kernelDomain, 63 * 1024, 2048, permRead));
    EXPECT_FALSE(p.check(kernelDomain, 0xFFFFFC00, 0x800, permRead));
}

TEST(Protection, OutOfSpaceGrantPanics)
{
    MemoryProtection p(64 * 1024);
    EXPECT_THROW(p.setPerms(3, 63 * 1024, 2048, permRW), sim::PanicError);
    // A range whose last byte wraps past 2^32 ends below its start.
    EXPECT_THROW(p.setPerms(3, 0xFFFFFC00, 0x800, permRW),
                 sim::PanicError);
    EXPECT_FALSE(p.check(3, 0, 4, permRead));
}

TEST(Protection, ThirtyTwoDomainsSupported)
{
    MemoryProtection p(1024 * 1024);
    EXPECT_EQ(p.numDomains(), 32);
    p.setPerms(31, 0, 1024, permRW); // the VME domain
    EXPECT_TRUE(p.check(vmeDomain, 0, 8, permWrite));
}

// ----- CAB memory ----------------------------------------------------

TEST(CabMemory, DataRamRoundTrip)
{
    CabMemory mem;
    std::vector<std::uint8_t> out(4);
    std::vector<std::uint8_t> in{1, 2, 3, 4};
    EXPECT_TRUE(mem.write(kernelDomain, addrmap::dataRamBase, in.data(),
                          4));
    EXPECT_TRUE(mem.read(kernelDomain, addrmap::dataRamBase, out.data(),
                         4));
    EXPECT_EQ(out, in);

    // Across a 1 KB page boundary.
    std::vector<std::uint8_t> span(64);
    std::iota(span.begin(), span.end(), std::uint8_t(1));
    const std::uint32_t at = addrmap::dataRamBase + 1024 - 32;
    EXPECT_TRUE(mem.write(kernelDomain, at, span.data(), 64));
    std::vector<std::uint8_t> back(64);
    EXPECT_TRUE(mem.read(kernelDomain, at, back.data(), 64));
    EXPECT_EQ(back, span);
}

TEST(CabMemory, UnwrittenBytesReadZero)
{
    CabMemory mem;
    std::vector<std::uint8_t> out(16);
    for (std::uint32_t addr :
         {addrmap::promBase + 100, addrmap::programRamBase + 5000,
          addrmap::dataRamBase + addrmap::dataRamSize - 16}) {
        std::fill(out.begin(), out.end(), 0xAA);
        EXPECT_TRUE(mem.read(kernelDomain, addr, out.data(), 16));
        EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0));
    }

    // A read over a partly written page between two never-written
    // ones: only the written bytes are nonzero.
    const std::uint32_t page = addrmap::dataRamBase + 4096;
    std::vector<std::uint8_t> in(4, 0x5C);
    EXPECT_TRUE(mem.write(kernelDomain, page + 512, in.data(), 4));
    std::vector<std::uint8_t> wide(3072, 0xAA);
    EXPECT_TRUE(mem.read(kernelDomain, page - 1024, wide.data(), 3072));
    std::vector<std::uint8_t> want(3072, 0);
    std::fill(want.begin() + 1536, want.begin() + 1540, 0x5C);
    EXPECT_EQ(wide, want);
}

TEST(CabMemory, PromRejectsWrites)
{
    CabMemory mem;
    std::uint8_t b = 1;
    EXPECT_FALSE(mem.write(kernelDomain, addrmap::promBase, &b, 1));
    EXPECT_EQ(mem.busErrors(), 1u);
}

TEST(CabMemory, LoadPromThenRead)
{
    CabMemory mem;
    mem.loadProm(16, {0xDE, 0xAD});
    std::uint8_t out[2];
    EXPECT_TRUE(mem.read(kernelDomain, 16, out, 2));
    EXPECT_EQ(out[0], 0xDE);
    EXPECT_EQ(out[1], 0xAD);

    // An image spanning two pages.
    std::vector<std::uint8_t> image(8);
    std::iota(image.begin(), image.end(), std::uint8_t(0x10));
    mem.loadProm(1020, image);
    std::vector<std::uint8_t> back(8);
    EXPECT_TRUE(mem.read(kernelDomain, 1020, back.data(), 8));
    EXPECT_EQ(back, image);
}

TEST(CabMemory, UnmappedHoleIsBusError)
{
    CabMemory mem;
    std::uint8_t b;
    // Between program RAM (ends 0xA0000) and data RAM (0x100000).
    EXPECT_FALSE(mem.read(kernelDomain, 0xC0000, &b, 1));
    EXPECT_GT(mem.busErrors(), 0u);
    // A zero-length access passes the same region test.
    EXPECT_FALSE(mem.read(kernelDomain, 0xC0000, &b, 0));
    EXPECT_FALSE(mem.write(kernelDomain, 0xC0000, &b, 0));
    EXPECT_EQ(mem.busErrors(), 3u);
    EXPECT_TRUE(mem.read(kernelDomain, addrmap::dataRamBase, &b, 0));
}

TEST(CabMemory, UserDomainNeedsGrant)
{
    CabMemory mem;
    std::uint8_t b = 7;
    EXPECT_FALSE(mem.write(3, addrmap::dataRamBase, &b, 1));
    mem.protection().setPerms(3, addrmap::dataRamBase, 1024, permRW);
    EXPECT_TRUE(mem.write(3, addrmap::dataRamBase, &b, 1));
}

TEST(CabMemory, AccountingTracksAccessors)
{
    CabMemory mem;
    std::uint8_t buf[64] = {};
    mem.write(kernelDomain, addrmap::dataRamBase, buf, 64,
              Accessor::cpu);
    mem.account(Accessor::fiberInDma, 128);
    mem.account(Accessor::vmeDma, 256);
    EXPECT_EQ(mem.bytesBy(Accessor::cpu), 64u);
    EXPECT_EQ(mem.bytesBy(Accessor::fiberInDma), 128u);
    EXPECT_EQ(mem.bytesBy(Accessor::vmeDma), 256u);
    EXPECT_EQ(mem.totalBytes(), 448u);
}

// ----- CAB datapath --------------------------------------------------

class CabDatapath : public ::testing::Test
{
  protected:
    CabDatapath()
        : board(eq, "cab0"), peer(eq),
          toCab(eq, "peer->cab"), toPeer(eq, "cab->peer")
    {
        toCab.connectTo(board);
        toPeer.connectTo(peer);
        board.attachTx(toPeer);
        peer.attachTx(toCab);
    }

    sim::EventQueue eq;
    Cab board;
    TestEndpoint peer;   // stands in for the HUB side
    phys::FiberLink toCab;
    phys::FiberLink toPeer;
};

TEST_F(CabDatapath, ReceivesAcceptedPacket)
{
    std::vector<std::uint8_t> got;
    board.onPacketStart = [&] { board.acceptPacket(); };
    board.onPacketComplete = [&](sim::PacketView &&bytes,
                                 bool corrupted) {
        EXPECT_FALSE(corrupted);
        got = bytes.toVector();
    };

    std::vector<std::uint8_t> payload(300);
    std::iota(payload.begin(), payload.end(), std::uint8_t(0));
    peer.sendPacket(payload);
    eq.run();
    EXPECT_EQ(got, payload);
    EXPECT_EQ(board.stats().rxPackets.value(), 1u);
    EXPECT_EQ(board.stats().rxBytes.value(), 300u);
    // Accepting drained the queue: a ready signal went upstream.
    EXPECT_EQ(peer.countKind(ItemKind::readySignal), 1u);
}

TEST_F(CabDatapath, UnacceptedOversizePacketOverflows)
{
    bool dropped = false;
    board.onPacketDropped = [&] { dropped = true; };
    // No acceptPacket: software is "too slow" (Section 6.2.1).
    peer.sendPacket(std::vector<std::uint8_t>(2048, 7));
    eq.run();
    EXPECT_TRUE(dropped);
    EXPECT_EQ(board.stats().rxDropped.value(), 1u);
    EXPECT_EQ(board.stats().rxPackets.value(), 0u);
}

TEST_F(CabDatapath, LateAcceptStillCompletesSmallPacket)
{
    std::vector<std::uint8_t> got;
    board.onPacketComplete = [&](sim::PacketView &&bytes,
                                 bool) { got = bytes.toVector(); };
    // Accept 50 us after the packet started: it fits in the queue.
    board.onPacketStart = [&] {
        eq.scheduleIn(50 * us, [&] { board.acceptPacket(); });
    };
    std::vector<std::uint8_t> payload(512, 0x42);
    peer.sendPacket(payload);
    eq.run();
    EXPECT_EQ(got, payload);
}

TEST_F(CabDatapath, RepliesAndReadySignalsAreDelivered)
{
    int replies = 0, readies = 0;
    board.onReply = [&](const phys::ReplyWord &) { ++replies; };
    board.onReadySignal = [&] { ++readies; };
    toCab.send(WireItem::makeReply(1, 0, 2, 1));
    toCab.sendStolen(WireItem::ready());
    eq.run();
    EXPECT_EQ(replies, 1);
    EXPECT_EQ(readies, 1);
}

TEST_F(CabDatapath, StrayCommandsCounted)
{
    // Multicast route spillover (Section 4.2.2): commands for other
    // HUBs can reach a terminal CAB; it discards them.
    toCab.send(WireItem::command(0x02, 3, 4));
    eq.run();
    EXPECT_EQ(board.stats().strayItems.value(), 1u);
}

TEST_F(CabDatapath, DmaSendSerializesAtFiberRate)
{
    auto payload = phys::makePayload(
        std::vector<std::uint8_t>(1000, 0xAA));
    std::vector<WireItem> items;
    board.framePacket(payload, items);
    Tick done_at = -1;
    board.dmaSend(items, [&] { done_at = eq.now(); });
    eq.run();
    // SOP(1) + 1000 data + EOP(1) = 1002 bytes at 80 ns/byte.
    EXPECT_EQ(done_at, 1002 * 80);
    EXPECT_EQ(board.stats().txPackets.value(), 1u);
    EXPECT_EQ(board.stats().txBytes.value(), 1000u);
    EXPECT_EQ(peer.dataBytes(), 1000u);
    // The outgoing DMA was accounted against data memory.
    EXPECT_EQ(board.memory().bytesBy(Accessor::fiberOutDma), 1000u);
}

TEST_F(CabDatapath, CorruptedChunkFlagsPacket)
{
    bool corrupted = false;
    board.onPacketStart = [&] { board.acceptPacket(); };
    board.onPacketComplete = [&](sim::PacketView &&,
                                 bool c) { corrupted = c; };
    toCab.send(WireItem::startPacket());
    auto p = phys::makePayload(std::vector<std::uint8_t>(64, 1));
    auto chunk = WireItem::dataChunk(p, 0, 64);
    chunk.corrupted = true;
    toCab.send(chunk);
    toCab.send(WireItem::endPacket());
    eq.run();
    EXPECT_TRUE(corrupted);
    EXPECT_EQ(board.stats().rxCorrupted.value(), 1u);
}
