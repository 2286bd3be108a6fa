#include "header.hh"

#include "cab/checksum.hh"

namespace nectar::transport {

namespace {

void
put8(std::vector<std::uint8_t> &v, std::size_t off, std::uint8_t x)
{
    v[off] = x;
}

void
put16(std::vector<std::uint8_t> &v, std::size_t off, std::uint16_t x)
{
    v[off] = static_cast<std::uint8_t>(x >> 8);
    v[off + 1] = static_cast<std::uint8_t>(x);
}

void
put32(std::vector<std::uint8_t> &v, std::size_t off, std::uint32_t x)
{
    v[off] = static_cast<std::uint8_t>(x >> 24);
    v[off + 1] = static_cast<std::uint8_t>(x >> 16);
    v[off + 2] = static_cast<std::uint8_t>(x >> 8);
    v[off + 3] = static_cast<std::uint8_t>(x);
}

std::uint16_t
get16(const std::uint8_t *v, std::size_t off)
{
    return static_cast<std::uint16_t>((v[off] << 8) | v[off + 1]);
}

std::uint32_t
get32(const std::uint8_t *v, std::size_t off)
{
    return (static_cast<std::uint32_t>(v[off]) << 24) |
           (static_cast<std::uint32_t>(v[off + 1]) << 16) |
           (static_cast<std::uint32_t>(v[off + 2]) << 8) |
           static_cast<std::uint32_t>(v[off + 3]);
}

/** Checksum @p hdr (32 bytes, checksum field zeroed) + @p payload. */
std::uint16_t
packetChecksum(const std::uint8_t *hdr, const sim::PacketView &payload)
{
    cab::ChecksumAccumulator acc;
    acc.feed(hdr, Header::wireSize);
    payload.forEachSegment([&](const std::uint8_t *p, std::size_t n) {
        acc.feed(p, n);
    });
    return acc.finish();
}

} // namespace

sim::PacketView
encodePacket(Header h, const sim::PacketView &payload)
{
    h.length = static_cast<std::uint16_t>(payload.size());

    // nectar-lint: copy-ok the header's own bytes, written once
    // here; the payload is chained behind them, not copied
    std::vector<std::uint8_t> hdr(Header::wireSize, 0);
    put8(hdr, 0, static_cast<std::uint8_t>(h.protocol));
    put8(hdr, 1, h.flags);
    put16(hdr, 2, h.srcCab);
    put16(hdr, 4, h.dstCab);
    put16(hdr, 6, h.srcMailbox);
    put16(hdr, 8, h.dstMailbox);
    put32(hdr, 10, h.seq);
    put32(hdr, 14, h.ack);
    put16(hdr, 18, h.window);
    put32(hdr, 20, h.msgId);
    put16(hdr, 24, h.fragIndex);
    put16(hdr, 26, h.fragCount);
    put16(hdr, 28, h.length);
    // Checksum field (offset 30) stays zero for the computation; the
    // payload is streamed segment by segment, never copied.
    put16(hdr, 30, packetChecksum(hdr.data(), payload));

    return sim::PacketView::concat(sim::PacketView(std::move(hdr)),
                                   payload);
}

std::optional<Header>
decodePacket(const sim::PacketView &packet, sim::PacketView &payload)
{
    if (packet.size() < Header::wireSize)
        return std::nullopt;

    // The protocol engine reads the header fields as the bytes stream
    // past (a register read, not a payload copy).
    std::uint8_t hdr[Header::wireSize];
    packet.read(0, hdr, Header::wireSize);

    Header h;
    h.protocol = static_cast<Proto>(hdr[0]);
    h.flags = hdr[1];
    h.srcCab = get16(hdr, 2);
    h.dstCab = get16(hdr, 4);
    h.srcMailbox = get16(hdr, 6);
    h.dstMailbox = get16(hdr, 8);
    h.seq = get32(hdr, 10);
    h.ack = get32(hdr, 14);
    h.window = get16(hdr, 18);
    h.msgId = get32(hdr, 20);
    h.fragIndex = get16(hdr, 24);
    h.fragCount = get16(hdr, 26);
    h.length = get16(hdr, 28);
    h.checksum = get16(hdr, 30);

    if (packet.size() != Header::wireSize + h.length)
        return std::nullopt;

    // Verify the checksum over the packet with the field zeroed.
    payload = packet.slice(Header::wireSize);
    hdr[30] = 0;
    hdr[31] = 0;
    if (packetChecksum(hdr, payload) != h.checksum) {
        payload = sim::PacketView{};
        return std::nullopt;
    }
    return h;
}

} // namespace nectar::transport
