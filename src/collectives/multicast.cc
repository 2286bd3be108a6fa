#include "collectives/multicast.hh"

namespace nectar::collective {

sim::Task<McastOutcome>
reliableMulticast(transport::Transport &tp,
                  std::vector<transport::CabAddress> dsts,
                  std::uint16_t mailbox, sim::PacketView data,
                  McastPath path)
{
    auto r = co_await tp.sendReliableMulticast(
        std::move(dsts), mailbox, std::move(data),
        path != McastPath::unicast);
    co_return McastOutcome{r.ok, r.usedHardware, std::move(r.failed)};
}

namespace {

void
put16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
}

void
put32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

std::uint16_t
get16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t
get32(const std::uint8_t *p)
{
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) |
           static_cast<std::uint32_t>(p[3]);
}

} // namespace

sim::PacketView
makeCollectiveMessage(const WireHeader &h, sim::PacketView payload)
{
    std::vector<std::uint8_t> hdr(WireHeader::wireSize, 0);
    put32(&hdr[0], h.gid);
    put16(&hdr[4], h.epoch);
    put16(&hdr[6], h.srcRank);
    put32(&hdr[8], h.opSeq);
    hdr[12] = static_cast<std::uint8_t>(h.kind);
    hdr[13] = h.param;
    put16(&hdr[14], h.reserved);
    return sim::PacketView::concat(sim::PacketView(std::move(hdr)),
                                   payload);
}

std::optional<std::pair<WireHeader, sim::PacketView>>
parseCollectiveMessage(const sim::PacketView &msg)
{
    if (msg.size() < WireHeader::wireSize)
        return std::nullopt;
    std::uint8_t raw[WireHeader::wireSize];
    msg.read(0, raw, WireHeader::wireSize);
    WireHeader h;
    h.gid = get32(&raw[0]);
    h.epoch = get16(&raw[4]);
    h.srcRank = get16(&raw[6]);
    h.opSeq = get32(&raw[8]);
    h.kind = static_cast<MsgKind>(raw[12]);
    h.param = raw[13];
    h.reserved = get16(&raw[14]);
    return std::make_pair(h, msg.slice(WireHeader::wireSize));
}

} // namespace nectar::collective
