#include "ip.hh"

#include "cab/checksum.hh"
#include "sim/logging.hh"

namespace nectar::inet {

namespace {

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

} // namespace

sim::PacketView
encodeIp(Ipv4Header h, const sim::PacketView &pl)
{
    h.totalLength =
        static_cast<std::uint16_t>(Ipv4Header::wireSize + pl.size());
    std::vector<std::uint8_t> out(Ipv4Header::wireSize, 0);
    out[0] = 0x45; // version 4, IHL 5
    out[1] = h.tos;
    put16(out, 2, h.totalLength);
    put16(out, 4, h.id);
    put16(out, 6, 0x4000); // DF, no fragments
    out[8] = h.ttl;
    out[9] = h.protocol;
    // checksum (offset 10) computed over the header with field zero.
    put32(out, 12, h.src);
    put32(out, 16, h.dst);
    std::uint16_t sum =
        cab::checksum16(out.data(), Ipv4Header::wireSize);
    put16(out, 10, sum);
    return sim::PacketView::concat(sim::PacketView(std::move(out)), pl);
}

std::optional<Ipv4Header>
decodeIp(const sim::PacketView &packet, sim::PacketView &payload)
{
    if (packet.size() < Ipv4Header::wireSize)
        return std::nullopt;

    std::uint8_t hdr[Ipv4Header::wireSize];
    packet.read(0, hdr, Ipv4Header::wireSize);
    if (hdr[0] != 0x45)
        return std::nullopt; // options unsupported

    Ipv4Header h;
    h.tos = hdr[1];
    h.totalLength = get16(hdr, 2);
    h.id = get16(hdr, 4);
    h.ttl = hdr[8];
    h.protocol = hdr[9];
    h.checksum = get16(hdr, 10);
    h.src = get32(hdr, 12);
    h.dst = get32(hdr, 16);

    if (h.totalLength != packet.size())
        return std::nullopt;

    hdr[10] = 0;
    hdr[11] = 0;
    if (cab::checksum16(hdr, Ipv4Header::wireSize) != h.checksum)
        return std::nullopt;

    payload = packet.slice(Ipv4Header::wireSize);
    return h;
}

IpLayer::IpLayer(cabos::Kernel &kernel, datalink::Datalink &dl,
                 transport::NetworkDirectory &directory,
                 transport::CabAddress self)
    : sim::Component(kernel.eventq(),
                     kernel.board().name() + ".ip"),
      _kernel(kernel), dl(dl), directory(directory), self(self)
{
    dl.rxHandler = [this](sim::PacketView &&packet, bool corrupted) {
        onPacket(std::move(packet), corrupted);
    };
}

sim::Task<bool>
IpLayer::send(IpAddress dst, std::uint8_t protocol,
              sim::PacketView payload)
{
    auto dst_cab = cabOfIp(dst);
    if (!dst_cab)
        sim::fatal(name() + ": destination outside the Nectar subnet");

    Ipv4Header h;
    h.id = nextId++;
    h.protocol = protocol;
    h.src = address();
    h.dst = dst;
    auto packet = encodeIp(h, payload);

    co_await _kernel.board().cpu().compute(
        _kernel.costs().transportSendPerPacket);
    _stats.sent.add();

    if (*dst_cab == self) {
        onPacket(std::move(packet), false);
        co_return true;
    }
    const topo::RouteHandle &route = directory.route(self, *dst_cab);
    co_return co_await dl.sendPacket(route, std::move(packet),
                                     datalink::SwitchMode::packet);
}

void
IpLayer::onPacket(sim::PacketView &&packet, bool corrupted)
{
    sim::PacketView payload;
    auto h = decodeIp(packet, payload);
    if (!h || corrupted || packet.corrupted()) {
        _stats.badHeader.add();
        return;
    }
    if (h->dst != address()) {
        _stats.misrouted.add();
        return;
    }
    _stats.received.add();
    auto it = handlers.find(h->protocol);
    if (it == handlers.end()) {
        _stats.unknownProto.add();
        return;
    }
    // Charge the receive path, then hand up.  The payload view is
    // captured by value (descriptors only, no bytes).
    Ipv4Header header = *h;
    auto &handler = it->second;
    _kernel.board().cpu().chargeThen(
        _kernel.costs().transportRecvPerPacket,
        [&handler, header, payload = std::move(payload)]() mutable {
            handler(header, std::move(payload));
        });
}

} // namespace nectar::inet
