/**
 * @file
 * Raw packet networks, as seen by a node-resident protocol stack.
 *
 * Section 6.2.3, third interface: "a Berkeley UNIX network driver for
 * Nectar.  In this case, Nectar is used as a 'dumb' network and all
 * transport protocol processing is performed on the node."  RawNet is
 * the driver-level abstraction that the node stack (netstack.hh)
 * runs over; NectarRawNet implements it on a CAB used as a plain
 * network interface, and baseline::EthernetNic implements it on the
 * 10 Mb/s LAN the paper compares against.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "nectarine/system.hh"
#include "node/node.hh"
#include "sim/coro.hh"

namespace nectar::node {

/**
 * A best-effort packet network between nodes.
 *
 * Implementations charge their own link/driver costs; delivery
 * invokes rxRaw on the destination (already on the destination
 * node's interrupt path).
 */
class RawNet
{
  public:
    virtual ~RawNet() = default;

    /** This interface's network address. */
    virtual std::uint16_t rawAddress() const = 0;

    /**
     * Transmit one packet (best effort).
     * @return true when the packet left this station.
     */
    virtual sim::Task<bool> rawSend(std::uint16_t dst,
                                    sim::PacketView packet) = 0;

    /** Upcall on packet arrival (set by the node stack).  All taps
     *  on one station share the arriving packet's buffers. */
    std::function<void(sim::PacketView &&)> rxRaw;
};

/**
 * A CAB used as a dumb network interface.
 *
 * Takes over the site's datalink receive handler: a site driven
 * through NectarRawNet must not simultaneously use its CAB-resident
 * Transport.  Every arriving packet crosses the VME bus and
 * interrupts the node — exactly the per-packet burden the CAB
 * architecture exists to remove (Section 3.1).
 */
class NectarRawNet : public RawNet, public sim::Component
{
  public:
    /**
     * @param host The node.
     * @param site The CAB site acting as the NIC.
     * @param directory Route lookup.
     * @param mode Switching discipline for data packets.
     */
    NectarRawNet(Node &host, nectarine::CabSite &site,
                 transport::NetworkDirectory &directory,
                 datalink::SwitchMode mode =
                     datalink::SwitchMode::packet)
        : sim::Component(host.eventq(), host.name() + ".nectarnic"),
          host(host), site(site), directory(directory), mode(mode)
    {
        site.datalink->rxHandler =
            [this](sim::PacketView &&packet, bool corrupted) {
                onPacket(std::move(packet), corrupted);
            };
    }

    std::uint16_t rawAddress() const override { return site.address; }

    sim::Task<bool>
    rawSend(std::uint16_t dst, sim::PacketView packet) override
    {
        // Kernel copy and VME transfer into CAB memory.
        co_await host.copy(packet.size());
        co_await host.vme().transferAwait(
            static_cast<std::uint32_t>(packet.size()));
        site.board->memory().account(cab::Accessor::vmeDma,
                                     packet.size());
        const topo::RouteHandle &route =
            directory.route(site.address, dst);
        bool ok = co_await site.datalink->sendPacket(
            route, std::move(packet), mode);
        co_return ok;
    }

  private:
    void
    onPacket(sim::PacketView &&packet, bool corrupted)
    {
        if (corrupted)
            return; // dropped by the NIC; the node stack retransmits
        // The packet crosses the VME bus, then interrupts the node.
        host.vme().transfer(static_cast<std::uint32_t>(packet.size()));
        site.board->memory().account(cab::Accessor::vmeDma,
                                     packet.size());
        // The view is captured by value: the interrupt handler hands
        // the same shared buffers to the receiver, with no per-packet
        // heap wrapper and no duplicated byte vector.
        host.raiseInterrupt([this, packet = std::move(packet)]() mutable {
            if (rxRaw)
                rxRaw(std::move(packet));
        });
    }

    Node &host;
    nectarine::CabSite &site;
    transport::NetworkDirectory &directory;
    datalink::SwitchMode mode;
};

} // namespace nectar::node
