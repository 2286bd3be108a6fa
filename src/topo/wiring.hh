/**
 * @file
 * Fiber wiring between HUB ports, CABs, and test endpoints.
 *
 * "Every CAB is connected to a HUB via a pair of fiber lines carrying
 * signals in opposite directions" (Section 3.1), and "the I/O ports
 * used for HUB-HUB and for CAB-HUB connections are identical", so the
 * same wiring primitive serves every topology.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hub/hub.hh"
#include "phys/fiber.hh"
#include "sim/event_queue.hh"

namespace nectar::topo {

/** The two directed fibers of one bidirectional connection. */
struct FiberPair
{
    phys::FiberLink *forward = nullptr; ///< a -> b (or endpoint -> HUB).
    phys::FiberLink *reverse = nullptr; ///< b -> a (or HUB -> endpoint).
};

/**
 * Owns the fiber links of a system and provides pairing helpers.
 */
class Wiring
{
  public:
    explicit Wiring(sim::EventQueue &eq) : eq(eq) {}

    /**
     * Create one unidirectional link delivering into @p sink.
     * The caller attaches the returned link to its transmitter.
     * @param byteTime Serialization time per byte; bonded (wide)
     *        trunks divide the single-TAXI byte time by their width.
     */
    phys::FiberLink &
    makeLink(const std::string &name, phys::FiberSink &sink,
             sim::Tick propDelay = 0,
             sim::Tick byteTime = sim::proto::fiberByteTime)
    {
        links.push_back(std::make_unique<phys::FiberLink>(
            eq, name, propDelay, byteTime));
        links.back()->connectTo(sink);
        return *links.back();
    }

    /**
     * Connect two HUB ports with a fiber pair.
     *
     * @return The two directed fibers (forward = a toward b), so
     *         callers (Topology, the fault campaign engine) can
     *         manipulate link state.
     */
    FiberPair
    connectHubPorts(hub::Hub &a, hub::PortId pa, hub::Hub &b,
                    hub::PortId pb, sim::Tick propDelay = 0,
                    sim::Tick byteTime = sim::proto::fiberByteTime)
    {
        auto &ab = makeLink(a.name() + ".p" + std::to_string(pa) +
                                "->" + b.name() + ".p" +
                                std::to_string(pb),
                            b.port(pb), propDelay, byteTime);
        auto &ba = makeLink(b.name() + ".p" + std::to_string(pb) +
                                "->" + a.name() + ".p" +
                                std::to_string(pa),
                            a.port(pa), propDelay, byteTime);
        a.port(pa).attachOutput(ab, b.hubId());
        b.port(pb).attachOutput(ba, a.hubId());
        return FiberPair{&ab, &ba};
    }

    /**
     * Connect an endpoint (CAB or test harness) to a HUB port.
     *
     * @param endpointRx Where the HUB's outgoing fiber delivers.
     * @param hub The HUB.
     * @param port Port index on the HUB.
     * @param name Name prefix for the two links.
     * @return The link the endpoint transmits on (toward the HUB).
     */
    phys::FiberLink &
    connectEndpoint(phys::FiberSink &endpointRx, hub::Hub &hub,
                    hub::PortId port, const std::string &name,
                    sim::Tick propDelay = 0)
    {
        return *connectEndpointPair(endpointRx, hub, port, name,
                                    propDelay)
                    .forward;
    }

    /** As connectEndpoint(), but returns both directed fibers
     *  (forward = endpoint toward HUB). */
    FiberPair
    connectEndpointPair(phys::FiberSink &endpointRx, hub::Hub &hub,
                        hub::PortId port, const std::string &name,
                        sim::Tick propDelay = 0)
    {
        auto &toHub = makeLink(name + "->" + hub.name() + ".p" +
                                   std::to_string(port),
                               hub.port(port), propDelay);
        auto &fromHub = makeLink(hub.name() + ".p" +
                                     std::to_string(port) + "->" + name,
                                 endpointRx, propDelay);
        hub.port(port).attachOutput(fromHub);
        return FiberPair{&toHub, &fromHub};
    }

    /** All links created so far (for stats inspection). */
    const std::vector<std::unique_ptr<phys::FiberLink>> &
    allLinks() const
    {
        return links;
    }

  private:
    sim::EventQueue &eq;
    std::vector<std::unique_ptr<phys::FiberLink>> links;
};

} // namespace nectar::topo
