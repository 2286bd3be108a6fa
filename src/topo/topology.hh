/**
 * @file
 * System topologies: HUB clusters connected by inter-HUB fibers.
 *
 * Sections 3.1 and 4.2: a single-HUB system connects all CABs to one
 * HUB (Figure 2); larger systems connect HUB clusters "in any topology
 * appropriate to the application environment", e.g. a 2-D mesh
 * (Figure 4).  Because HUB-HUB and CAB-HUB ports are identical, the
 * same attachment primitive serves both.
 *
 * Topology also computes routes: the ordered (hub, output port) hops a
 * command packet must open to reach a destination, including multicast
 * trees with the command ordering of Section 4.2.2.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hub/hub.hh"
#include "topo/description.hh"
#include "topo/route_table.hh"
#include "topo/wiring.hh"

namespace nectar::topo {

/** An endpoint attachment point: which HUB and which port. */
struct Endpoint
{
    int hubIndex = -1;
    hub::PortId port = hub::noPort;

    bool operator==(const Endpoint &) const = default;
};

/** One hop of a route: a connection to open on a specific HUB. */
struct Hop
{
    std::uint8_t hubId = 0;      ///< HUB addressed by the command.
    hub::PortId outPort = hub::noPort; ///< Output port to open.
    bool reply = false;          ///< Request a reply on this open.

    bool operator==(const Hop &) const = default;
};

/** A route: the hops in command-packet order. */
using Route = std::vector<Hop>;

/**
 * A shared, immutable route.  Route caches hand these out, so a send
 * can hold its route across suspensions without copying it, and the
 * route outlives a cache recomputation that replaces it.
 */
using RouteHandle = std::shared_ptr<const Route>;

/**
 * A set of HUBs, their interconnections, and attached endpoints.
 */
class Topology
{
  public:
    /**
     * @param eq Event queue.
     * @param config Configuration applied to every HUB.
     */
    explicit Topology(sim::EventQueue &eq,
                      const hub::HubConfig &config = {});

    /**
     * Create a HUB.  Its datalink hub id is its index (so ids stay
     * unique and 8-bit addressable).
     * @return The new HUB's index.
     */
    int addHub(const std::string &name = "");

    int numHubs() const { return static_cast<int>(hubs.size()); }

    hub::Hub &hubAt(int i);
    const hub::Hub &hubAt(int i) const;

    /**
     * Connect two HUBs with a fiber pair.
     * Both ports must be unused.  Parallel links between the same
     * HUB pair are allowed (and give the mesh redundancy to reroute
     * around a failed link).
     *
     * @param width Bonded fiber lanes: the trunk serializes bytes
     *        @p width times faster than a single TAXI pair.
     * @return Index of the new link in hubLinks().
     */
    int linkHubs(int a, hub::PortId pa, int b, hub::PortId pb,
                 sim::Tick propDelay = 0, int width = 1);

    /**
     * Attach an endpoint (CAB or test harness) to a HUB port.
     *
     * @return The fiber link the endpoint transmits on.
     */
    phys::FiberLink &attachEndpoint(phys::FiberSink &rx, int hubIndex,
                                    hub::PortId port,
                                    const std::string &name,
                                    sim::Tick propDelay = 0);

    /** True if the port on the given HUB is not yet wired. */
    bool portFree(int hubIndex, hub::PortId port) const;

    /** First free port on a HUB, or noPort. */
    hub::PortId firstFreePort(int hubIndex) const;

    // ----- Link health ----------------------------------------------

    /**
     * Declare the inter-HUB link attached at (@p hub, @p port) down:
     * both of its fibers stop delivering and route() stops using it.
     * Bumps linkVersion() so route caches invalidate.
     */
    void markLinkDown(int hub, hub::PortId port);

    /** Reverse of markLinkDown(). */
    void markLinkUp(int hub, hub::PortId port);

    /**
     * Convenience: mark the first currently-up link between hubs
     * @p a and @p b down (markLinkUpBetween: the first down one up).
     */
    void markLinkDownBetween(int a, int b);
    void markLinkUpBetween(int a, int b);

    /** True if the link attached at (@p hub, @p port) is up. */
    bool linkIsUp(int hub, hub::PortId port) const;

    /**
     * Monotonic counter bumped by every markLinkDown/markLinkUp;
     * route caches compare it to decide whether to recompute.
     */
    std::uint64_t linkVersion() const { return _linkVersion; }

    /** True if a surviving path connects the two hubs. */
    bool reachable(int fromHub, int toHub) const;

    /** One inter-HUB link and its fibers. */
    struct HubLink
    {
        int a = -1;
        hub::PortId pa = hub::noPort;
        int b = -1;
        hub::PortId pb = hub::noPort;
        phys::FiberLink *ab = nullptr; ///< Fiber a -> b.
        phys::FiberLink *ba = nullptr; ///< Fiber b -> a.
        bool up = true;
    };

    const std::vector<HubLink> &hubLinks() const { return _hubLinks; }

    /**
     * The fiber pair attaching the endpoint at (@p hub, @p port);
     * forward is endpoint -> HUB.  Fatal if nothing is attached
     * there.
     */
    const FiberPair &endpointFibers(int hub, hub::PortId port) const;

    /**
     * Compute the route from @p from to @p to over the links
     * currently up (the compiled table's up*-down* path).
     *
     * The final hop opens the destination CAB's port and carries the
     * reply request; intermediate hops open inter-HUB connections.
     *
     * @return The best surviving route, or an empty route when the
     *         destination hub is unreachable (link failures can
     *         partition the mesh; callers treat an empty route as a
     *         transient transmission failure and retry, so the
     *         system heals when the link comes back).
     * @throws sim::FatalError only for invalid endpoints.
     */
    Route route(const Endpoint &from, const Endpoint &to) const;

    /**
     * Compute a multicast tree from @p from to several destinations,
     * in the command order of Section 4.2.2: depth-first, with a
     * reply requested on each terminal (CAB-port) open.
     *
     * Duplicate destinations are opened once.  May be empty when
     * link failures leave any member unreachable (mirroring route():
     * callers fall back to per-member unicast fan-out).
     */
    Route multicastRoute(const Endpoint &from,
                         const std::vector<Endpoint> &to) const;

    /** Number of HUB-to-HUB hops on the route between two endpoints. */
    int hopCount(const Endpoint &from, const Endpoint &to) const;

    /**
     * The compiled route table for the current link state.  Compiled
     * lazily on first use and recompiled after any linkVersion()
     * bump; route() and multicastRoute() read it instead of running
     * a BFS per call.
     */
    const RouteTable &routeTable() const;

    /** How many times the table has been (re)compiled (for tests
     *  and the fabric benchmark). */
    std::uint64_t tableCompiles() const { return _compiles; }

    Wiring &wiring() { return _wiring; }

  private:
    /** Index into _hubLinks of the link at (hub, port), or -1. */
    int findHubLink(int hub, hub::PortId port) const;

    void setLinkState(int linkIndex, bool up);

    sim::EventQueue &eq;
    hub::HubConfig config;
    Wiring _wiring;
    std::vector<std::unique_ptr<hub::Hub>> hubs;
    std::vector<std::vector<bool>> portUsed;
    std::vector<HubLink> _hubLinks;
    std::map<std::pair<int, int>, FiberPair> endpointLinks;
    std::uint64_t _linkVersion = 0;

    // Lazily compiled route table (see routeTable()).  route() is
    // const, so the cache is mutable; _tableVersion records the
    // linkVersion() the table was compiled against.
    mutable std::unique_ptr<RouteTable> _table;
    mutable std::uint64_t _tableVersion = 0;
    mutable std::uint64_t _compiles = 0;
};

/**
 * Build the HUBs and trunks of @p d into a live Topology.  CAB
 * attachment is left to the caller (the CAB layer / nectarine).  A
 * non-zero d.hubPorts overrides config.numPorts; everything else in
 * @p config applies unchanged.
 */
std::unique_ptr<Topology>
buildTopology(sim::EventQueue &eq, const TopologyDescription &d,
              const hub::HubConfig &config = {});

/** Mesh helper: index of the HUB at (row, col). */
inline int
meshHubIndex(int row, int col, int cols)
{
    return row * cols + col;
}

} // namespace nectar::topo
