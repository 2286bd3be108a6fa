/**
 * @file
 * Compiled up*-down* route tables for arbitrary connected fabrics.
 *
 * The HUB forwards whatever the command packet tells it to (Section
 * 4.2): routing policy lives entirely in the hosts, so the simulator
 * is free to precompute it.  A RouteTable is that precomputation — a
 * per-source forwarding tree over the inter-HUB graph, rebuilt only
 * when link health changes (Topology::linkVersion()).
 *
 * Deadlock freedom.  Cut-through worm routing deadlocks when the
 * channel-dependency graph (directed fiber -> directed fiber held
 * while waiting) has a cycle.  The compiler orients every trunk by a
 * BFS spanning forest (root = lowest-index HUB of each component; the
 * "up" end of a link is the endpoint with lexicographically smaller
 * (depth, index)) and only emits up*-down* paths: some up moves, then
 * some down moves, never down->up.  Every dependency then goes
 * up-channel -> up-channel, up -> down, or down -> down, so any CDG
 * cycle would have to climb strictly in the (depth, index) order on
 * its up arcs and fall strictly on its down arcs — impossible.
 * tests/test_route_table.cc builds the CDG explicitly and checks.
 *
 * One search.  Per source, the compiler runs a FIFO BFS over (hub,
 * phase) states in link-insertion adjacency order: from an up state
 * every live trunk is traversable, from a down state only down moves
 * are, and the first state to reach a hub is that hub's winner.  The
 * source is restricted once a down state is refused an up move to a
 * hub no state has reached yet.
 *
 * Why unrestricted routes are the historical plain-BFS routes.  Until
 * that refusal, winner states reach every hub from the same parent,
 * in the same order, as plain BFS does.  A hub's second state is
 * expanded after its winner and can only reach hubs the winner was
 * already offered: an up winner is offered every trunk, and a down
 * winner is refused only hubs already reached (else the source would
 * be restricted).  So second states never discover a new hub, and the
 * winners' preds form the plain-BFS tree, phases and all.  The first
 * refusal is then exactly the first down->up turn of that tree: the
 * refused hub is unreached, so plain BFS attaches it there, and a
 * tree whose first down->up turn comes earlier would have been
 * refused earlier.  A source is therefore restricted precisely when
 * its plain-BFS tree is illegal, and every other source keeps its
 * plain-BFS routes byte for byte.  On single HUBs and the 2-D meshes
 * all existing scenarios use that is every source, since adjacency
 * order makes BFS take north/west (up) moves before east/south.
 * Restricted sources keep the search's detours, trading a few extra
 * hops for provable freedom from deadlock.
 */

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "hub/hub.hh"

namespace nectar::topo {

struct TopologyDescription;

/**
 * A plain snapshot of the inter-HUB graph: just indices, ports, and
 * link health — no live HUBs, so tests and benchmarks can compile
 * tables straight from a TopologyDescription.  Adjacency lists keep
 * link-insertion order; Topology inserts trunks in linkHubs() order.
 */
class FabricGraph
{
  public:
    struct Adj
    {
        int neighbor = -1;
        hub::PortId myPort = hub::noPort;
        int linkIndex = -1;
    };

    struct Link
    {
        int a = -1;
        hub::PortId pa = hub::noPort;
        int b = -1;
        hub::PortId pb = hub::noPort;
        bool up = true;
    };

    explicit FabricGraph(int numHubs);

    /** Add a bidirectional link; parallel links are fine. */
    int addLink(int a, hub::PortId pa, int b, hub::PortId pb,
                bool up = true);

    void setLinkUp(int linkIndex, bool up);

    int numHubs() const { return static_cast<int>(_adj.size()); }
    int numLinks() const { return static_cast<int>(_links.size()); }
    const std::vector<Adj> &adjacencyOf(int hub) const;
    const Link &linkAt(int i) const;
    bool linkUp(int i) const { return linkAt(i).up; }

    /** Link attached at (hub, port), or -1. */
    int linkAtPort(int hub, hub::PortId port) const;

    /** The trunk graph of @p d, all links up, trunk order. */
    static FabricGraph ofDescription(const TopologyDescription &d);

  private:
    std::vector<std::vector<Adj>> _adj;
    std::vector<Link> _links;
};

/**
 * Compiled per-(source, destination) routes over one FabricGraph
 * snapshot.  Immutable once compiled; the owner (Topology) recompiles
 * on linkVersion() bumps.
 */
class RouteTable
{
  public:
    /** One forwarding step: the port to open on a transit HUB. */
    struct PathHop
    {
        int hub = -1;
        hub::PortId outPort = hub::noPort;

        bool operator==(const PathHop &) const = default;
    };

    /** A multicast spanning tree rooted at the source HUB. */
    struct McTree
    {
        bool ok = false;
        /** children[parent] in attach order: (port on parent, child). */
        std::map<int, std::vector<std::pair<hub::PortId, int>>>
            children;
    };

    static RouteTable compile(const FabricGraph &g);

    int numHubs() const { return static_cast<int>(_sources.size()); }

    bool reachable(int from, int to) const;

    /** Hub-hop distance, or -1 when unreachable. */
    int dist(int from, int to) const;

    /**
     * The transit hops from @p from to @p to (empty when from == to;
     * excludes the destination CAB-port open, which the caller owns).
     * @return false when unreachable.
     */
    bool path(int from, int to, std::vector<PathHop> &hops) const;

    /**
     * A spanning tree covering @p destHubs: the union of the members'
     * path()s, in member order, on unrestricted sources.  ok == false
     * when a member is unreachable or (on a restricted source) no
     * legal tree exists; callers fall back to unicast fan-out.
     */
    McTree multicastTree(int from,
                         const std::vector<int> &destHubs) const;

    /** HUB index of the up (root-ward) end of link @p linkIndex. */
    int upEndOf(int linkIndex) const;

    /**
     * True if the search from @p s was refused a down->up turn toward
     * a hub it had not reached — exactly when the plain-BFS tree from
     * @p s turns down->up (see the file comment).  Only restricted
     * sources may route longer than the shortest path.
     */
    bool restrictedSource(int s) const;

    /** Sources that are restricted (for stats). */
    int restrictedSources() const;

  private:
    static constexpr std::uint8_t phaseUp = 0;
    static constexpr std::uint8_t phaseDown = 1;
    static constexpr std::uint8_t phaseNone = 2;

    struct StatePred
    {
        int prevHub = -1;
        std::uint8_t prevPhase = phaseUp;
        hub::PortId port = hub::noPort;
        bool seen = false;
    };

    struct Source
    {
        bool restricted = false;
        /** Search tree over states [stateOf(hub, phase)]. */
        std::vector<StatePred> spred;
        std::vector<std::uint8_t> winner; ///< Phase per hub reached.
        std::vector<int> dist;            ///< Hub-hops, -1 unreachable.
    };

    static std::size_t stateOf(int hub, std::uint8_t phase)
    {
        return static_cast<std::size_t>(hub) * 2 + phase;
    }

    /** True if moving across @p linkIndex and arriving at
     *  @p arriveHub is an up (root-ward) move. */
    bool upMove(int linkIndex, int arriveHub) const
    {
        return _upEnd[static_cast<std::size_t>(linkIndex)] ==
               arriveHub;
    }

    void orient();
    Source compileSource(int s) const;
    McTree unionTree(const Source &src, int from,
                     const std::vector<int> &destHubs) const;
    McTree restrictedTree(const Source &src, int from,
                          const std::vector<int> &destHubs) const;

    FabricGraph _graph{0};
    std::vector<int> _upEnd; ///< Per link: hub index of the up end.
    std::vector<Source> _sources;
};

} // namespace nectar::topo
