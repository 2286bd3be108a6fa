#include "topo/route_table.hh"

#include <algorithm>
#include <deque>

#include "sim/logging.hh"
#include "topo/description.hh"

namespace nectar::topo {

// --------------------------------------------------------------------
// FabricGraph.
// --------------------------------------------------------------------

FabricGraph::FabricGraph(int numHubs)
{
    if (numHubs < 0)
        sim::fatal("FabricGraph: negative hub count");
    _adj.resize(static_cast<std::size_t>(numHubs));
}

int
FabricGraph::addLink(int a, hub::PortId pa, int b, hub::PortId pb,
                     bool up)
{
    if (a < 0 || a >= numHubs() || b < 0 || b >= numHubs())
        sim::fatal("FabricGraph::addLink: bad hub index");
    if (a == b)
        sim::fatal("FabricGraph::addLink: self-link");
    int index = numLinks();
    _links.push_back(Link{a, pa, b, pb, up});
    _adj[static_cast<std::size_t>(a)].push_back(Adj{b, pa, index});
    _adj[static_cast<std::size_t>(b)].push_back(Adj{a, pb, index});
    return index;
}

void
FabricGraph::setLinkUp(int linkIndex, bool up)
{
    if (linkIndex < 0 || linkIndex >= numLinks())
        sim::fatal("FabricGraph::setLinkUp: bad link index");
    _links[static_cast<std::size_t>(linkIndex)].up = up;
}

const std::vector<FabricGraph::Adj> &
FabricGraph::adjacencyOf(int hub) const
{
    if (hub < 0 || hub >= numHubs())
        sim::fatal("FabricGraph::adjacencyOf: bad hub index");
    return _adj[static_cast<std::size_t>(hub)];
}

const FabricGraph::Link &
FabricGraph::linkAt(int i) const
{
    if (i < 0 || i >= numLinks())
        sim::fatal("FabricGraph::linkAt: bad link index");
    return _links[static_cast<std::size_t>(i)];
}

int
FabricGraph::linkAtPort(int hub, hub::PortId port) const
{
    for (int i = 0; i < numLinks(); ++i) {
        const Link &l = _links[static_cast<std::size_t>(i)];
        if ((l.a == hub && l.pa == port) ||
            (l.b == hub && l.pb == port))
            return i;
    }
    return -1;
}

FabricGraph
FabricGraph::ofDescription(const TopologyDescription &d)
{
    FabricGraph g(d.numHubs());
    for (const TrunkDecl &t : d.trunks)
        g.addLink(t.a, t.pa, t.b, t.pb);
    return g;
}

// --------------------------------------------------------------------
// Orientation: BFS spanning forest over the links currently up.
// --------------------------------------------------------------------

void
RouteTable::orient()
{
    const int n = _graph.numHubs();
    std::vector<int> depth(static_cast<std::size_t>(n), -1);
    for (int root = 0; root < n; ++root) {
        if (depth[static_cast<std::size_t>(root)] != -1)
            continue;
        depth[static_cast<std::size_t>(root)] = 0;
        std::deque<int> frontier{root};
        while (!frontier.empty()) {
            int h = frontier.front();
            frontier.pop_front();
            for (const FabricGraph::Adj &a : _graph.adjacencyOf(h)) {
                if (!_graph.linkUp(a.linkIndex))
                    continue;
                auto un = static_cast<std::size_t>(a.neighbor);
                if (depth[un] == -1) {
                    depth[un] =
                        depth[static_cast<std::size_t>(h)] + 1;
                    frontier.push_back(a.neighbor);
                }
            }
        }
    }

    _upEnd.assign(static_cast<std::size_t>(_graph.numLinks()), -1);
    for (int i = 0; i < _graph.numLinks(); ++i) {
        const FabricGraph::Link &l = _graph.linkAt(i);
        auto keyA = std::make_pair(
            depth[static_cast<std::size_t>(l.a)], l.a);
        auto keyB = std::make_pair(
            depth[static_cast<std::size_t>(l.b)], l.b);
        _upEnd[static_cast<std::size_t>(i)] =
            keyA < keyB ? l.a : l.b;
    }
}

// --------------------------------------------------------------------
// Per-source compilation.
// --------------------------------------------------------------------

RouteTable::Source
RouteTable::compileSource(int s) const
{
    // BFS over (hub, phase) states.  From an up state every live edge
    // is traversable (up moves keep phase up); from a down state only
    // down moves are.  First state discovered per hub is that hub's
    // winner; routes replay the state preds.
    const int n = _graph.numHubs();
    Source src;
    src.dist.assign(static_cast<std::size_t>(n), -1);
    src.winner.assign(static_cast<std::size_t>(n), phaseNone);
    src.spred.assign(static_cast<std::size_t>(n) * 2, StatePred{});
    std::vector<int> sdist(static_cast<std::size_t>(n) * 2, -1);

    std::deque<std::pair<int, std::uint8_t>> frontier;
    src.spred[stateOf(s, phaseUp)].seen = true;
    sdist[stateOf(s, phaseUp)] = 0;
    src.winner[static_cast<std::size_t>(s)] = phaseUp;
    src.dist[static_cast<std::size_t>(s)] = 0;
    frontier.emplace_back(s, phaseUp);
    while (!frontier.empty()) {
        auto [h, ph] = frontier.front();
        frontier.pop_front();
        for (const FabricGraph::Adj &a : _graph.adjacencyOf(h)) {
            if (!_graph.linkUp(a.linkIndex))
                continue;
            auto un = static_cast<std::size_t>(a.neighbor);
            bool movesUp = upMove(a.linkIndex, a.neighbor);
            if (ph == phaseDown && movesUp) {
                // The forbidden down->up turn.  Toward a hub no state
                // has reached, it is where plain BFS would turn (only
                // a down winner can meet one: an up winner was offered
                // every neighbor first).
                if (src.winner[un] == phaseNone)
                    src.restricted = true;
                continue;
            }
            std::uint8_t nph =
                (ph == phaseUp && movesUp) ? phaseUp : phaseDown;
            std::size_t ns = stateOf(a.neighbor, nph);
            if (src.spred[ns].seen)
                continue;
            src.spred[ns] = StatePred{h, ph, a.myPort, true};
            sdist[ns] = sdist[stateOf(h, ph)] + 1;
            if (src.winner[un] == phaseNone) {
                src.winner[un] = nph;
                src.dist[un] = sdist[ns];
            }
            frontier.emplace_back(a.neighbor, nph);
        }
    }
    return src;
}

RouteTable
RouteTable::compile(const FabricGraph &g)
{
    RouteTable t;
    t._graph = g;
    t.orient();
    t._sources.reserve(static_cast<std::size_t>(g.numHubs()));
    for (int s = 0; s < g.numHubs(); ++s)
        t._sources.push_back(t.compileSource(s));
    return t;
}

// --------------------------------------------------------------------
// Queries.
// --------------------------------------------------------------------

bool
RouteTable::reachable(int from, int to) const
{
    return dist(from, to) >= 0;
}

int
RouteTable::dist(int from, int to) const
{
    if (from < 0 || from >= numHubs() || to < 0 || to >= numHubs())
        sim::fatal("RouteTable::dist: bad hub index");
    return _sources[static_cast<std::size_t>(from)]
        .dist[static_cast<std::size_t>(to)];
}

bool
RouteTable::path(int from, int to, std::vector<PathHop> &hops) const
{
    hops.clear();
    if (dist(from, to) < 0)
        return false;
    const Source &src = _sources[static_cast<std::size_t>(from)];
    int h = to;
    std::uint8_t ph = src.winner[static_cast<std::size_t>(to)];
    while (h != from || ph != phaseUp) {
        const StatePred &sp = src.spred[stateOf(h, ph)];
        hops.push_back(PathHop{sp.prevHub, sp.port});
        h = sp.prevHub;
        ph = sp.prevPhase;
    }
    std::reverse(hops.begin(), hops.end());
    return true;
}

int
RouteTable::upEndOf(int linkIndex) const
{
    if (linkIndex < 0 ||
        linkIndex >= static_cast<int>(_upEnd.size()))
        sim::fatal("RouteTable::upEndOf: bad link index");
    return _upEnd[static_cast<std::size_t>(linkIndex)];
}

bool
RouteTable::restrictedSource(int s) const
{
    if (s < 0 || s >= numHubs())
        sim::fatal("RouteTable::restrictedSource: bad hub index");
    return _sources[static_cast<std::size_t>(s)].restricted;
}

int
RouteTable::restrictedSources() const
{
    int n = 0;
    for (const Source &s : _sources)
        n += s.restricted ? 1 : 0;
    return n;
}

// --------------------------------------------------------------------
// Multicast trees.
// --------------------------------------------------------------------

RouteTable::McTree
RouteTable::unionTree(const Source &src, int from,
                      const std::vector<int> &destHubs) const
{
    // The union of the members' paths: walk each destination toward
    // the source along winner-state preds until the walk meets the
    // tree.  Unrestricted, a winner's pred is always a winner, so
    // every hub keeps one parent.
    McTree t;
    std::vector<bool> inTree(static_cast<std::size_t>(numHubs()),
                             false);
    inTree[static_cast<std::size_t>(from)] = true;
    for (int d : destHubs) {
        if (src.dist[static_cast<std::size_t>(d)] < 0)
            return t; // unreachable member: ok stays false
        for (int h = d; !inTree[static_cast<std::size_t>(h)];) {
            inTree[static_cast<std::size_t>(h)] = true;
            const StatePred &sp = src.spred[stateOf(
                h, src.winner[static_cast<std::size_t>(h)])];
            t.children[sp.prevHub].emplace_back(sp.port, h);
            h = sp.prevHub;
        }
    }
    t.ok = true;
    return t;
}

RouteTable::McTree
RouteTable::restrictedTree(const Source &src, int from,
                           const std::vector<int> &destHubs) const
{
    // Grow the tree one member at a time with a multi-source
    // restricted BFS from every state already in the tree.  New paths
    // may not pass through hubs the tree already covers (each hub
    // keeps exactly one parent, so the depth-first emission opens it
    // once), which can make an otherwise-reachable member unbuildable
    // — then ok stays false and the transport falls back to unicast
    // fan-out, exactly as for a partitioned fabric.
    McTree t;
    const int n = numHubs();
    std::vector<bool> inTreeHub(static_cast<std::size_t>(n), false);
    std::vector<std::pair<int, std::uint8_t>> treeStates;
    inTreeHub[static_cast<std::size_t>(from)] = true;
    treeStates.emplace_back(from, phaseUp);

    for (int d : destHubs) {
        if (src.dist[static_cast<std::size_t>(d)] < 0)
            return t;
        if (inTreeHub[static_cast<std::size_t>(d)])
            continue;

        std::vector<StatePred> pred(static_cast<std::size_t>(n) * 2);
        std::deque<std::pair<int, std::uint8_t>> frontier;
        for (auto [h, ph] : treeStates) {
            pred[stateOf(h, ph)].seen = true;
            frontier.emplace_back(h, ph);
        }
        int foundHub = -1;
        std::uint8_t foundPhase = phaseNone;
        while (!frontier.empty() && foundHub < 0) {
            auto [h, ph] = frontier.front();
            frontier.pop_front();
            for (const FabricGraph::Adj &a :
                 _graph.adjacencyOf(h)) {
                if (!_graph.linkUp(a.linkIndex))
                    continue;
                if (inTreeHub[static_cast<std::size_t>(a.neighbor)])
                    continue; // one parent per hub
                bool movesUp = upMove(a.linkIndex, a.neighbor);
                if (ph == phaseDown && movesUp)
                    continue;
                std::uint8_t nph =
                    (ph == phaseUp && movesUp) ? phaseUp
                                               : phaseDown;
                std::size_t ns = stateOf(a.neighbor, nph);
                if (pred[ns].seen)
                    continue;
                pred[ns] = StatePred{h, ph, a.myPort, true};
                if (a.neighbor == d) {
                    foundHub = a.neighbor;
                    foundPhase = nph;
                    break;
                }
                frontier.emplace_back(a.neighbor, nph);
            }
        }
        if (foundHub < 0)
            return t; // no legal graft: caller unicasts

        // Walk back to the tree (seed states carry prevHub == -1),
        // then attach the chain outward.
        std::vector<std::pair<int, std::uint8_t>> chain;
        int h = foundHub;
        std::uint8_t ph = foundPhase;
        while (pred[stateOf(h, ph)].prevHub != -1) {
            chain.emplace_back(h, ph);
            const StatePred &sp = pred[stateOf(h, ph)];
            h = sp.prevHub;
            ph = sp.prevPhase;
        }
        std::reverse(chain.begin(), chain.end());
        for (auto [ch, cph] : chain) {
            const StatePred &sp = pred[stateOf(ch, cph)];
            t.children[sp.prevHub].emplace_back(sp.port, ch);
            inTreeHub[static_cast<std::size_t>(ch)] = true;
            treeStates.emplace_back(ch, cph);
        }
    }
    t.ok = true;
    return t;
}

RouteTable::McTree
RouteTable::multicastTree(int from,
                          const std::vector<int> &destHubs) const
{
    if (from < 0 || from >= numHubs())
        sim::fatal("RouteTable::multicastTree: bad hub index");
    for (int d : destHubs)
        if (d < 0 || d >= numHubs())
            sim::fatal("RouteTable::multicastTree: bad hub index");
    const Source &src = _sources[static_cast<std::size_t>(from)];
    return src.restricted ? restrictedTree(src, from, destHubs)
                          : unionTree(src, from, destHubs);
}

} // namespace nectar::topo
