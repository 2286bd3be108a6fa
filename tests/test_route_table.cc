/**
 * @file
 * Route-table compiler tests (DESIGN.md "Fabrics and routing").
 *
 * For meshes, tori, fat trees, and a batch of seeded random regular
 * graphs, the compiled tables must (a) reach exactly what a plain BFS
 * reaches, (b) emit only up*-down* legal paths, (c) induce an acyclic
 * channel-dependency graph — built explicitly here, directed fiber by
 * directed fiber — so cut-through worm routing cannot deadlock on any
 * fabric a .topo file can describe, and (d) route every source whose
 * plain-BFS tree is legal exactly as that tree does, with or without
 * dead trunks.  Plus the route-cache audit: linkVersion bumps
 * must invalidate NetworkDirectory's cached routes, and a
 * fail-then-recover cycle must restore the original path bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "topo/description.hh"
#include "topo/route_table.hh"
#include "topo/topology.hh"
#include "transport/directory.hh"

using namespace nectar;
using namespace nectar::topo;

namespace {

/** Directed channel id: link i traversed toward its b (0) / a (1) end. */
int
channelOf(const FabricGraph &g, int linkIndex, int fromHub)
{
    return linkIndex * 2 + (g.linkAt(linkIndex).a == fromHub ? 0 : 1);
}

/**
 * Walk the compiled path from @p from to @p to, checking contiguity
 * (every hop's port really leads to the next hub) and up*-down*
 * legality (no down move followed by an up move), and append its
 * channel-dependency edges to @p cdg.
 */
void
checkPath(const FabricGraph &g, const RouteTable &t, int from, int to,
          std::vector<std::vector<int>> &cdg)
{
    std::vector<RouteTable::PathHop> hops;
    ASSERT_TRUE(t.path(from, to, hops)) << from << "->" << to;
    int at = from;
    bool wentDown = false;
    int prevChan = -1;
    for (const auto &h : hops) {
        ASSERT_EQ(h.hub, at) << from << "->" << to;
        int li = g.linkAtPort(h.hub, h.outPort);
        ASSERT_GE(li, 0) << "hop port is not a trunk";
        ASSERT_TRUE(g.linkUp(li));
        const auto &l = g.linkAt(li);
        int next = l.a == at ? l.b : l.a;
        bool up = t.upEndOf(li) == next;
        if (up)
            ASSERT_FALSE(wentDown)
                << from << "->" << to << ": down->up turn at hub "
                << at;
        else
            wentDown = true;
        int chan = channelOf(g, li, at);
        if (prevChan >= 0)
            cdg[static_cast<std::size_t>(prevChan)].push_back(chan);
        prevChan = chan;
        at = next;
    }
    ASSERT_EQ(at, to) << from << "->" << to;
}

/** DFS cycle check over the channel-dependency graph. */
bool
acyclic(const std::vector<std::vector<int>> &cdg)
{
    enum { white, grey, black };
    std::vector<int> color(cdg.size(), white);
    std::vector<std::pair<int, std::size_t>> stack;
    for (int r = 0; r < static_cast<int>(cdg.size()); ++r) {
        if (color[static_cast<std::size_t>(r)] != white)
            continue;
        stack.emplace_back(r, 0);
        color[static_cast<std::size_t>(r)] = grey;
        while (!stack.empty()) {
            auto &[n, i] = stack.back();
            const auto &out = cdg[static_cast<std::size_t>(n)];
            if (i == out.size()) {
                color[static_cast<std::size_t>(n)] = black;
                stack.pop_back();
                continue;
            }
            int next = out[i++];
            if (color[static_cast<std::size_t>(next)] == grey)
                return false;
            if (color[static_cast<std::size_t>(next)] == white) {
                color[static_cast<std::size_t>(next)] = grey;
                stack.emplace_back(next, 0);
            }
        }
    }
    return true;
}

/**
 * The router the table replaced, kept as the reference: plain FIFO
 * BFS over up links in adjacency order (first discovery wins), plus
 * whether its tree takes a down->up turn under @p t's orientation.
 */
struct ReferenceTree
{
    /** (parent hub, port on parent), -1 for the root or unreached. */
    std::vector<std::pair<int, hub::PortId>> prev;
    std::vector<int> dist; ///< Hub-hops, -1 unreachable.
    bool turnsDownUp = false;
};

ReferenceTree
referenceTree(const FabricGraph &g, const RouteTable &t, int from)
{
    const auto n = static_cast<std::size_t>(g.numHubs());
    ReferenceTree r;
    r.prev.assign(n, {-1, hub::noPort});
    r.dist.assign(n, -1);
    std::vector<bool> wentDown(n, false);
    std::vector<int> queue{from};
    r.dist[static_cast<std::size_t>(from)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const auto h = static_cast<std::size_t>(queue[head]);
        for (const auto &a : g.adjacencyOf(queue[head])) {
            const auto u = static_cast<std::size_t>(a.neighbor);
            if (!g.linkUp(a.linkIndex) || r.dist[u] >= 0)
                continue;
            r.prev[u] = {queue[head], a.myPort};
            r.dist[u] = r.dist[h] + 1;
            bool up = t.upEndOf(a.linkIndex) == a.neighbor;
            r.turnsDownUp |= wentDown[h] && up;
            wentDown[u] = wentDown[h] || !up;
            queue.push_back(a.neighbor);
        }
    }
    return r;
}

/**
 * The byte-identity guarantee: a source is restricted exactly when
 * the reference tree turns down->up, and every other source routes
 * (unicast and union-of-paths multicast) exactly as the reference.
 */
void
checkMatchesReference(const FabricGraph &g, const RouteTable &t)
{
    for (int s = 0; s < g.numHubs(); ++s) {
        ReferenceTree ref = referenceTree(g, t, s);
        ASSERT_EQ(t.restrictedSource(s), ref.turnsDownUp)
            << "source " << s;
        if (ref.turnsDownUp)
            continue;
        std::vector<int> reached;
        for (int e = 0; e < g.numHubs(); ++e) {
            ASSERT_EQ(t.dist(s, e), ref.dist[static_cast<std::size_t>(e)])
                << s << "->" << e;
            if (ref.dist[static_cast<std::size_t>(e)] < 0)
                continue;
            reached.push_back(e);
            std::vector<RouteTable::PathHop> want;
            for (int h = e; h != s;) {
                auto [p, port] = ref.prev[static_cast<std::size_t>(h)];
                want.insert(want.begin(), RouteTable::PathHop{p, port});
                h = p;
            }
            std::vector<RouteTable::PathHop> got;
            ASSERT_TRUE(t.path(s, e, got));
            EXPECT_EQ(got, want) << s << "->" << e;
        }

        // Multicast to every reached hub: the graft attaches each
        // reference path where it meets the tree.
        RouteTable::McTree want;
        std::vector<bool> inTree(static_cast<std::size_t>(g.numHubs()));
        inTree[static_cast<std::size_t>(s)] = true;
        for (int d : reached)
            for (int h = d; !inTree[static_cast<std::size_t>(h)];) {
                inTree[static_cast<std::size_t>(h)] = true;
                auto [p, port] = ref.prev[static_cast<std::size_t>(h)];
                want.children[p].emplace_back(port, h);
                h = p;
            }
        RouteTable::McTree got = t.multicastTree(s, reached);
        ASSERT_TRUE(got.ok) << "source " << s;
        EXPECT_EQ(got.children, want.children) << "source " << s;
    }
}

/** The full battery: paths valid + legal, CDG acyclic, reachability
 *  and distances consistent with plain BFS, unrestricted sources
 *  identical to it. */
void
checkFabric(const TopologyDescription &d)
{
    SCOPED_TRACE(d.name);
    FabricGraph g = FabricGraph::ofDescription(d);
    RouteTable t = RouteTable::compile(g);
    ASSERT_EQ(t.numHubs(), g.numHubs());

    std::vector<std::vector<int>> cdg(
        static_cast<std::size_t>(g.numLinks()) * 2);
    for (int s = 0; s < g.numHubs(); ++s) {
        std::vector<int> ref = referenceTree(g, t, s).dist;
        for (int e = 0; e < g.numHubs(); ++e) {
            bool reach = ref[static_cast<std::size_t>(e)] >= 0;
            EXPECT_EQ(t.reachable(s, e), reach) << s << "->" << e;
            if (!reach || s == e)
                continue;
            // Restricted sources may detour (legality over hop
            // count); the others keep BFS distances.
            EXPECT_GE(t.dist(s, e), ref[static_cast<std::size_t>(e)]);
            if (!t.restrictedSource(s)) {
                EXPECT_EQ(t.dist(s, e),
                          ref[static_cast<std::size_t>(e)]);
            }
            checkPath(g, t, s, e, cdg);
        }
    }
    EXPECT_TRUE(acyclic(cdg)) << "channel-dependency cycle";
    checkMatchesReference(g, t);

    // Again with each trunk down in turn (which may partition).
    for (int li = 0; li < g.numLinks(); ++li) {
        SCOPED_TRACE("link " + std::to_string(li) + " down");
        g.setLinkUp(li, false);
        checkMatchesReference(g, RouteTable::compile(g));
        g.setLinkUp(li, true);
    }
}

} // namespace

// ----- deadlock freedom on every fabric family ----------------------

TEST(RouteTableTest, MeshPathsLegalAndCdgAcyclic)
{
    checkFabric(describeMesh2D(4, 4, 0));
}

TEST(RouteTableTest, TorusPathsLegalAndCdgAcyclic)
{
    checkFabric(describeTorus2D(4, 4, 0));
    checkFabric(describeTorus2D(3, 5, 0));
}

TEST(RouteTableTest, FatTreePathsLegalAndCdgAcyclic)
{
    checkFabric(describeFatTree(4, 8, 0, 0, 20));
}

TEST(RouteTableTest, RandomRegularGraphsLegalAndCdgAcyclic)
{
    bool sawRestricted = false;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        TopologyDescription d = describeRandomRegular(seed, 12, 3, 0);
        checkFabric(d);
        RouteTable t =
            RouteTable::compile(FabricGraph::ofDescription(d));
        sawRestricted |= t.restrictedSources() > 0;
    }
    // At least one random fabric must exercise the restricted
    // (phase-BFS) compiler; if none does, the fallback is dead code.
    EXPECT_TRUE(sawRestricted);
}

TEST(RouteTableTest, LegacyMeshSourcesAreNeverRestricted)
{
    // On the fabrics the historical BFS router served (single HUB,
    // 2-D meshes) every plain-BFS tree is already legal, so no source
    // is restricted and every route is the old router's.
    for (auto [r, c] : {std::pair{1, 1}, {2, 2}, {2, 3}, {4, 4}}) {
        RouteTable t = RouteTable::compile(FabricGraph::ofDescription(
            describeMesh2D(r, c, 0)));
        EXPECT_EQ(t.restrictedSources(), 0)
            << r << "x" << c << " mesh";
    }
}

TEST(RouteTableTest, SurvivesLinkFailuresStillAcyclic)
{
    // Drop each torus link in turn: recompiled tables must stay
    // legal, acyclic, and fully connected (a 2-D torus is 2-edge-
    // connected, so one dead trunk never partitions it).
    TopologyDescription d = describeTorus2D(3, 3, 0);
    FabricGraph g = FabricGraph::ofDescription(d);
    for (int li = 0; li < g.numLinks(); ++li) {
        g.setLinkUp(li, false);
        RouteTable t = RouteTable::compile(g);
        std::vector<std::vector<int>> cdg(
            static_cast<std::size_t>(g.numLinks()) * 2);
        for (int s = 0; s < g.numHubs(); ++s)
            for (int e = 0; e < g.numHubs(); ++e) {
                ASSERT_TRUE(t.reachable(s, e));
                if (s != e)
                    checkPath(g, t, s, e, cdg);
            }
        EXPECT_TRUE(acyclic(cdg)) << "dead link " << li;
        checkMatchesReference(g, t);
        g.setLinkUp(li, true);
    }
}

TEST(RouteTableTest, MulticastTreeCoversMembersOnce)
{
    FabricGraph g =
        FabricGraph::ofDescription(describeTorus2D(4, 4, 0));
    RouteTable t = RouteTable::compile(g);
    std::vector<int> dests{3, 12, 15, 6};
    RouteTable::McTree tree = t.multicastTree(0, dests);
    ASSERT_TRUE(tree.ok);

    // Walk the tree from the root; every hub joins at most once.
    std::vector<int> seen{0};
    for (std::size_t head = 0; head < seen.size(); ++head) {
        auto it = tree.children.find(seen[head]);
        if (it == tree.children.end())
            continue;
        for (const auto &[port, child] : it->second) {
            EXPECT_EQ(std::count(seen.begin(), seen.end(), child), 0)
                << "hub " << child << " grafted twice";
            seen.push_back(child);
        }
    }
    for (int dst : dests)
        EXPECT_NE(std::count(seen.begin(), seen.end(), dst), 0)
            << "member " << dst << " not covered";
}

// ----- the live topology: lazy compile + cache audit ----------------

TEST(RouteTableTest, TopologyCompilesLazilyAndOnLinkEvents)
{
    sim::EventQueue eq;
    auto topo = buildTopology(eq, describeMesh2D(3, 3, 1));
    EXPECT_EQ(topo->tableCompiles(), 0u);

    Endpoint a{0, 0}, b{8, 0};
    Route r1 = topo->route(a, b);
    EXPECT_FALSE(r1.empty());
    EXPECT_EQ(topo->tableCompiles(), 1u);

    // More queries, same link state: no recompiles.
    for (int h = 0; h < 9; ++h)
        (void)topo->route(a, Endpoint{h, 0});
    (void)topo->reachable(0, 8);
    EXPECT_EQ(topo->tableCompiles(), 1u);

    topo->markLinkDownBetween(0, 1);
    EXPECT_EQ(topo->tableCompiles(), 1u); // lazy: not yet
    Route r2 = topo->route(a, b);
    EXPECT_EQ(topo->tableCompiles(), 2u);
    EXPECT_FALSE(r2.empty());

    topo->markLinkUpBetween(0, 1);
    EXPECT_EQ(topo->route(a, b), r1); // healed: original path back
    EXPECT_EQ(topo->tableCompiles(), 3u);
}

TEST(RouteTableTest, DirectoryCacheAuditOnIrregularGraph)
{
    // The route-cache audit of the issue: on an irregular fabric, a
    // linkVersion bump while routes are cached must invalidate them
    // (stale routes would steer worms into the dead trunk), and the
    // fail -> recover cycle must restore the original shortest path
    // deterministically.
    TopologyDescription d = describeRandomRegular(3, 10, 3, 2);
    sim::EventQueue eq;
    auto topo = buildTopology(eq, d);
    transport::NetworkDirectory dir(*topo);

    // Two CABs whose hubs are as far apart as the fabric allows.
    const RouteTable &table = topo->routeTable();
    std::size_t fromCab = 0, toCab = 0;
    int best = -1;
    for (std::size_t i = 0; i < d.cabs.size(); ++i) {
        int dist = table.dist(d.cabs[0].hub, d.cabs[i].hub);
        if (dist > best) {
            best = dist;
            toCab = i;
        }
    }
    ASSERT_GE(best, 2) << "degree-3 graph of 10 hubs has diameter 2+";
    dir.registerCab(1, Endpoint{d.cabs[fromCab].hub,
                                d.cabs[fromCab].port});
    dir.registerCab(2, Endpoint{d.cabs[toCab].hub,
                                d.cabs[toCab].port});

    Route orig = *dir.route(1, 2);
    ASSERT_GE(orig.size(), 2u);
    std::uint64_t v0 = topo->linkVersion();

    // Kill the first trunk the cached route rides.
    topo->markLinkDown(orig[0].hubId, orig[0].outPort);
    EXPECT_GT(topo->linkVersion(), v0);
    Route around = *dir.route(1, 2);
    EXPECT_NE(around, orig) << "stale route served from cache";
    EXPECT_FALSE(around.empty()) << "graph stays connected";
    EXPECT_EQ(dir.reroutes(), 1u);

    // Heal: the original shortest path comes back bit for bit.
    topo->markLinkUp(orig[0].hubId, orig[0].outPort);
    EXPECT_EQ(*dir.route(1, 2), orig);
    EXPECT_EQ(dir.reroutes(), 2u);

    // And the whole sequence is deterministic: a fresh build of the
    // same description yields the identical original route.
    sim::EventQueue eq2;
    auto topo2 = buildTopology(eq2, d);
    transport::NetworkDirectory dir2(*topo2);
    dir2.registerCab(1, Endpoint{d.cabs[fromCab].hub,
                                 d.cabs[fromCab].port});
    dir2.registerCab(2, Endpoint{d.cabs[toCab].hub,
                                 d.cabs[toCab].port});
    EXPECT_EQ(*dir2.route(1, 2), orig);
}

TEST(RouteTableTest, GraphApiRejectsNonsense)
{
    FabricGraph g(2);
    g.addLink(0, 15, 1, 15);
    EXPECT_THROW(g.addLink(0, 14, 0, 13), sim::FatalError);
    EXPECT_THROW(g.addLink(0, 14, 2, 13), sim::FatalError);
    EXPECT_EQ(g.linkAtPort(0, 15), 0);
    EXPECT_EQ(g.linkAtPort(0, 3), -1);
}
