/**
 * @file
 * Topology tests: construction rules, route properties (parameterized
 * sweeps over mesh sizes), and multicast tree invariants.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/logging.hh"
#include "topo/topology.hh"

using namespace nectar;
using namespace nectar::topo;

TEST(Topology, HubIdsMatchIndices)
{
    sim::EventQueue eq;
    Topology t(eq);
    EXPECT_EQ(t.addHub(), 0);
    EXPECT_EQ(t.addHub(), 1);
    EXPECT_EQ(t.hubAt(0).hubId(), 0);
    EXPECT_EQ(t.hubAt(1).hubId(), 1);
}

TEST(Topology, PortBookkeeping)
{
    sim::EventQueue eq;
    Topology t(eq);
    t.addHub();
    t.addHub();
    EXPECT_TRUE(t.portFree(0, 3));
    t.linkHubs(0, 3, 1, 5);
    EXPECT_FALSE(t.portFree(0, 3));
    EXPECT_FALSE(t.portFree(1, 5));
    EXPECT_EQ(t.firstFreePort(0), 0);
    EXPECT_THROW(t.linkHubs(0, 3, 1, 7), sim::FatalError);
    EXPECT_THROW(t.linkHubs(0, 0, 0, 1), sim::FatalError); // self
}

TEST(Topology, SameHubRouteIsSingleHop)
{
    sim::EventQueue eq;
    Topology t(eq);
    t.addHub();
    auto r = t.route({0, 2}, {0, 9});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0], (Hop{0, 9, true}));
}

TEST(Topology, DisconnectedHubsHaveEmptyRoute)
{
    sim::EventQueue eq;
    Topology t(eq);
    t.addHub();
    t.addHub();
    EXPECT_TRUE(t.route({0, 0}, {1, 0}).empty());
    EXPECT_FALSE(t.reachable(0, 1));
}

// ---- Link health -----------------------------------------------------

TEST(LinkHealth, DownLinkForcesReroute)
{
    // Two hubs joined by two parallel links: taking one down must
    // steer the route over the other; taking both down leaves no
    // route; healing restores it.
    sim::EventQueue eq;
    Topology t(eq);
    t.addHub();
    t.addHub();
    t.linkHubs(0, 10, 1, 10);
    t.linkHubs(0, 11, 1, 11);

    auto r = t.route({0, 0}, {1, 0});
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].outPort, 10); // first adjacency wins

    auto v0 = t.linkVersion();
    t.markLinkDown(0, hub::PortId(10));
    EXPECT_GT(t.linkVersion(), v0);
    EXPECT_FALSE(t.linkIsUp(0, 10));

    r = t.route({0, 0}, {1, 0});
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].outPort, 11); // rerouted over the survivor

    t.markLinkDown(0, hub::PortId(11));
    EXPECT_TRUE(t.route({0, 0}, {1, 0}).empty());
    EXPECT_FALSE(t.reachable(0, 1));

    t.markLinkUp(0, hub::PortId(10));
    r = t.route({0, 0}, {1, 0});
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].outPort, 10);
    EXPECT_TRUE(t.reachable(0, 1));
}

TEST(LinkHealth, MeshRoutesAroundFailure)
{
    // 2x2 mesh: hub0-hub1 down forces 0 -> 2 -> 3 -> 1.
    sim::EventQueue eq;
    auto t = buildTopology(eq, describeMesh2D(2, 2, 0));
    auto direct = t->route({0, 0}, {1, 0});
    ASSERT_EQ(direct.size(), 2u);

    t->markLinkDownBetween(0, 1); // hub-pair convenience form
    auto around = t->route({0, 0}, {1, 0});
    ASSERT_EQ(around.size(), 4u);
    EXPECT_EQ(around.back().outPort, 0);
    EXPECT_TRUE(around.back().reply);

    t->markLinkUpBetween(0, 1);
    EXPECT_EQ(t->route({0, 0}, {1, 0}).size(), 2u);
}

TEST(LinkHealth, DownLinkFibersStopDelivering)
{
    sim::EventQueue eq;
    Topology t(eq);
    t.addHub();
    t.addHub();
    int li = t.linkHubs(0, 10, 1, 10);
    const auto &link = t.hubLinks()[li];
    t.markLinkDown(0, hub::PortId(10));
    EXPECT_FALSE(link.ab->linkUp());
    EXPECT_FALSE(link.ba->linkUp());
    t.markLinkUp(0, hub::PortId(10));
    EXPECT_TRUE(link.ab->linkUp());
    EXPECT_TRUE(link.ba->linkUp());
}

TEST(LinkHealth, UnknownLinkIsFatal)
{
    sim::EventQueue eq;
    Topology t(eq);
    t.addHub();
    EXPECT_THROW(t.markLinkDown(0, 3), sim::FatalError);
    EXPECT_THROW(t.markLinkUpBetween(0, 1), sim::FatalError);
}

TEST(Topology, MulticastSingleHubOpensTerminalsWithReply)
{
    sim::EventQueue eq;
    Topology t(eq);
    t.addHub();
    auto r = t.multicastRoute({0, 0}, {{0, 3}, {0, 7}});
    ASSERT_EQ(r.size(), 2u);
    EXPECT_TRUE(r[0].reply);
    EXPECT_TRUE(r[1].reply);
}

TEST(Topology, MulticastToSharedPathSplitsOnce)
{
    // Line: hub0 - hub1 - hub2; destinations on hub1 and hub2 share
    // the hub0->hub1 link, which must be opened exactly once.
    sim::EventQueue eq;
    Topology t(eq);
    t.addHub();
    t.addHub();
    t.addHub();
    t.linkHubs(0, 10, 1, 11);
    t.linkHubs(1, 12, 2, 13);
    auto r = t.multicastRoute({0, 0}, {{1, 2}, {2, 3}});
    // open hub0->hub1; openRR hub1 terminal; open hub1->hub2;
    // openRR hub2 terminal.
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r[0], (Hop{0, 10, false}));
    EXPECT_EQ(r[1], (Hop{1, 2, true}));
    EXPECT_EQ(r[2], (Hop{1, 12, false}));
    EXPECT_EQ(r[3], (Hop{2, 3, true}));
}

TEST(Topology, MulticastSingleDestinationMatchesUnicastRoute)
{
    sim::EventQueue eq;
    Topology t(eq);
    t.addHub();
    t.addHub();
    t.linkHubs(0, 10, 1, 11);
    auto uni = t.route({0, 0}, {1, 3});
    auto mc = t.multicastRoute({0, 0}, {{1, 3}});
    EXPECT_EQ(mc, uni);
}

TEST(Topology, MulticastDuplicateDestinationsDeduped)
{
    sim::EventQueue eq;
    Topology t(eq);
    t.addHub();
    auto r = t.multicastRoute({0, 0}, {{0, 3}, {0, 3}, {0, 7}});
    // Each terminal port opened exactly once: a duplicate open would
    // stall the frame on a reply that never comes back twice.
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0], (Hop{0, 3, true}));
    EXPECT_EQ(r[1], (Hop{0, 7, true}));
}

TEST(Topology, MulticastUnreachableMemberYieldsEmptyRoute)
{
    // Line: hub0 - hub1.  Once the link dies, a tree covering a
    // member on hub1 cannot be built: empty route, like route().
    sim::EventQueue eq;
    Topology t(eq);
    t.addHub();
    t.addHub();
    t.linkHubs(0, 10, 1, 11);
    EXPECT_EQ(t.multicastRoute({0, 0}, {{0, 3}, {1, 2}}).size(), 3u);
    t.markLinkDown(0, 10);
    EXPECT_TRUE(t.multicastRoute({0, 0}, {{0, 3}, {1, 2}}).empty());
    // Members on surviving hubs still form a tree.
    EXPECT_EQ(t.multicastRoute({0, 0}, {{0, 3}, {0, 7}}).size(), 2u);
    t.markLinkUp(0, 10);
    EXPECT_EQ(t.multicastRoute({0, 0}, {{0, 3}, {1, 2}}).size(), 3u);
}

TEST(Topology, MulticastTreeOverlapsExistingCircuitRoute)
{
    // A multicast tree sharing links with a concurrently computed
    // unicast circuit is structurally independent: both traverse the
    // hub0->hub1 link by the same output port, and the tree still
    // covers every member exactly once.
    sim::EventQueue eq;
    Topology t(eq);
    t.addHub();
    t.addHub();
    t.linkHubs(0, 10, 1, 11);
    auto circuit = t.route({0, 0}, {1, 5});
    auto tree = t.multicastRoute({0, 0}, {{1, 2}, {1, 3}});
    ASSERT_EQ(circuit.size(), 2u);
    ASSERT_EQ(tree.size(), 3u);
    // Shared trunk: same hub0 output port toward hub1.
    EXPECT_EQ(tree[0], (Hop{0, 10, false}));
    EXPECT_EQ(circuit[0], (Hop{0, 10, false}));
    // The tree's terminal opens are disjoint from the circuit's.
    EXPECT_EQ(tree[1], (Hop{1, 2, true}));
    EXPECT_EQ(tree[2], (Hop{1, 3, true}));
    EXPECT_EQ(circuit[1], (Hop{1, 5, true}));
}

TEST(Topology, MeshBuilderValidation)
{
    sim::EventQueue eq;
    EXPECT_THROW(buildTopology(eq, describeMesh2D(0, 3, 0)),
                 sim::FatalError);
    hub::HubConfig tiny;
    tiny.numPorts = 4;
    EXPECT_THROW(buildTopology(eq,
                               describeMesh2D(2, 2, 0, 0, tiny.numPorts),
                               tiny),
                 sim::FatalError);
}

// ---- Property sweep: route invariants on meshes of many sizes ------

class MeshRouting : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(MeshRouting, RoutesAreValidAndShortest)
{
    auto [rows, cols] = GetParam();
    sim::EventQueue eq;
    auto t = buildTopology(eq, describeMesh2D(rows, cols, 0));

    for (int a = 0; a < rows * cols; ++a) {
        for (int b = 0; b < rows * cols; ++b) {
            Endpoint from{a, 0}, to{b, 1};
            auto r = t->route(from, to);

            // Invariant 1: length = Manhattan distance + 1.
            int ra = a / cols, ca = a % cols;
            int rb = b / cols, cb = b % cols;
            int manhattan = std::abs(ra - rb) + std::abs(ca - cb);
            EXPECT_EQ(static_cast<int>(r.size()), manhattan + 1);

            // Invariant 2: the last hop opens the destination port
            // on the destination hub, with a reply.
            EXPECT_EQ(r.back().hubId, t->hubAt(b).hubId());
            EXPECT_EQ(r.back().outPort, to.port);
            EXPECT_TRUE(r.back().reply);

            // Invariant 3: intermediate hops carry no reply and name
            // distinct hubs (no revisits on a shortest path).
            std::set<std::uint8_t> hubs_seen;
            for (std::size_t h = 0; h + 1 < r.size(); ++h) {
                EXPECT_FALSE(r[h].reply);
                EXPECT_TRUE(hubs_seen.insert(r[h].hubId).second);
            }

            // Invariant 4: the first hop is on the source hub.
            EXPECT_EQ(r.front().hubId, t->hubAt(a).hubId());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MeshRouting,
    ::testing::Values(std::make_pair(1, 2), std::make_pair(2, 2),
                      std::make_pair(2, 3), std::make_pair(3, 3),
                      std::make_pair(4, 4), std::make_pair(2, 6)));

class MeshMulticast
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(MeshMulticast, TreeCoversAllDestinationsWithoutDuplicates)
{
    auto [rows, cols] = GetParam();
    sim::EventQueue eq;
    auto t = buildTopology(eq, describeMesh2D(rows, cols, 0));
    int n = rows * cols;

    // Multicast from hub 0 to a CAB on every hub.
    std::vector<Endpoint> dsts;
    for (int h = 1; h < n; ++h)
        dsts.push_back(Endpoint{h, 2});

    auto r = t->multicastRoute({0, 0}, dsts);

    // Property 1: no (hub, port) pair is opened twice — the tree
    // shares common prefixes.
    std::set<std::pair<int, int>> opens;
    int replies = 0;
    for (const auto &hop : r) {
        EXPECT_TRUE(opens.emplace(hop.hubId, hop.outPort).second);
        if (hop.reply)
            ++replies;
    }

    // Property 2: exactly one terminal (reply) open per destination.
    EXPECT_EQ(replies, n - 1);

    // Property 3: every destination hub opens port 2 (its CAB) with
    // a reply, and the first command addresses the source hub.
    for (const auto &dst : dsts) {
        bool found = false;
        for (const auto &hop : r)
            found |= (hop.hubId == t->hubAt(dst.hubIndex).hubId() &&
                      hop.outPort == dst.port && hop.reply);
        EXPECT_TRUE(found);
    }
    EXPECT_EQ(r.front().hubId, t->hubAt(0).hubId());

    // Property 4: depth-first emission — every hub named by a
    // command was reached by an earlier inter-hub open, except the
    // source hub.  Reconstruct reachability using the mesh adjacency
    // implied by the builder's port convention.
    const auto &cfg = t->hubAt(0).configuration();
    const int east = cfg.numPorts - 4, west = cfg.numPorts - 3;
    const int south = cfg.numPorts - 2, north = cfg.numPorts - 1;
    std::set<int> reachable{0};
    for (const auto &hop : r) {
        EXPECT_TRUE(reachable.count(hop.hubId))
            << "command addressed to not-yet-reached hub "
            << int(hop.hubId);
        if (hop.reply)
            continue;
        int h = hop.hubId;
        int row = h / cols, col = h % cols;
        if (hop.outPort == east)
            reachable.insert(meshHubIndex(row, col + 1, cols));
        else if (hop.outPort == west)
            reachable.insert(meshHubIndex(row, col - 1, cols));
        else if (hop.outPort == south)
            reachable.insert(meshHubIndex(row + 1, col, cols));
        else if (hop.outPort == north)
            reachable.insert(meshHubIndex(row - 1, col, cols));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MeshMulticast,
    ::testing::Values(std::make_pair(2, 2), std::make_pair(2, 3),
                      std::make_pair(3, 3)));
