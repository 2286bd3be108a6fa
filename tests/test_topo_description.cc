/**
 * @file
 * Declarative-fabric tests: TopologyDescription validation, the
 * generators, and the `.topo` text format (DESIGN.md "Fabrics and
 * routing").  The malformed-input corpus mirrors the fault-plan
 * parser's: every broken file must die loudly with a line number,
 * never half-build.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/logging.hh"
#include "topo/description.hh"
#include "topo/topofile.hh"

using namespace nectar;
using namespace nectar::topo;

// ----- description validation ---------------------------------------

TEST(TopologyDescriptionTest, ValidDescriptionPasses)
{
    TopologyDescription d;
    d.hubs = {HubDecl{"a"}, HubDecl{"b"}};
    d.trunks = {TrunkDecl{0, 15, 1, 14, 500, 2}};
    d.cabs = {CabDecl{"c0", 0, 0, 80}, CabDecl{"", 1, 0, 0}};
    EXPECT_NO_THROW(d.validate());
    EXPECT_TRUE(d.connected());
    EXPECT_EQ(d.hubNameAt(0), "a");
    EXPECT_EQ(d.hubIndexByName("b"), 1);
    EXPECT_EQ(d.hubIndexByName("nope"), -1);
}

TEST(TopologyDescriptionTest, StructuralErrorsAreFatal)
{
    TopologyDescription base;
    base.hubs = {HubDecl{"a"}, HubDecl{"b"}};
    base.trunks = {TrunkDecl{0, 15, 1, 15}};

    { // trunk to a HUB that does not exist
        auto d = base;
        d.trunks.push_back(TrunkDecl{0, 14, 2, 14});
        EXPECT_THROW(d.validate(), sim::FatalError);
    }
    { // self-trunk
        auto d = base;
        d.trunks.push_back(TrunkDecl{0, 13, 0, 12});
        EXPECT_THROW(d.validate(), sim::FatalError);
    }
    { // trunk-trunk port collision
        auto d = base;
        d.trunks.push_back(TrunkDecl{0, 15, 1, 14});
        EXPECT_THROW(d.validate(), sim::FatalError);
    }
    { // cab-trunk port collision
        auto d = base;
        d.cabs.push_back(CabDecl{"", 1, 15, 0});
        EXPECT_THROW(d.validate(), sim::FatalError);
    }
    { // cab-cab port collision
        auto d = base;
        d.cabs.push_back(CabDecl{"x", 0, 3, 0});
        d.cabs.push_back(CabDecl{"y", 0, 3, 0});
        EXPECT_THROW(d.validate(), sim::FatalError);
    }
    { // port out of range
        auto d = base;
        d.cabs.push_back(CabDecl{"", 0, 16, 0});
        EXPECT_THROW(d.validate(), sim::FatalError);
    }
    { // bad width
        auto d = base;
        d.trunks[0].width = 0;
        EXPECT_THROW(d.validate(), sim::FatalError);
    }
    { // negative latency
        auto d = base;
        d.trunks[0].latency = -1;
        EXPECT_THROW(d.validate(), sim::FatalError);
    }
    { // duplicate non-empty HUB names
        auto d = base;
        d.hubs[1].name = "a";
        EXPECT_THROW(d.validate(), sim::FatalError);
    }
}

// ----- generators ---------------------------------------------------

TEST(TopologyDescriptionTest, MeshGeneratorMatchesLegacyConventions)
{
    TopologyDescription d = describeMesh2D(4, 4, 2);
    EXPECT_EQ(d.name, "mesh4x4");
    EXPECT_EQ(d.numHubs(), 16);
    // 2*r*c - r - c internal links for an r x c mesh.
    EXPECT_EQ(d.trunks.size(), 24u);
    EXPECT_EQ(d.cabs.size(), 32u);
    EXPECT_EQ(d.hubNameAt(0), "hub_r0c0");
    EXPECT_EQ(d.hubNameAt(5), "hub_r1c1");
    EXPECT_TRUE(d.connected());
    EXPECT_NO_THROW(d.validate());
}

TEST(TopologyDescriptionTest, TorusAddsWraps)
{
    TopologyDescription mesh = describeTorus2D(1, 3, 1);
    // A 1 x 3 torus wraps the row but not the length-1 column.
    EXPECT_EQ(mesh.trunks.size(), 3u);

    TopologyDescription t = describeTorus2D(4, 4, 2);
    EXPECT_EQ(t.trunks.size(), 32u); // 2*r*c with both wraps
    EXPECT_TRUE(t.connected());
    EXPECT_NO_THROW(t.validate());
}

TEST(TopologyDescriptionTest, FatTreeConnectsEveryLeafToEverySpine)
{
    TopologyDescription d = describeFatTree(4, 8, 2);
    EXPECT_EQ(d.numHubs(), 12);
    EXPECT_EQ(d.trunks.size(), 32u);
    EXPECT_EQ(d.cabs.size(), 16u); // spines carry no CABs
    EXPECT_TRUE(d.connected());
    for (const CabDecl &c : d.cabs)
        EXPECT_GE(c.hub, 4) << "CAB on a spine";
}

TEST(TopologyDescriptionTest, RandomRegularIsSeededAndRegular)
{
    TopologyDescription a = describeRandomRegular(7, 12, 3, 1);
    TopologyDescription b = describeRandomRegular(7, 12, 3, 1);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, describeRandomRegular(8, 12, 3, 1));
    EXPECT_TRUE(a.connected());
    EXPECT_NO_THROW(a.validate());

    std::vector<int> degree(12, 0);
    for (const TrunkDecl &t : a.trunks) {
        ++degree[static_cast<std::size_t>(t.a)];
        ++degree[static_cast<std::size_t>(t.b)];
    }
    for (int deg : degree)
        EXPECT_EQ(deg, 3);
}

// ----- parser: the good path ----------------------------------------

TEST(TopoFileTest, ParsesExplicitFabric)
{
    TopologyDescription d = parseTopology("# demo\n"
                                          "nectar-topo v1\n"
                                          "fabric demo\n"
                                          "ports 20\n"
                                          "hub left\n"
                                          "hub right   # comment\n"
                                          "\n"
                                          "trunk left.19 right.18 "
                                          "latency=500 width=2\n"
                                          "cab c0 left.0\n"
                                          "cab - right.0 latency=80\n"
                                          "end\n");
    EXPECT_EQ(d.name, "demo");
    EXPECT_EQ(d.hubPorts, 20);
    ASSERT_EQ(d.numHubs(), 2);
    ASSERT_EQ(d.trunks.size(), 1u);
    EXPECT_EQ(d.trunks[0], (TrunkDecl{0, 19, 1, 18, 500, 2}));
    ASSERT_EQ(d.cabs.size(), 2u);
    EXPECT_EQ(d.cabs[0], (CabDecl{"c0", 0, 0, 0}));
    EXPECT_EQ(d.cabs[1], (CabDecl{"", 1, 0, 80}));
}

TEST(TopoFileTest, GenerateDirectiveEqualsGeneratorCall)
{
    TopologyDescription parsed =
        parseTopology("nectar-topo v1\n"
                      "fabric big\n"
                      "ports 20\n"
                      "generate mesh2d rows=4 cols=4 cabs=13\n"
                      "end\n");
    TopologyDescription direct = describeMesh2D(4, 4, 13, 0, 20);
    direct.name = "big"; // fabric line overrides the generated name
    EXPECT_EQ(parsed, direct);

    EXPECT_EQ(parseTopology("nectar-topo v1\n"
                            "generate fattree spines=2 leaves=4 "
                            "cabs=3\n"
                            "end\n"),
              describeFatTree(2, 4, 3));
    EXPECT_EQ(parseTopology("nectar-topo v1\n"
                            "generate random seed=5 hubs=10 degree=3 "
                            "cabs=1\n"
                            "end\n"),
              describeRandomRegular(5, 10, 3, 1));
}

TEST(TopoFileTest, FormatRoundTripsEveryGenerator)
{
    const TopologyDescription cases[] = {
        describeMesh2D(3, 4, 2, 500),
        describeTorus2D(3, 3, 1),
        describeFatTree(2, 4, 3, 0, 20),
        describeRandomRegular(11, 10, 4, 2),
    };
    for (const TopologyDescription &d : cases)
        EXPECT_EQ(parseTopology(formatTopology(d)), d) << d.name;

    // describeSingleHub leaves its HUB anonymous; the writer renders
    // the derived name, so the text (not the struct) is the fixpoint.
    std::string text = formatTopology(describeSingleHub(8));
    EXPECT_EQ(formatTopology(parseTopology(text)), text);
}

TEST(TopoFileTest, RoundTripKeepsOptionsAndAnonymousCabs)
{
    TopologyDescription d;
    d.name = "opts";
    d.hubPorts = 24;
    d.hubs = {HubDecl{"a"}, HubDecl{"b"}};
    d.trunks = {TrunkDecl{0, 23, 1, 22, 1250, 4}};
    d.cabs = {CabDecl{"", 0, 0, 80}, CabDecl{"named", 1, 0, 0}};
    EXPECT_EQ(parseTopology(formatTopology(d)), d);
}

TEST(TopoFileTest, SaveLoadThroughFile)
{
    TopologyDescription d = describeTorus2D(4, 4, 2);
    std::string path = testing::TempDir() + "topo_roundtrip.topo";
    saveTopologyFile(d, path);
    EXPECT_EQ(loadTopologyFile(path), d);
}

TEST(TopoFileTest, CheckedInMeshFileEqualsGenerator)
{
    // examples/fabrics/mesh4x4.topo spells the 4x4 mesh out by hand;
    // it must stay exactly the fabric the generator emits.
    EXPECT_EQ(loadTopologyFile(std::string(NECTAR_FABRIC_DIR) +
                               "/mesh4x4.topo"),
              describeMesh2D(4, 4, 2));
}

TEST(TopoFileTest, CheckedInFabric16IsTheAcceptanceFabric)
{
    TopologyDescription d = loadTopologyFile(
        std::string(NECTAR_FABRIC_DIR) + "/fabric16.topo");
    EXPECT_EQ(d.numHubs(), 16);
    EXPECT_GE(d.cabs.size(), 200u);
    EXPECT_TRUE(d.connected());

    TopologyDescription gen = describeMesh2D(4, 4, 13, 0, 20);
    gen.name = "fabric16";
    EXPECT_EQ(d, gen);
}

// ----- parser: the malformed corpus ---------------------------------

TEST(TopoFileTest, MalformedInputIsFatal)
{
    const char *corpus[] = {
        // structure
        "",
        "hub a\n",                           // no header
        "nectar-topo v2\nend\n",             // unsupported version
        "nectar-topo\nend\n",                // malformed header
        "nectar-topo v1\n",                  // missing end (truncated)
        "nectar-topo v1\nhub a\n",           // ditto, with a body
        "nectar-topo v1\nend\nhub a\n",      // content after end
        "nectar-topo v1\nend now\n",         // end takes no args
        "nectar-topo v1\nbogus x\nend\n",    // unknown keyword
        // fabric / ports
        "nectar-topo v1\nfabric a\nfabric b\nend\n",
        "nectar-topo v1\nfabric\nend\n",
        "nectar-topo v1\nports 8\nports 8\nend\n",
        "nectar-topo v1\nports 0\nend\n",
        "nectar-topo v1\nports 257\nend\n",
        "nectar-topo v1\nports many\nend\n",
        // hubs
        "nectar-topo v1\nhub a\nhub a\nend\n",  // duplicate
        "nectar-topo v1\nhub\nend\n",           // missing name
        // trunks
        "nectar-topo v1\nhub a\ntrunk a.15\nend\n",
        "nectar-topo v1\nhub a\nhub b\ntrunk a.15 c.14\nend\n",
        "nectar-topo v1\nhub a\nhub b\ntrunk a15 b.14\nend\n",
        "nectar-topo v1\nhub a\nhub b\ntrunk a.x b.14\nend\n",
        "nectar-topo v1\nhub a\nhub b\ntrunk a.15 b.14 speed=2\nend\n",
        "nectar-topo v1\nhub a\nhub b\n"
        "trunk a.15 b.14 latency=1 latency=2\nend\n",
        "nectar-topo v1\nhub a\nhub b\ntrunk a.15 b.14 width=0\nend\n",
        // validate() failures surfacing through the parser
        "nectar-topo v1\nhub a\ntrunk a.15 a.14\nend\n", // self-trunk
        "nectar-topo v1\nhub a\nhub b\n"
        "trunk a.15 b.15\ncab c a.15\nend\n",            // collision
        "nectar-topo v1\nhub a\ncab c a.16\nend\n",      // port range
        // cabs
        "nectar-topo v1\nhub a\ncab c\nend\n",
        "nectar-topo v1\nhub a\ncab c b.0\nend\n",
        "nectar-topo v1\nhub a\ncab c a.0 width=2\nend\n",
        // generate
        "nectar-topo v1\ngenerate\nend\n",
        "nectar-topo v1\ngenerate donut rows=2 cols=2\nend\n",
        "nectar-topo v1\ngenerate mesh2d cols=2\nend\n",
        "nectar-topo v1\ngenerate mesh2d rows=2 cols=2 hubs=4\nend\n",
        "nectar-topo v1\ngenerate random hubs=10 degree=1\nend\n",
        "nectar-topo v1\nhub a\ngenerate mesh2d rows=2 cols=2\nend\n",
        "nectar-topo v1\ngenerate mesh2d rows=2 cols=2\nhub a\nend\n",
    };
    for (const char *text : corpus)
        EXPECT_THROW(parseTopology(text), sim::FatalError)
            << "accepted: <<<" << text << ">>>";

    EXPECT_THROW(loadTopologyFile(testing::TempDir() +
                                  "topo_does_not_exist.topo"),
                 sim::FatalError);
}

TEST(TopoFileTest, ParseErrorsCarryTheLineNumber)
{
    auto expectLine = [](const std::string &text,
                         const std::string &where) {
        try {
            parseTopology(text);
            FAIL() << "parse succeeded";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(where),
                      std::string::npos)
                << e.what();
        }
    };
    expectLine("nectar-topo v1\nhub a\nbogus\nend\n", "line 3");
    // 19 digits: past the 2^60 bound, and past INT64_MAX once
    // multiplied — rejected on its line, not wrapped negative.
    expectLine("nectar-topo v1\nhub a\nhub b\n"
               "trunk a.0 b.0 latency=9999999999999999999\nend\n",
               "line 4: latency out of range");
    // Fields stored as int are bounded to int: a cast would wrap
    // these to port 0, width 1, 2 rows, 16 ports and 1 CAB.
    expectLine("nectar-topo v1\nhub a\nhub b\n"
               "trunk a.4294967296 b.1\nend\n",
               "line 4: port out of range");
    expectLine("nectar-topo v1\nhub a\nhub b\n"
               "trunk a.0 b.1 width=4294967297\nend\n",
               "line 4: width out of range");
    expectLine("nectar-topo v1\n"
               "generate mesh2d rows=4294967298 cols=2\nend\n",
               "line 2: rows out of range");
    expectLine("nectar-topo v1\nports 4294967312\nend\n",
               "line 2: port count out of range");
    expectLine("nectar-topo v1\n"
               "generate mesh2d rows=1 cols=1 cabs=4294967297\nend\n",
               "line 2: cabs out of range");
    // In range but oversized: rejected before a HUB or CAB is built.
    expectLine("nectar-topo v1\n"
               "generate mesh2d rows=65536 cols=65536\nend\n",
               "line 2: mesh generator: more than 256 HUBs");
    expectLine("nectar-topo v1\n"
               "generate random hubs=2000000000 degree=4\nend\n",
               "line 2: describeRandomRegular: more than 256 HUBs");
    expectLine("nectar-topo v1\n"
               "generate mesh2d rows=1 cols=1 cabs=2000000000\nend\n",
               "line 2: mesh generator: more CABs than ports");
    expectLine("nectar-topo v1\ngenerate fattree spines=2147483647 "
               "leaves=1 cabs=2147483647\nend\n",
               "line 2: describeFatTree: leaf needs");
}
