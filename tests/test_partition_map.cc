/**
 * @file
 * The partition map over the real tree: the machine-readable
 * component-isolation contract.
 *
 * Three properties are load-bearing and tested here rather than in
 * the lint corpus: the whole-tree access graph is clean (no
 * unannotated D6/D7/D8 anywhere under src/), the fabric16 partition
 * map has zero cross-cluster direct-mutation edges (the `ctest -L
 * analysis` gate asserts the same through the CLI), and generating
 * the map twice yields byte-identical JSON — a build artifact that
 * changes without a source change is useless for diffing.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph.hh"
#include "lint.hh"
#include "topo/topofile.hh"

namespace fs = std::filesystem;

namespace {

std::vector<nectar::lint::SourceFile>
readTree()
{
    std::vector<nectar::lint::SourceFile> files;
    for (const auto &e :
         fs::recursive_directory_iterator(NECTAR_SRC_DIR)) {
        if (!e.is_regular_file())
            continue;
        std::string ext = e.path().extension().string();
        if (ext != ".cc" && ext != ".hh")
            continue;
        std::ifstream in(e.path(), std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        files.push_back({e.path().string(), ss.str()});
    }
    EXPECT_GT(files.size(), 50u);
    return files;
}

nectar::lint::TopoSummary
loadFabric16()
{
    auto d = nectar::topo::loadTopologyFile(
        std::string(NECTAR_FABRIC_DIR) + "/fabric16.topo");
    nectar::lint::TopoSummary s;
    s.name = d.name;
    for (int h = 0; h < d.numHubs(); ++h)
        s.hubs.push_back(d.hubNameAt(h));
    int n = 0;
    for (const auto &c : d.cabs) {
        s.cabs.emplace_back(c.name.empty()
                                ? "cab" + std::to_string(n)
                                : c.name,
                            c.hub);
        ++n;
    }
    for (const auto &t : d.trunks)
        s.trunks.emplace_back(t.a, t.b);
    return s;
}

} // namespace

TEST(PartitionMap, TreeHasNoUnannotatedGraphFindings)
{
    auto g = nectar::lint::analyzeGraph(readTree());
    for (const auto &f : g.findings)
        ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule
                      << "] " << f.message;
    // The per-file rules (including D7 global state) must be clean
    // too: the partition map is only trustworthy if nothing under
    // src/ escapes the component graph.
    for (const auto &src : readTree())
        for (const auto &f :
             nectar::lint::lintSource(src.path, src.text))
            ADD_FAILURE() << f.file << ":" << f.line << " ["
                          << f.rule << "] " << f.message;
}

TEST(PartitionMap, TreeGraphShapeIsSane)
{
    auto g = nectar::lint::analyzeGraph(readTree());
    // The Component closure covers the core of the simulator.
    for (const char *c : {"Cab", "Kernel", "Datalink", "Transport",
                          "Hub", "IoPort", "FiberLink", "FiberSink"})
        EXPECT_EQ(g.components.count(c), 1u) << c;
    EXPECT_TRUE(g.components.at("FiberSink").interface);
    EXPECT_EQ(g.components.at("Hub").role, "hub");
    EXPECT_EQ(g.components.at("FiberLink").role, "wire");
    EXPECT_EQ(g.components.at("Transport").role, "site");

    // Every edge is classified, and every wire-crossing mutation is
    // mediated: the component-isolation property itself.
    ASSERT_GT(g.edges.size(), 50u);
    for (const auto &e : g.edges) {
        EXPECT_NE(e.kind, "direct-mutation")
            << e.from << " -> " << e.to << "::" << e.member << " at "
            << e.file << ":" << e.line;
        if (e.mutation && g.components.at(e.to).role == "wire") {
            EXPECT_EQ(e.kind, "mediated")
                << e.from << " -> " << e.to << "::" << e.member;
        }
    }
}

TEST(PartitionMap, Fabric16MapIsByteDeterministic)
{
    nectar::lint::GraphOptions opts;
    auto topo = loadFabric16();
    auto j1 = nectar::lint::graphJson(
        nectar::lint::analyzeGraph(readTree(), opts), opts, &topo);
    auto j2 = nectar::lint::graphJson(
        nectar::lint::analyzeGraph(readTree(), opts), opts, &topo);
    EXPECT_EQ(j1, j2);
}

TEST(PartitionMap, Fabric16ClustersAndGate)
{
    auto topo = loadFabric16();
    ASSERT_EQ(topo.hubs.size(), 16u);
    ASSERT_EQ(topo.cabs.size(), 208u);
    ASSERT_EQ(topo.trunks.size(), 24u);

    nectar::lint::GraphOptions opts;
    auto json = nectar::lint::graphJson(
        nectar::lint::analyzeGraph(readTree(), opts), opts, &topo);
    // 16 clusters of 13 CABs each, and the gate list is empty.
    EXPECT_NE(json.find("\"name\": \"fabric16\""), std::string::npos);
    std::size_t clusters = 0;
    for (std::size_t p = json.find("{\"id\": ");
         p != std::string::npos; p = json.find("{\"id\": ", p + 1))
        ++clusters;
    EXPECT_EQ(clusters, 16u);
    EXPECT_NE(json.find("\"crossClusterDirectEdges\": []"),
              std::string::npos)
        << "cross-cluster direct-mutation edges present";
}
