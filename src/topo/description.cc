#include "topo/description.hh"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace nectar::topo {

int
TopologyDescription::effectivePorts() const
{
    return hubPorts > 0 ? hubPorts : sim::proto::hubPorts;
}

int
TopologyDescription::hubIndexByName(const std::string &n) const
{
    for (int i = 0; i < numHubs(); ++i)
        if (hubNameAt(i) == n)
            return i;
    return -1;
}

std::string
TopologyDescription::hubNameAt(int i) const
{
    const std::string &n = hubs[static_cast<std::size_t>(i)].name;
    return n.empty() ? "hub" + std::to_string(i) : n;
}

void
TopologyDescription::validate() const
{
    auto bad = [this](const std::string &what) {
        sim::fatal("TopologyDescription '" + name + "': " + what);
    };

    if (numHubs() > maxHubs)
        bad("more than 256 HUBs (addresses are 8-bit)");
    const int ports = effectivePorts();
    if (hubPorts < 0)
        bad("negative hub port count");

    std::set<std::string> names;
    for (int i = 0; i < numHubs(); ++i) {
        if (!names.insert(hubNameAt(i)).second)
            bad("duplicate HUB name '" + hubNameAt(i) + "'");
    }

    // One owner per (hub, port): trunks and CABs share the port space
    // because HUB-HUB and CAB-HUB ports are identical hardware.
    std::set<std::pair<int, hub::PortId>> used;
    auto claim = [&](int h, hub::PortId p, const std::string &who) {
        if (h < 0 || h >= numHubs())
            bad(who + " names HUB index " + std::to_string(h) +
                " out of range");
        if (p < 0 || p >= ports)
            bad(who + " names port " + std::to_string(p) +
                " out of range on " + hubNameAt(h));
        if (!used.insert({h, p}).second)
            bad(who + " reuses port " + std::to_string(p) + " on " +
                hubNameAt(h));
    };

    for (std::size_t t = 0; t < trunks.size(); ++t) {
        const TrunkDecl &tr = trunks[t];
        std::string who = "trunk " + std::to_string(t);
        if (tr.a == tr.b)
            bad(who + " is a self-trunk");
        if (tr.latency < 0)
            bad(who + " has negative latency");
        if (tr.width < 1)
            bad(who + " has width < 1");
        claim(tr.a, tr.pa, who);
        claim(tr.b, tr.pb, who);
    }
    std::set<std::string> cabNames;
    for (std::size_t c = 0; c < cabs.size(); ++c) {
        const CabDecl &cd = cabs[c];
        std::string who = "cab " + std::to_string(c);
        if (cd.latency < 0)
            bad(who + " has negative latency");
        if (!cd.name.empty() && !cabNames.insert(cd.name).second)
            bad("duplicate CAB name '" + cd.name + "'");
        claim(cd.hub, cd.port, who);
    }
}

bool
TopologyDescription::connected() const
{
    if (numHubs() <= 1)
        return true;
    std::vector<std::vector<int>> adj(
        static_cast<std::size_t>(numHubs()));
    for (const TrunkDecl &t : trunks) {
        adj[static_cast<std::size_t>(t.a)].push_back(t.b);
        adj[static_cast<std::size_t>(t.b)].push_back(t.a);
    }
    std::vector<bool> seen(static_cast<std::size_t>(numHubs()), false);
    std::vector<int> stack{0};
    seen[0] = true;
    int visited = 1;
    while (!stack.empty()) {
        int h = stack.back();
        stack.pop_back();
        for (int n : adj[static_cast<std::size_t>(h)]) {
            if (!seen[static_cast<std::size_t>(n)]) {
                seen[static_cast<std::size_t>(n)] = true;
                ++visited;
                stack.push_back(n);
            }
        }
    }
    return visited == numHubs();
}

// ----- Generators ---------------------------------------------------

TopologyDescription
describeSingleHub(int cabs, int hubPorts)
{
    TopologyDescription d;
    d.name = "single";
    d.hubPorts = hubPorts;
    d.hubs.push_back(HubDecl{});
    if (cabs > d.effectivePorts())
        sim::fatal("describeSingleHub: more CABs than ports");
    for (int c = 0; c < cabs; ++c)
        d.cabs.push_back(CabDecl{"", 0, c, 0});
    return d;
}

namespace {

/** Grid index helper, kept local so this layer stays below
 *  topology.hh (which exposes the same formula as meshHubIndex). */
int
gridIndex(int row, int col, int cols)
{
    return row * cols + col;
}

/**
 * The shared mesh/torus skeleton: hubs named hub_r<r>c<c>, east/south
 * trunks in row-major order (the order fingerprint tests pin), then
 * the torus wraps, then the CABs.
 */
TopologyDescription
describeGrid(const std::string &name, int rows, int cols,
             int cabsPerHub, sim::Tick delay, int hubPorts, bool wrap)
{
    if (rows < 1 || cols < 1)
        sim::fatal(name + " generator: dimensions must be positive");
    if (std::int64_t{rows} * cols > TopologyDescription::maxHubs)
        sim::fatal(name + " generator: more than 256 HUBs");

    TopologyDescription d;
    d.name = name + std::to_string(rows) + "x" + std::to_string(cols);
    d.hubPorts = hubPorts;
    const int ports = d.effectivePorts();
    if (cabsPerHub > ports)
        sim::fatal(name + " generator: more CABs than ports");
    if (ports < 5 && rows * cols > 1)
        sim::fatal(name + " generator: need at least 5 ports per HUB");
    if (cabsPerHub > ports - 4 && rows * cols > 1)
        sim::fatal(name + " generator: mesh trunks need 4 ports "
                          "per HUB");

    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            d.hubs.push_back(HubDecl{"hub_r" + std::to_string(r) +
                                     "c" + std::to_string(c)});

    const int east = ports - 4;
    const int west = ports - 3;
    const int south = ports - 2;
    const int north = ports - 1;

    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            int here = gridIndex(r, c, cols);
            if (c + 1 < cols)
                d.trunks.push_back(
                    TrunkDecl{here, east,
                              gridIndex(r, c + 1, cols), west,
                              delay, 1});
            if (r + 1 < rows)
                d.trunks.push_back(
                    TrunkDecl{here, south,
                              gridIndex(r + 1, c, cols), north,
                              delay, 1});
        }
    }
    if (wrap) {
        // Row wraps: last column's east back to column 0's west.
        if (cols >= 2)
            for (int r = 0; r < rows; ++r)
                d.trunks.push_back(
                    TrunkDecl{gridIndex(r, cols - 1, cols), east,
                              gridIndex(r, 0, cols), west, delay,
                              1});
        // Column wraps: last row's south back to row 0's north.
        if (rows >= 2)
            for (int c = 0; c < cols; ++c)
                d.trunks.push_back(
                    TrunkDecl{gridIndex(rows - 1, c, cols), south,
                              gridIndex(0, c, cols), north, delay,
                              1});
    }
    for (int h = 0; h < rows * cols; ++h)
        for (int c = 0; c < cabsPerHub; ++c)
            d.cabs.push_back(CabDecl{"", h, c, 0});
    return d;
}

} // namespace

TopologyDescription
describeMesh2D(int rows, int cols, int cabsPerHub,
               sim::Tick interHubDelay, int hubPorts)
{
    return describeGrid("mesh", rows, cols, cabsPerHub, interHubDelay,
                        hubPorts, /*wrap=*/false);
}

TopologyDescription
describeTorus2D(int rows, int cols, int cabsPerHub,
                sim::Tick interHubDelay, int hubPorts)
{
    return describeGrid("torus", rows, cols, cabsPerHub, interHubDelay,
                        hubPorts, /*wrap=*/true);
}

TopologyDescription
describeFatTree(int spines, int leaves, int cabsPerLeaf,
                sim::Tick interHubDelay, int hubPorts)
{
    if (spines < 1 || leaves < 1)
        sim::fatal("describeFatTree: need at least one spine and "
                   "one leaf");

    TopologyDescription d;
    d.name = "fattree" + std::to_string(spines) + "x" +
             std::to_string(leaves);
    d.hubPorts = hubPorts;
    const int ports = d.effectivePorts();
    if (leaves > ports)
        sim::fatal("describeFatTree: more leaves than spine ports");
    if (std::int64_t{cabsPerLeaf} + spines > ports)
        sim::fatal("describeFatTree: leaf needs cabsPerLeaf + spines "
                   "ports");

    // Spines first so leaf l is hub spines + l.
    for (int s = 0; s < spines; ++s)
        d.hubs.push_back(HubDecl{"spine" + std::to_string(s)});
    for (int l = 0; l < leaves; ++l)
        d.hubs.push_back(HubDecl{"leaf" + std::to_string(l)});

    for (int l = 0; l < leaves; ++l)
        for (int s = 0; s < spines; ++s)
            d.trunks.push_back(TrunkDecl{spines + l, ports - 1 - s, s,
                                         l, interHubDelay, 1});

    for (int l = 0; l < leaves; ++l)
        for (int c = 0; c < cabsPerLeaf; ++c)
            d.cabs.push_back(CabDecl{"", spines + l, c, 0});
    return d;
}

TopologyDescription
describeRandomRegular(std::uint64_t seed, int hubs, int degree,
                      int cabsPerHub, sim::Tick interHubDelay,
                      int hubPorts)
{
    if (hubs < 2 || degree < 2)
        sim::fatal("describeRandomRegular: need hubs >= 2 and "
                   "degree >= 2");
    if (hubs > TopologyDescription::maxHubs)
        sim::fatal("describeRandomRegular: more than 256 HUBs");
    if (std::int64_t{hubs} * degree % 2 != 0)
        sim::fatal("describeRandomRegular: hubs * degree must be "
                   "even");
    if (degree >= hubs)
        sim::fatal("describeRandomRegular: degree must be < hubs");

    TopologyDescription d;
    d.name = "rr" + std::to_string(hubs) + "d" +
             std::to_string(degree) + "s" + std::to_string(seed);
    d.hubPorts = hubPorts;
    const int ports = d.effectivePorts();
    if (std::int64_t{cabsPerHub} + degree > ports)
        sim::fatal("describeRandomRegular: cabsPerHub + degree "
                   "exceeds ports");

    for (int h = 0; h < hubs; ++h)
        d.hubs.push_back(HubDecl{"rr" + std::to_string(h)});

    // Pairing (configuration) model with whole-shuffle rejection:
    // deterministic in the seed, retried on self-loops, parallel
    // edges, or a disconnected result.  Regular graphs of degree >= 2
    // are almost surely connected, so a handful of attempts suffices.
    sim::Random rng(seed, /*stream=*/0x726567756c6172ull);
    std::vector<std::pair<int, int>> edges;
    for (int attempt = 0; attempt < 256; ++attempt) {
        std::vector<int> stubs;
        stubs.reserve(static_cast<std::size_t>(hubs * degree));
        for (int h = 0; h < hubs; ++h)
            for (int k = 0; k < degree; ++k)
                stubs.push_back(h);
        // Fisher-Yates with the seeded generator.
        for (std::size_t i = stubs.size(); i > 1; --i)
            std::swap(stubs[i - 1],
                      stubs[rng.below(static_cast<std::uint32_t>(i))]);

        edges.clear();
        std::set<std::pair<int, int>> seen;
        bool ok = true;
        for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
            int a = stubs[i], b = stubs[i + 1];
            if (a == b) {
                ok = false;
                break;
            }
            auto key = std::minmax(a, b);
            if (!seen.insert({key.first, key.second}).second) {
                ok = false;
                break;
            }
            edges.emplace_back(a, b);
        }
        if (!ok)
            continue;

        // Connectivity check on the candidate edge set.
        std::vector<std::vector<int>> adj(
            static_cast<std::size_t>(hubs));
        for (auto [a, b] : edges) {
            adj[static_cast<std::size_t>(a)].push_back(b);
            adj[static_cast<std::size_t>(b)].push_back(a);
        }
        std::vector<bool> vis(static_cast<std::size_t>(hubs), false);
        std::vector<int> stack{0};
        vis[0] = true;
        int count = 1;
        while (!stack.empty()) {
            int h = stack.back();
            stack.pop_back();
            for (int n : adj[static_cast<std::size_t>(h)])
                if (!vis[static_cast<std::size_t>(n)]) {
                    vis[static_cast<std::size_t>(n)] = true;
                    ++count;
                    stack.push_back(n);
                }
        }
        if (count == hubs)
            break;
        edges.clear();
    }
    if (edges.empty())
        sim::fatal("describeRandomRegular: could not build a "
                   "connected pairing (seed " + std::to_string(seed) +
                   ")");

    // Trunks occupy the highest ports, handed down per hub in edge
    // order; CABs take the lowest ports.
    std::vector<int> nextPort(static_cast<std::size_t>(hubs),
                              ports - 1);
    for (auto [a, b] : edges) {
        int pa = nextPort[static_cast<std::size_t>(a)]--;
        int pb = nextPort[static_cast<std::size_t>(b)]--;
        d.trunks.push_back(TrunkDecl{a, pa, b, pb, interHubDelay, 1});
    }
    for (int h = 0; h < hubs; ++h)
        for (int c = 0; c < cabsPerHub; ++c)
            d.cabs.push_back(CabDecl{"", h, c, 0});
    return d;
}

} // namespace nectar::topo
