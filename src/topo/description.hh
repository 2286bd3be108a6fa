/**
 * @file
 * Declarative fabric descriptions: HUBs, trunk links, CAB attachments.
 *
 * Section 2 of the paper: HUB clusters connect "in any topology
 * appropriate to the application environment".  A TopologyDescription
 * is that topology as *data* — a list of HUB declarations, inter-HUB
 * trunk links with per-link latency and width, and CAB attachment
 * points — so a fabric can be loaded from a file (topofile.hh),
 * emitted by a generator (mesh, torus, fat tree, random regular), or
 * written by hand, and then built into a live Topology and
 * nectarine::System without any topology-specific code.
 *
 * Builders create HUBs, trunks, and CABs in exactly the declared
 * order, so a description-built system is event-for-event identical
 * to one assembled by the equivalent imperative calls.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hub/hub.hh"
#include "sim/types.hh"

namespace nectar::topo {

/** One declared HUB.  Its index in the hub list is its address. */
struct HubDecl
{
    std::string name; ///< "" derives hub<index> at build time.

    bool operator==(const HubDecl &) const = default;
};

/** One inter-HUB trunk: a bidirectional fiber pair. */
struct TrunkDecl
{
    int a = -1;                   ///< HUB index of the first end.
    hub::PortId pa = hub::noPort; ///< ... and its port.
    int b = -1;                   ///< HUB index of the second end.
    hub::PortId pb = hub::noPort; ///< ... and its port.
    sim::Tick latency = 0;        ///< One-way propagation delay (ns).
    int width = 1;                ///< Bonded fiber lanes (>= 1): the
                                  ///< trunk serializes bytes width
                                  ///< times faster than a single TAXI.

    bool operator==(const TrunkDecl &) const = default;
};

/** One CAB attachment point. */
struct CabDecl
{
    std::string name;             ///< "" derives cab<N> at build time.
    int hub = -1;                 ///< HUB index it attaches to.
    hub::PortId port = hub::noPort;
    sim::Tick latency = 0;        ///< Attachment fiber delay (ns).

    bool operator==(const CabDecl &) const = default;
};

/**
 * A complete declarative fabric.
 *
 * validate() enforces the structural rules a builder relies on; a
 * valid description always builds.  Connectivity is *not* required
 * here (partitioned fabrics are legal and route() returns empty
 * across partitions, as with failed links) — generators always emit
 * connected fabrics, and tests assert it where it matters.
 */
struct TopologyDescription
{
    /** HUB addresses are 8-bit. */
    static constexpr int maxHubs = 256;

    std::string name = "fabric";
    /** Ports per HUB; 0 uses the HubConfig default (16). */
    int hubPorts = 0;
    std::vector<HubDecl> hubs;
    std::vector<TrunkDecl> trunks;
    std::vector<CabDecl> cabs;

    bool operator==(const TopologyDescription &) const = default;

    int numHubs() const { return static_cast<int>(hubs.size()); }

    /** Effective ports per HUB after defaulting. */
    int effectivePorts() const;

    /** Index of the HUB named @p n, or -1. */
    int hubIndexByName(const std::string &n) const;

    /** The name HUB @p i builds with ("" declared derives hub<i>). */
    std::string hubNameAt(int i) const;

    /**
     * Fatal on any structural error: bad indices, port collisions
     * (trunk-trunk, trunk-cab, cab-cab), ports out of range,
     * self-trunks, duplicate non-empty names, more than 256 HUBs,
     * width < 1, or negative latency.
     */
    void validate() const;

    /** True if the trunk graph connects every HUB (ignores CABs). */
    bool connected() const;
};

// ----- Generators ---------------------------------------------------
//
// Each generator returns a plain TopologyDescription — the same data
// a .topo file parses to — so generated and hand-written fabrics are
// interchangeable and a generator's output can be written to a file
// and read back identically (topofile.hh round-trips them).

/** A single-HUB star (Figure 2) with @p cabs CABs on ports [0,cabs). */
TopologyDescription describeSingleHub(int cabs, int hubPorts = 0);

/**
 * A rows x cols 2-D mesh (Figure 4).  Inter-HUB trunks use the four
 * highest ports (east, west, south, north); CABs fill ports
 * [0, cabsPerHub) on every HUB.  The trunk order (row-major, east
 * before south) is the one the golden fingerprint tests pin.
 */
TopologyDescription describeMesh2D(int rows, int cols, int cabsPerHub,
                                   sim::Tick interHubDelay = 0,
                                   int hubPorts = 0);

/**
 * A rows x cols 2-D torus: the mesh plus row/column wrap trunks on
 * the same east/west/south/north ports.  A dimension of length < 2
 * gets no wrap (it would be a self-trunk).
 */
TopologyDescription describeTorus2D(int rows, int cols, int cabsPerHub,
                                    sim::Tick interHubDelay = 0,
                                    int hubPorts = 0);

/**
 * A two-level fat tree: @p spines spine HUBs, @p leaves leaf HUBs,
 * every leaf trunked to every spine.  Leaf uplink s rides port
 * numPorts-1-s; spine port l faces leaf l; CABs fill leaf ports
 * [0, cabsPerLeaf).  Spines carry no CABs.
 */
TopologyDescription describeFatTree(int spines, int leaves,
                                    int cabsPerLeaf,
                                    sim::Tick interHubDelay = 0,
                                    int hubPorts = 0);

/**
 * A seeded random @p degree-regular connected graph of @p hubs HUBs
 * (pairing model with rejection; deterministic in @p seed).  Trunks
 * occupy the highest ports, CABs the lowest @p cabsPerHub.
 * hubs * degree must be even; degree >= 2 keeps connectivity
 * reachable.
 */
TopologyDescription describeRandomRegular(std::uint64_t seed, int hubs,
                                          int degree, int cabsPerHub,
                                          sim::Tick interHubDelay = 0,
                                          int hubPorts = 0);

} // namespace nectar::topo
