/**
 * @file
 * The component access-graph pass: whole-tree component-isolation
 * analysis.
 *
 * The simulator's components are meant to interact only through the
 * fiber chokepoints, as the hardware they model does: a HUB/CAB
 * cluster never mutates another cluster's state through a direct
 * synchronous call that bypasses the event queue.  This pass makes
 * the property mechanical:
 *
 *  - Pass 1 indexes every class in the tree (fields, methods,
 *    accessors, inheritance) and computes the sim::Component closure;
 *    each component is assigned a co-location role from the layer its
 *    file lives in (site = cab/cabos/datalink/transport/node/inet/
 *    baseline/nectarine, hub = hub, wire = phys, engine = sim).  A
 *    partition is a HUB plus its CABs, so components sharing a
 *    role are co-located by construction (a CAB's datalink never
 *    touches another CAB's board), while cross-role edges are exactly
 *    the ones that may cross a partition boundary.
 *
 *  - Pass 2 scans every member-function body (inline and out-of-line)
 *    of a component class, resolves receiver chains like
 *    `_kernel.board().cpu().chargeThen(...)` through fields, locals,
 *    parameters and accessors, and classifies every inter-component
 *    edge:
 *
 *      owned            target is inside the source's ownership
 *                       aggregate (value / unique_ptr fields), so it
 *                       can never be split across partitions;
 *      mediated         the call lands on a sanctioned mediated
 *                       surface (FiberLink::send/sendStolen,
 *                       FiberSink::fiberDeliver — the wire
 *                       chokepoints that already serialize through
 *                       the event queue), or carries a `mediated-ok`
 *                       annotation;
 *      co-located       same role, hence same partition;
 *      read             const access: no state crosses;
 *      direct-mutation  none of the above — rule D6;
 *      foreign-ref      a pointer/reference to another component's
 *                       internals stored in a field — rule D8.
 *
 * Rules emitted here:
 *
 *  - D6  direct cross-component state mutation off the mediated-call
 *        allowlist (annotation tag: mediated-ok);
 *  - D8  foreign references to another component's internals stored
 *        in fields and retained across ticks (chains of two or more
 *        segments through a component; whole-component wiring like
 *        `tx = &link` is the datalink of the graph itself and passes)
 *        (annotation tag: foreign-ref-ok).
 *
 * graphJson() serializes the result deterministically (sorted maps,
 * no pointers or timestamps) as partition_map.json, the
 * component-isolation contract in machine-readable form.  With a
 * TopoSummary attached, the JSON additionally lists the runtime
 * clusters (each HUB plus its CABs) and the cross-cluster
 * direct-mutation edges — the list the `ctest -L analysis` gate
 * asserts is empty.
 */

#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.hh"

namespace nectar::lint {

/** One data member of an indexed class. */
struct FieldInfo
{
    enum Kind { value, ref, ptr, unique, vecUnique };

    std::string name;
    std::string type; ///< Bare class name, "" when not indexed.
    Kind kind = value;
};

/** One member function of an indexed class. */
struct MethodInfo
{
    std::string name;
    bool isConst = false;
    bool isPublic = false;
    /** Bare name of the returned class when indexed, else "". */
    std::string returnsType;
};

/** One indexed class (component, interface, or plain aggregate). */
struct ClassInfo
{
    std::string name;      ///< Bare class name.
    std::string qualified; ///< With enclosing namespaces when known.
    std::string file;
    int line = 0;
    std::vector<std::string> bases; ///< Bare base-class names.
    std::vector<FieldInfo> fields;
    std::vector<MethodInfo> methods;
    bool component = false; ///< In the sim::Component closure.
    bool interface = false; ///< Non-component base of a component.
    std::string role;       ///< site | hub | wire | engine | control.
};

/** One classified inter-component access edge. */
struct AccessEdge
{
    std::string from;   ///< Source component class.
    std::string to;     ///< Target component class.
    std::string via;    ///< First chain segment (field/accessor).
    std::string member; ///< Member accessed on the target.
    std::string kind;   ///< owned | mediated | co-located | read |
                        ///< direct-mutation | foreign-ref.
    bool mutation = false;
    bool annotated = false; ///< Sanctioned by an annotation.
    std::string file;
    int line = 0;
};

/** Graph-pass configuration. */
struct GraphOptions
{
    /**
     * Sanctioned mediated-call surfaces, as (class, method) pairs.
     * Matching considers the receiver class and its bases.  The
     * defaults are the wire chokepoints: everything crossing a fiber
     * is serialized through the event queue by FiberLink.
     */
    std::vector<std::pair<std::string, std::string>>
        mediatedAllowlist = {
            {"FiberLink", "send"},
            {"FiberLink", "sendStolen"},
            {"FiberSink", "fiberDeliver"},
        };

    /**
     * Layer directory (the segment after "src/") to co-location
     * role.  Unlisted directories map to "control".
     */
    std::map<std::string, std::string> roleOfDir = {
        {"cab", "site"},       {"cabos", "site"},
        {"datalink", "site"},  {"transport", "site"},
        {"node", "site"},      {"inet", "site"},
        {"baseline", "site"},  {"nectarine", "site"},
        {"hub", "hub"},        {"phys", "wire"},
        {"sim", "engine"},
    };
};

/** One input file for the analysis. */
struct SourceFile
{
    std::string path;
    std::string text;
};

/** Result of the two-pass analysis. */
struct GraphResult
{
    /** Graph nodes: components and their interfaces, by bare name. */
    std::map<std::string, ClassInfo> components;
    /** All classified edges, sorted for determinism. */
    std::vector<AccessEdge> edges;
    /** D6/D8 findings surviving annotation suppression, sorted. */
    std::vector<Finding> findings;
};

/** Run both passes over @p files (typically everything under src/). */
GraphResult analyzeGraph(const std::vector<SourceFile> &files,
                         const GraphOptions &opts = {});

/**
 * Loaded-topology summary for the partition map, kept free of topo
 * types so nectar_lint_core stays standalone; the CLI converts a
 * topo::TopologyDescription into one.
 */
struct TopoSummary
{
    std::string name;
    std::vector<std::string> hubs;
    /** (cab name, owning hub index). */
    std::vector<std::pair<std::string, int>> cabs;
    /** (hub a, hub b) trunk endpoints. */
    std::vector<std::pair<int, int>> trunks;
};

/**
 * Serialize @p g as partition_map.json: byte-deterministic for a
 * given input set (sorted keys, no pointers, no timestamps).  With
 * @p topo, adds the runtime clusters (one per HUB) and the
 * cross-cluster direct-mutation edge list the analysis gate asserts
 * is empty.
 */
std::string graphJson(const GraphResult &g, const GraphOptions &opts,
                      const TopoSummary *topo = nullptr);

} // namespace nectar::lint
