/**
 * @file
 * E18 — fabric-scale routing: the cost of compiling up*-down* route
 * tables, per-route lookup against the historical BFS-per-call
 * router, and a fabric-spanning allreduce against the single-HUB
 * baseline.
 *
 *  - F1: RouteTable::compile wall time over fabric families and
 *        sizes (the price paid once per linkVersion bump),
 *  - F2: compiled path() lookup vs an equivalent of the BFS the old
 *        router ran on every route() call,
 *  - F3: a 32-member allreduce on the checked-in 16-HUB / 208-CAB
 *        fabric vs the same group on one HUB (simulated latency —
 *        what the fabric's extra trunk hops actually cost).
 *
 * Every row lands in BENCH_fabric.json (sim::Report) with the same
 * user counters the console prints, for downstream tooling.
 */

// nectar-lint-file: wallclock-ok this harness measures real compile
// and lookup wall time; steady_clock never feeds sim state

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "nectarine/nectarine.hh"
#include "sim/report.hh"
#include "topo/description.hh"
#include "topo/route_table.hh"
#include "topo/topofile.hh"
#include "workload/allreduce.hh"

using namespace nectar;
using namespace nectar::topo;

#ifndef NECTAR_FABRIC_DIR
#define NECTAR_FABRIC_DIR "examples/fabrics"
#endif

namespace {

sim::Report report("fabric");

/** Record one benchmark's user counters as the row "<op>/<fabric>". */
void
recordRun(const benchmark::State &state, const std::string &op,
          const std::string &fabric)
{
    report.record(op + "/" + fabric, {{"op", op}, {"fabric", fabric}})
        .metricsFrom(state.counters);
}

TopologyDescription
fabricFor(const std::string &kind, int n)
{
    if (kind == "mesh")
        return describeMesh2D(n, n, 0);
    if (kind == "torus")
        return describeTorus2D(n, n, 0);
    if (kind == "random")
        return describeRandomRegular(7, n * n, 4, 0, 0, 24);
    return describeFatTree(n, 2 * n, 0, 0, 4 * n);
}

/**
 * The historical router, preserved for comparison: one full BFS over
 * the live links per route() call, path reconstructed dest-first.
 * This is exactly the work every route() used to redo.
 */
bool
legacyBfsPath(const FabricGraph &g, int from, int to,
              std::vector<RouteTable::PathHop> &hops)
{
    hops.clear();
    if (from == to)
        return true;
    std::vector<std::pair<int, hub::PortId>> prev(
        static_cast<std::size_t>(g.numHubs()), {-1, hub::noPort});
    std::vector<bool> seen(static_cast<std::size_t>(g.numHubs()));
    std::vector<int> queue{from};
    seen[static_cast<std::size_t>(from)] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        int h = queue[head];
        if (h == to)
            break;
        for (const auto &a : g.adjacencyOf(h)) {
            if (!g.linkUp(a.linkIndex) ||
                seen[static_cast<std::size_t>(a.neighbor)])
                continue;
            seen[static_cast<std::size_t>(a.neighbor)] = true;
            prev[static_cast<std::size_t>(a.neighbor)] = {h, a.myPort};
            queue.push_back(a.neighbor);
        }
    }
    if (!seen[static_cast<std::size_t>(to)])
        return false;
    for (int at = to; at != from;) {
        auto [p, port] = prev[static_cast<std::size_t>(at)];
        hops.push_back(RouteTable::PathHop{p, port});
        at = p;
    }
    std::reverse(hops.begin(), hops.end());
    return true;
}

// ----- F1: route-table compile time ---------------------------------

/** Wall-clock microseconds per call of @p fn: the median over nine
 *  batches of @p iters calls, so one slow stretch of the host does
 *  not become the recorded figure. */
template <typename Fn>
double
timeUs(int iters, Fn &&fn)
{
    std::array<double, 9> batchUs{};
    for (double &us : batchUs) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            fn();
        auto t1 = std::chrono::steady_clock::now();
        us = std::chrono::duration<double, std::micro>(t1 - t0)
                 .count() /
             iters;
    }
    auto mid = batchUs.begin() + batchUs.size() / 2;
    std::nth_element(batchUs.begin(), mid, batchUs.end());
    return *mid;
}

void
F1_RouteCompile(benchmark::State &state, const std::string &kind)
{
    int n = static_cast<int>(state.range(0));
    TopologyDescription d = fabricFor(kind, n);
    FabricGraph g = FabricGraph::ofDescription(d);
    RouteTable t;
    for (auto _ : state)
        t = RouteTable::compile(g);
    double usPerCompile =
        timeUs(50, [&] { benchmark::DoNotOptimize(
                             t = RouteTable::compile(g)); });
    state.counters["hubs"] = g.numHubs();
    state.counters["links"] = g.numLinks();
    state.counters["restricted_sources"] = t.restrictedSources();
    state.counters["compile_us"] = usPerCompile;
    recordRun(state, "route_compile", kind + std::to_string(g.numHubs()));
}
BENCHMARK_CAPTURE(F1_RouteCompile, mesh, "mesh")
    ->Arg(2)->Arg(4)->Arg(8)->ArgName("n");
BENCHMARK_CAPTURE(F1_RouteCompile, torus, "torus")
    ->Arg(4)->Arg(8)->ArgName("n");
BENCHMARK_CAPTURE(F1_RouteCompile, random, "random")
    ->Arg(4)->Arg(8)->ArgName("n");

// ----- F2: per-route lookup vs the historical BFS -------------------

void
F2_RouteLookup(benchmark::State &state)
{
    // A 16-HUB torus: big enough that the BFS frontier costs, small
    // enough that lookup overhead isn't lost in cache misses.
    FabricGraph g =
        FabricGraph::ofDescription(describeTorus2D(4, 4, 0));
    RouteTable t = RouteTable::compile(g);
    std::vector<RouteTable::PathHop> hops;
    int pair = 0;
    bool table = state.range(0) == 0;
    for (auto _ : state) {
        int from = pair % 16;
        int to = (pair * 7 + 5) % 16;
        pair = (pair + 1) % 997;
        bool ok = table ? t.path(from, to, hops)
                        : legacyBfsPath(g, from, to, hops);
        benchmark::DoNotOptimize(ok);
        benchmark::DoNotOptimize(hops.data());
    }
    int probe = 0;
    double nsPerRoute =
        1e3 * timeUs(20000, [&] {
            int from = probe % 16;
            int to = (probe * 7 + 5) % 16;
            probe = (probe + 1) % 997;
            benchmark::DoNotOptimize(
                table ? t.path(from, to, hops)
                      : legacyBfsPath(g, from, to, hops));
        });
    state.counters["hubs"] = 16;
    state.counters["ns_per_route"] = nsPerRoute;
    recordRun(state, "route_lookup", table ? "table" : "bfs");
}
BENCHMARK(F2_RouteLookup)
    ->Arg(0)->Arg(1)->ArgName("legacy");

// ----- F3: fabric vs single-HUB allreduce ---------------------------

workload::AllreduceReport
allreduceOn(bool fabric, int members)
{
    sim::EventQueue eq;
    std::unique_ptr<nectarine::NectarSystem> sys;
    if (fabric) {
        sys = nectarine::NectarSystem::fromTopoFile(
            eq, std::string(NECTAR_FABRIC_DIR) + "/fabric16.topo");
    } else {
        // A 33-port HUB so the whole group fits on one crossbar
        // (the paper's "128 x 128 crossbars are possible" scale-up).
        hub::HubConfig big = nectarine::NectarSystem::defaultHubConfig();
        big.numPorts = members + 1;
        sys = nectarine::NectarSystem::singleHub(eq, members, {}, big);
    }
    nectarine::Nectarine api(*sys);
    collective::GroupDirectory groups;
    workload::AllreduceConfig cfg;
    cfg.members = members;
    cfg.bytes = 4096;
    cfg.rounds = 2;
    std::vector<std::size_t> sites;
    for (std::size_t i = 0; i < static_cast<std::size_t>(members);
         ++i)
        sites.push_back(fabric ? i * sys->siteCount() /
                                     static_cast<std::size_t>(members)
                               : i);
    workload::AllreduceWorkload w(api, groups, sites, cfg);
    eq.run();
    return w.report();
}

void
F3_FabricAllreduce(benchmark::State &state)
{
    bool fabric = state.range(0) == 1;
    const int members = 32;
    workload::AllreduceReport rep;
    for (auto _ : state)
        rep = allreduceOn(fabric, members);
    double perOpUs =
        static_cast<double>(rep.lastFinish) / 2 /* rounds */ / 1e3;
    state.counters["latency_us"] = perOpUs;
    state.counters["ok_members"] = rep.okMembers;
    recordRun(state, "allreduce32", fabric ? "fabric16" : "single_hub");
}
BENCHMARK(F3_FabricAllreduce)
    ->Arg(0)->Arg(1)->ArgName("fabric");

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Acceptance summary: the fabric allreduce completes with every
    // member ok whenever it ran.
    const auto *f3 = report.find("allreduce32/fabric16");
    report.setFlag("fabric_allreduce_all_ok",
                   !f3 || f3->metrics.at("ok_members") == 32);
    return report.write("BENCH_fabric.json") ? 0 : 1;
}
