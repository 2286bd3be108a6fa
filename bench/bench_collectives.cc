/**
 * @file
 * C1-C3 — collective operations over HUB hardware multicast.
 *
 * The HUB's command set makes one-to-many connections a hardware
 * primitive (Section 4.2.2: "multicast trees can be formed");
 * the collectives subsystem builds broadcast/reduce/allreduce/barrier
 * on top of it.  These benchmarks measure:
 *
 *  - C1: broadcast latency vs group size, hardware multicast tree
 *        against per-member unicast fan-out,
 *  - C2: allreduce latency/bandwidth scaling over group size and
 *        message size on both fabric paths,
 *  - C3: allreduce under a chaos plan that crashes a member
 *        mid-operation — must resolve via timeout + group epoch bump,
 *        never hang.
 *
 * Every row also lands in BENCH_collectives.json (sim::Report, written
 * by main) with the same user counters the console prints, so
 * downstream tooling can consume the results without scraping.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "collectives/communicator.hh"
#include "collectives/group.hh"
#include "fault/chaos.hh"
#include "fault/plan.hh"
#include "nectarine/nectarine.hh"
#include "sim/report.hh"
#include "workload/allreduce.hh"

using namespace nectar;
using nectarine::NectarSystem;
using nectarine::TaskContext;
using sim::Task;
using sim::Tick;
using namespace sim::ticks;

namespace {

const char *
pathName(collective::McastPath p)
{
    return p == collective::McastPath::unicast ? "unicast" : "hw";
}

sim::Report report("collectives");

/** Record one benchmark's row: its user counters plus the group
 *  shape, keyed "<op>/<members>/<bytes>/<path>". */
void
recordRun(const benchmark::State &state, const std::string &op,
          int members, int bytes, collective::McastPath path)
{
    const std::string p = pathName(path);
    auto &row = report.record(op + "/" + std::to_string(members) +
                                  "/" + std::to_string(bytes) + "/" +
                                  p,
                              {{"op", op}, {"path", p}});
    row.metricsFrom(state.counters);
    row.metrics["members"] = members;
    row.metrics["bytes"] = bytes;
}

// ----- C1: broadcast latency ----------------------------------------

struct BcastResult
{
    double latencyNs = 0;
    int okMembers = 0;
    double hwPackets = 0;
    double uniPackets = 0;
};

BcastResult
broadcastOnce(int members, std::uint32_t bytes,
              collective::McastPath path)
{
    sim::EventQueue eq;
    auto sys = NectarSystem::singleHub(eq, members);
    nectarine::Nectarine api(*sys);
    collective::GroupDirectory groups;
    auto gid = std::make_shared<collective::GroupId>(0);
    struct Shared
    {
        Tick t0 = 0;
        Tick lastDone = 0;
        int okMembers = 0;
    };
    auto sh = std::make_shared<Shared>();
    auto *groupsp = &groups;
    std::vector<nectarine::TaskId> ids;
    for (int r = 0; r < members; ++r) {
        ids.push_back(api.createTask(
            static_cast<std::size_t>(r), "bc" + std::to_string(r),
            [gid, sh, groupsp, bytes,
             path](TaskContext &ctx) -> Task<void> {
                collective::CommunicatorConfig cfg;
                cfg.path = path;
                collective::Communicator comm(ctx, *groupsp, *gid,
                                              cfg);
                std::vector<std::uint8_t> data;
                if (comm.rank() == 0) {
                    data.assign(bytes, 0xAB);
                    sh->t0 = ctx.now();
                }
                auto res = co_await comm.broadcast(0, data);
                if (res.ok && data.size() == bytes &&
                    data.front() == 0xAB)
                    ++sh->okMembers;
                sh->lastDone = std::max(sh->lastDone, ctx.now());
            }));
    }
    *gid = groups.create("bcast", ids);
    eq.run();
    BcastResult r;
    r.latencyNs = static_cast<double>(sh->lastDone - sh->t0);
    r.okMembers = sh->okMembers;
    const auto &st = sys->site(0).transport->stats();
    r.hwPackets = static_cast<double>(st.mcastHwPackets.value());
    r.uniPackets =
        static_cast<double>(st.mcastUnicastPackets.value());
    return r;
}

void
C1_Broadcast(benchmark::State &state)
{
    int members = static_cast<int>(state.range(0));
    auto bytes = static_cast<std::uint32_t>(state.range(1));
    auto path = state.range(2) ? collective::McastPath::unicast
                               : collective::McastPath::automatic;
    BcastResult r;
    for (auto _ : state)
        r = broadcastOnce(members, bytes, path);
    state.counters["latency_us"] = r.latencyNs / 1e3;
    state.counters["ok_members"] = r.okMembers;
    state.counters["hw_packets"] = r.hwPackets;
    state.counters["unicast_packets"] = r.uniPackets;
    recordRun(state, "broadcast", members, static_cast<int>(bytes),
              path);
}
BENCHMARK(C1_Broadcast)
    ->ArgsProduct({{2, 4, 8, 16}, {512}, {0, 1}})
    ->ArgNames({"members", "bytes", "path"});

// ----- C2: allreduce scaling ----------------------------------------

struct AllreduceRunResult
{
    workload::AllreduceReport report;
    double hwPackets = 0;
    double uniPackets = 0;
};

AllreduceRunResult
allreduceRun(int members, std::uint32_t bytes, int rounds,
             collective::McastPath path)
{
    sim::EventQueue eq;
    auto sys = NectarSystem::singleHub(eq, members);
    nectarine::Nectarine api(*sys);
    collective::GroupDirectory groups;
    workload::AllreduceConfig cfg;
    cfg.members = members;
    cfg.bytes = bytes;
    cfg.rounds = rounds;
    cfg.comm.path = path;
    std::vector<std::size_t> sites(static_cast<std::size_t>(members));
    for (int i = 0; i < members; ++i)
        sites[static_cast<std::size_t>(i)] =
            static_cast<std::size_t>(i);
    workload::AllreduceWorkload w(api, groups, sites, cfg);
    eq.run();
    AllreduceRunResult out;
    out.report = w.report();
    for (std::size_t i = 0; i < sys->siteCount(); ++i) {
        const auto &st = sys->site(i).transport->stats();
        out.hwPackets +=
            static_cast<double>(st.mcastHwPackets.value());
        out.uniPackets +=
            static_cast<double>(st.mcastUnicastPackets.value());
    }
    return out;
}

void
C2_Allreduce(benchmark::State &state)
{
    int members = static_cast<int>(state.range(0));
    auto bytes = static_cast<std::uint32_t>(state.range(1));
    auto path = state.range(2) ? collective::McastPath::unicast
                               : collective::McastPath::automatic;
    const int rounds = 4;
    AllreduceRunResult r;
    for (auto _ : state)
        r = allreduceRun(members, bytes, rounds, path);
    double perOpNs =
        static_cast<double>(r.report.lastFinish) / rounds;
    state.counters["latency_us"] = perOpNs / 1e3;
    state.counters["goodput_MBs"] =
        perOpNs > 0 ? static_cast<double>(bytes) * 1000.0 / perOpNs
                    : 0;
    state.counters["ok_members"] = r.report.okMembers;
    state.counters["wrong_members"] = r.report.wrongMembers;
    state.counters["fingerprint_lo"] = static_cast<double>(
        r.report.fingerprint & 0xFFFFFFFFull);
    state.counters["hw_packets"] = r.hwPackets;
    state.counters["unicast_packets"] = r.uniPackets;
    recordRun(state, "allreduce", members, static_cast<int>(bytes),
              path);
}
BENCHMARK(C2_Allreduce)
    ->ArgsProduct({{2, 4, 8, 16}, {256, 16384}, {0, 1}})
    ->ArgNames({"members", "bytes", "path"});

// ----- C3: member crash mid-allreduce -------------------------------

struct ChaosResult
{
    workload::AllreduceReport report;
    Tick endOfSim = 0;
    std::uint64_t epochBumps = 0;
};

ChaosResult
chaosRun(int members, collective::McastPath path)
{
    sim::EventQueue eq;
    // Tight recovery clocks so failure detection, not the default
    // conservative timeouts, dominates the benchmark.
    nectarine::SiteConfig site;
    site.transport.maxRetransmits = 4;
    site.transport.maxRto = 4 * ms;
    auto sys = NectarSystem::singleHub(eq, members, site);
    nectarine::Nectarine api(*sys);
    collective::GroupDirectory groups;
    workload::AllreduceConfig cfg;
    cfg.members = members;
    cfg.bytes = 16384;
    cfg.rounds = 3;
    cfg.comm.path = path;
    cfg.comm.opTimeout = 20 * ms;
    std::vector<std::size_t> sites(static_cast<std::size_t>(members));
    for (int i = 0; i < members; ++i)
        sites[static_cast<std::size_t>(i)] =
            static_cast<std::size_t>(i);
    workload::AllreduceWorkload w(api, groups, sites, cfg);
    fault::FaultPlan plan;
    plan.name = "member-crash";
    plan.cabCrash(1 * ms, members / 2);
    fault::ChaosController chaos(*sys, plan);
    eq.run();
    return ChaosResult{w.report(), eq.now(), groups.epochBumps()};
}

void
C3_AllreduceMemberCrash(benchmark::State &state)
{
    int members = static_cast<int>(state.range(0));
    auto path = state.range(1) ? collective::McastPath::unicast
                               : collective::McastPath::automatic;
    ChaosResult r;
    for (auto _ : state)
        r = chaosRun(members, path);
    // Resolution means: the run ended (no hang is implicit in getting
    // here), the epoch was bumped exactly once, and every member
    // observed an error rather than completing against a dead peer.
    bool resolved = r.epochBumps >= 1 &&
                    r.report.okMembers == 0 &&
                    r.report.errorMembers >= members - 1;
    state.counters["resolved"] = resolved ? 1 : 0;
    state.counters["resolve_ms"] =
        static_cast<double>(r.endOfSim) / 1e6;
    state.counters["epoch_bumps"] =
        static_cast<double>(r.epochBumps);
    recordRun(state, "allreduce_crash", members, 16384, path);
}
BENCHMARK(C3_AllreduceMemberCrash)
    ->ArgsProduct({{8}, {0, 1}})
    ->ArgNames({"members", "path"});

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Acceptance summary: hardware multicast broadcast must beat the
    // unicast fan-out for every measured group of at least 4.
    bool hwBeats = true, sawPair = false;
    for (const auto &[key, row] : report.rows()) {
        if (!key.starts_with("broadcast/") || !key.ends_with("/hw") ||
            row.metrics.at("members") < 4)
            continue;
        const auto *uni =
            report.find(key.substr(0, key.size() - 2) + "unicast");
        if (!uni)
            continue;
        sawPair = true;
        hwBeats = hwBeats && row.metrics.at("latency_us") <
                                 uni->metrics.at("latency_us");
    }
    report.setFlag("hw_beats_unicast_broadcast_ge4", sawPair && hwBeats);
    return report.write("BENCH_collectives.json") ? 0 : 1;
}
