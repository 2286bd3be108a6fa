/**
 * @file
 * The canonical determinism scenarios, shared between the same-seed
 * reproducibility harness (test_determinism.cc) and the
 * golden-fingerprint test (test_golden_fingerprint.cc).
 *
 * Each scenario is a compact replica of a tier-1 benchmark workload
 * (the E9 packet pipeline and the C1/C2 collectives from bench/, the
 * latter also over multi-HUB fabrics) and returns the Trace of one
 * run.  A Trace holds two kinds of fingerprint.  The event trace is
 * the rolling FNV-1a hash the EventQueue folds over (when, priority,
 * sequence) of every executed event, plus the executed count; it
 * changes whenever a model fires a different set of events.  The
 * behaviour digest (helpers/behaviour_probe.hh) folds only what the
 * simulated system did — deliveries, the end tick, every HUB,
 * datalink and transport counter, the allreduce report — and stays
 * put when a change fires fewer events to simulate the same thing.
 * Keeping the scenarios in one header means the reproducibility and
 * golden tests can never drift apart.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "behaviour_probe.hh"
#include "collectives/communicator.hh"
#include "collectives/group.hh"
#include "nectarine/nectarine.hh"
#include "node/node.hh"
#include "serving/serving.hh"
#include "sim/coro.hh"
#include "sim/random.hh"
#include "topo/description.hh"
#include "topo/topofile.hh"
#include "workload/allreduce.hh"

// nectar-lint-file: capture-ok test frames drive eq.run() to
// completion before any captured locals leave scope

namespace nectar::testutil {

/** What one scenario run looked like. */
struct Trace
{
    // The event trace.
    std::uint64_t fingerprint = 0;
    std::uint64_t executed = 0;
    sim::Tick end = 0;

    // Behaviour: the BehaviourProbe digest, and a few of the values
    // it covers, readable in a failing pin.
    std::uint64_t behaviour = 0;
    std::uint64_t reportFp = 0; ///< AllreduceReport; 0 if none.
    std::uint64_t stuckDrops = 0;  ///< Summed over every HUB.
    std::uint64_t opensFailed = 0; ///< Summed over every HUB.
    std::uint64_t cmdAbandons = 0; ///< Summed over every HUB.
    std::uint64_t readyRearms = 0; ///< Summed over every HUB.
    std::uint64_t readyTimeouts = 0; ///< Summed over every datalink.

    bool operator==(const Trace &) const = default;
};

/**
 * The Trace of a finished run of @p sys; @p reportFp (0 if the
 * scenario has no report) is folded into the behaviour digest.
 */
inline Trace
traceOf(nectarine::NectarSystem &sys, BehaviourProbe &probe,
        std::uint64_t reportFp = 0)
{
    sim::EventQueue &eq = sys.eventq();
    Trace t;
    t.fingerprint = eq.fingerprint();
    t.executed = eq.executedCount();
    t.end = eq.now();
    if (reportFp != 0)
        probe.mix(reportFp);
    t.behaviour = probe.finish();
    t.reportFp = reportFp;
    for (int i = 0; i < sys.topo().numHubs(); ++i) {
        const hub::HubStats &s = sys.topo().hubAt(i).stats();
        t.stuckDrops += s.stuckDrops.value();
        t.opensFailed += s.opensFailed.value();
        t.cmdAbandons += s.cmdAbandons.value();
        t.readyRearms += s.readyRearms.value();
    }
    for (std::size_t i = 0; i < sys.siteCount(); ++i)
        t.readyTimeouts +=
            sys.site(i).datalink->stats().readyTimeouts.value();
    return t;
}

/** E9 replica: pipelined node-to-node transfer over one HUB. */
inline Trace
packetPipelineOnce(std::uint32_t totalBytes)
{
    using sim::Task;

    sim::copyStats().reset();
    sim::EventQueue eq;
    auto sys = nectarine::NectarSystem::singleHub(eq, 2);
    BehaviourProbe probe(*sys);
    node::Node src(eq, "src"), dst(eq, "dst");
    auto &mb = sys->site(1).kernel->createMailbox("in", 2 << 20, 10);

    const std::uint32_t chunk = 896;
    sim::spawn([](cabos::Mailbox &mb, node::Node &dst,
                  std::uint32_t total) -> Task<void> {
        std::uint32_t got = 0;
        while (got < total) {
            auto m = co_await mb.get();
            got += static_cast<std::uint32_t>(m.size());
            co_await dst.vme().transferAwait(
                static_cast<std::uint32_t>(m.size()));
        }
    }(mb, dst, totalBytes));

    sim::spawn([](sim::EventQueue &eq, node::Node &src,
                  transport::Transport &tp, std::uint32_t total,
                  std::uint32_t chunk) -> Task<void> {
        std::uint32_t sent = 0;
        sim::Channel<bool> window(eq);
        int inflight = 0;
        while (sent < total) {
            std::uint32_t n = std::min(chunk, total - sent);
            sent += n;
            co_await src.vme().transferAwait(n);
            ++inflight;
            sim::spawn([](transport::Transport &tp, std::uint32_t n,
                          sim::Channel<bool> &window,
                          int &inflight) -> Task<void> {
                co_await tp.sendReliable(
                    2, 10, std::vector<std::uint8_t>(n, 1));
                --inflight;
                window.push(true);
            }(tp, n, window, inflight));
            while (inflight >= 4)
                co_await window.pop();
        }
        while (inflight > 0)
            co_await window.pop();
    }(eq, src, *sys->site(0).transport, totalBytes, chunk));

    eq.run();
    return traceOf(*sys, probe);
}

/** C1 replica: broadcast to a group over hardware multicast. */
inline Trace
broadcastOnce(int members, std::uint32_t bytes)
{
    using nectarine::TaskContext;
    using sim::Task;

    sim::EventQueue eq;
    auto sys = nectarine::NectarSystem::singleHub(eq, members);
    BehaviourProbe probe(*sys);
    nectarine::Nectarine api(*sys);
    collective::GroupDirectory groups;
    auto gid = std::make_shared<collective::GroupId>(0);
    auto *groupsp = &groups;
    std::vector<nectarine::TaskId> ids;
    for (int r = 0; r < members; ++r) {
        ids.push_back(api.createTask(
            static_cast<std::size_t>(r), "bc" + std::to_string(r),
            [gid, groupsp, bytes](TaskContext &ctx) -> Task<void> {
                collective::Communicator comm(ctx, *groupsp, *gid,
                                              {});
                std::vector<std::uint8_t> data;
                if (comm.rank() == 0)
                    data.assign(bytes, 0xAB);
                co_await comm.broadcast(0, data);
            }));
    }
    *gid = groups.create("bcast", ids);
    eq.run();
    return traceOf(*sys, probe);
}

/**
 * Allreduce over the fabric @p desc from the default builder, with
 * member i on site i * sites / members: on a multi-HUB fabric the
 * members spread over every HUB and each round crosses trunk fibers.
 */
inline Trace
meshAllreduceOnce(const topo::TopologyDescription &desc, int members,
                  std::uint32_t bytes, int rounds)
{
    sim::EventQueue eq;
    auto sys = nectarine::NectarSystem::fromDescription(eq, desc);
    BehaviourProbe probe(*sys);
    nectarine::Nectarine api(*sys);
    collective::GroupDirectory groups;
    workload::AllreduceConfig cfg;
    cfg.members = members;
    cfg.bytes = bytes;
    cfg.rounds = rounds;
    std::vector<std::size_t> sites;
    for (int i = 0; i < members; ++i)
        sites.push_back(static_cast<std::size_t>(i) * sys->siteCount() /
                        static_cast<std::size_t>(members));
    workload::AllreduceWorkload w(api, groups, sites, cfg);
    eq.run();
    const workload::AllreduceReport report = w.report();
    sim::simAssert(report.okMembers == members,
                   "allreduce scenario must complete on all members");
    return traceOf(*sys, probe, report.fingerprint);
}

/** C2 replica: a short allreduce over one HUB, one member per CAB. */
inline Trace
allreduceOnce(int members, std::uint32_t bytes, int rounds)
{
    return meshAllreduceOnce(
        topo::describeSingleHub(
            members,
            nectarine::NectarSystem::defaultHubConfig().numPorts),
        members, bytes, rounds);
}

/** The 2x2 HUB mesh with one CAB per HUB. */
inline topo::TopologyDescription
mesh2x2()
{
    return topo::describeMesh2D(
        2, 2, 1, 0, nectarine::NectarSystem::defaultHubConfig().numPorts);
}

/** The checked-in 16-HUB / 208-CAB fabric (needs NECTAR_FABRIC_DIR). */
inline topo::TopologyDescription
fabric16()
{
    return topo::loadTopologyFile(std::string(NECTAR_FABRIC_DIR) +
                                  "/fabric16.topo");
}

/**
 * Cabling drawn from @p seed as nectar-bench draws it: every CAB
 * attachment fiber 0-500 ns long, every trunk 0-2000 ns.  Uneven
 * fibers spread same-tick arrivals apart, which is what lets
 * contended outcomes depend on the model's ordering.
 */
inline topo::TopologyDescription
withSeededCabling(topo::TopologyDescription desc, std::uint64_t seed)
{
    sim::Random rng(seed, 0x66696272);
    for (topo::CabDecl &cab : desc.cabs)
        cab.latency = rng.below(500 + 1);
    for (topo::TrunkDecl &trunk : desc.trunks)
        trunk.latency = rng.below(2000 + 1);
    return desc;
}

/**
 * The contended pin: allreduce-fabric16 (32 members, 2 KB) cut to 4
 * rounds, on seed 1's cabling.  Its HUBs fail thousands of opens per
 * round, the regime the benchmarks spend their time in.
 */
inline Trace
contendedFabric16AllreduceOnce()
{
    return meshAllreduceOnce(withSeededCabling(fabric16(), 1), 32, 2048,
                             4);
}

/**
 * E15's worst row: a 16-member, 16 KB allreduce over one HUB, four
 * rounds, on the hardware multicast tree (bench_collectives C2).
 */
inline Trace
hwTreeAllreduceOnce()
{
    return allreduceOnce(16, 16384, 4);
}

/**
 * A serving rung past the knee: the S1 ladder's top rung on fabric16
 * (272 k rps offered, E19's request stream and 100 us of server
 * compute), with seed 1's cabling as nectar-bench draws it and 3 ms
 * of arrivals instead of 10.
 */
inline Trace
servingPastKneeOnce()
{
    sim::EventQueue eq;
    auto sys = nectarine::NectarSystem::fromDescription(
        eq, withSeededCabling(fabric16(), 1));
    BehaviourProbe probe(*sys);
    serving::ServingConfig cfg;
    cfg.flows = 1'000'000;
    cfg.serverCompute = 100 * sim::ticks::us;
    cfg.duration = 3 * sim::ticks::ms;
    cfg.seed = 42;
    // The ladder's seventh rung, multiplied up as runSweep does.
    cfg.offeredRps = 8'000;
    for (int i = 0; i < 6; ++i)
        cfg.offeredRps *= 1.8;
    serving::ServingWorkload w(*sys, cfg);
    eq.run();
    const serving::ServingReport r = w.report();
    sim::Digest report;
    for (std::uint64_t v :
         {r.arrivals, r.issued, r.completed, r.failed, r.shed,
          r.peakFlowTable, static_cast<std::uint64_t>(r.lastDoneAt)})
        report.mix(v);
    sim::simAssert(r.completed > 0, "serving scenario must complete");
    return traceOf(*sys, probe, report.value());
}

} // namespace nectar::testutil
