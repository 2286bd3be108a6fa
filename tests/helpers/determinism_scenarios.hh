/**
 * @file
 * The canonical determinism scenarios, shared between the same-seed
 * reproducibility harness (test_determinism.cc) and the
 * golden-fingerprint test (test_golden_fingerprint.cc).
 *
 * Each scenario is a compact replica of a tier-1 benchmark workload
 * (the E9 packet pipeline and the C1/C2 collectives from bench/, the
 * latter also over multi-HUB fabrics) and returns the event-trace
 * Trace of one run — the rolling FNV-1a hash the EventQueue folds
 * over (when, priority, sequence) of every executed event, plus the
 * executed count and end-of-sim tick.  Keeping the scenarios in one
 * header means the reproducibility and golden tests can never drift
 * apart.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "collectives/communicator.hh"
#include "collectives/group.hh"
#include "nectarine/nectarine.hh"
#include "node/node.hh"
#include "sim/coro.hh"
#include "topo/description.hh"
#include "topo/topofile.hh"
#include "workload/allreduce.hh"

// nectar-lint-file: capture-ok test frames drive eq.run() to
// completion before any captured locals leave scope

namespace nectar::testutil {

/** What one scenario run looked like, trace-wise. */
struct Trace
{
    std::uint64_t fingerprint = 0;
    std::uint64_t executed = 0;
    sim::Tick end = 0;

    bool
    operator==(const Trace &o) const
    {
        return fingerprint == o.fingerprint && executed == o.executed &&
               end == o.end;
    }
};

/** E9 replica: pipelined node-to-node transfer over one HUB. */
inline Trace
packetPipelineOnce(std::uint32_t totalBytes)
{
    using sim::Task;

    sim::copyStats().reset();
    sim::EventQueue eq;
    auto sys = nectarine::NectarSystem::singleHub(eq, 2);
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
    return Trace{eq.fingerprint(), eq.executedCount(), eq.now()};
}

/** C1 replica: broadcast to a group over hardware multicast. */
inline Trace
broadcastOnce(int members, std::uint32_t bytes)
{
    using nectarine::TaskContext;
    using sim::Task;

    sim::EventQueue eq;
    auto sys = nectarine::NectarSystem::singleHub(eq, members);
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
    return Trace{eq.fingerprint(), eq.executedCount(), eq.now()};
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
    sim::simAssert(w.report().okMembers == members,
                   "allreduce scenario must complete on all members");
    return Trace{eq.fingerprint(), eq.executedCount(), eq.now()};
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

} // namespace nectar::testutil
