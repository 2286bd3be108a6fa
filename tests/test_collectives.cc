/**
 * @file
 * Collectives subsystem tests: groups and epochs, reliable multicast
 * over the HUB hardware tree and its unicast fallback, tree
 * collectives (broadcast/reduce/allreduce/gather/barrier) across
 * group sizes, the host-side lane kernel, determinism, zero-copy, and
 * failure semantics under a chaos plan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "collectives/communicator.hh"
#include "collectives/group.hh"
#include "fault/chaos.hh"
#include "fault/plan.hh"
#include "nectarine/nectarine.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "workload/allreduce.hh"

using namespace nectar;
using collective::CollectiveError;
using collective::Communicator;
using collective::CommunicatorConfig;
using collective::GroupDirectory;
using collective::GroupId;
using collective::McastPath;
using collective::ReduceOp;
using nectarine::NectarSystem;
using nectarine::TaskContext;
using nectarine::TaskId;
using sim::Task;
using sim::Tick;
using namespace sim::ticks;

namespace {

/**
 * One-group harness: a single-HUB system with @p n member tasks, each
 * running @p body with a fresh Communicator on the shared group.
 */
struct Harness
{
    using Body = std::function<Task<void>(Communicator &,
                                          TaskContext &)>;

    sim::EventQueue eq;
    std::unique_ptr<NectarSystem> sys;
    std::unique_ptr<nectarine::Nectarine> api;
    GroupDirectory groups;
    std::shared_ptr<GroupId> gid = std::make_shared<GroupId>(0);

    explicit Harness(int n, const nectarine::SiteConfig &site = {})
    {
        sys = NectarSystem::singleHub(eq, n, site);
        api = std::make_unique<nectarine::Nectarine>(*sys);
    }

    void
    start(int n, CommunicatorConfig ccfg, Body body)
    {
        auto *groupsp = &groups;
        auto g = gid;
        std::vector<TaskId> ids;
        for (int r = 0; r < n; ++r)
            ids.push_back(api->createTask(
                static_cast<std::size_t>(r),
                "m" + std::to_string(r),
                [groupsp, g, ccfg, body](TaskContext &ctx)
                    -> Task<void> {
                    Communicator comm(ctx, *groupsp, *g, ccfg);
                    co_await body(comm, ctx);
                }));
        *gid = groups.create("g", ids);
    }

    void run() { eq.run(); }
};

std::vector<std::uint8_t>
pattern(std::uint32_t bytes, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(bytes);
    for (std::size_t j = 0; j < v.size(); ++j)
        v[j] = static_cast<std::uint8_t>(seed + j * 7);
    return v;
}

std::vector<std::uint8_t>
randomBytes(sim::Random &rng, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

/**
 * Host reference for the lane kernel, assembled byte by byte: @p acc
 * folded with @p in over whole big-endian 32-bit lanes, then the
 * size % 4 trailing bytes one at a time (sum wraps mod 2^8).
 */
std::vector<std::uint8_t>
foldReference(std::vector<std::uint8_t> acc,
              const std::vector<std::uint8_t> &in, ReduceOp op)
{
    auto combine = [op](std::uint32_t a, std::uint32_t b) {
        switch (op) {
        case ReduceOp::sum: return a + b;
        case ReduceOp::min: return std::min(a, b);
        case ReduceOp::max: return std::max(a, b);
        }
        return a;
    };
    const std::size_t whole = acc.size() - acc.size() % 4;
    for (std::size_t at = 0; at < whole; at += 4) {
        std::uint32_t a = 0, b = 0;
        for (std::size_t k = 0; k < 4; ++k) {
            a = (a << 8) | acc[at + k];
            b = (b << 8) | in[at + k];
        }
        const std::uint32_t v = combine(a, b);
        for (std::size_t k = 0; k < 4; ++k)
            acc[at + k] = static_cast<std::uint8_t>(v >> (24 - 8 * k));
    }
    for (std::size_t at = whole; at < acc.size(); ++at)
        acc[at] = static_cast<std::uint8_t>(combine(acc[at], in[at]));
    return acc;
}

/**
 * @p bytes as a view of up to three segments, cut at @p a and
 * @p a + @p b (empty pieces dropped).  Each piece sits @p a bytes into
 * a buffer of its own, so no two pieces coalesce and the segments
 * start at every alignment.
 */
sim::PacketView
splitView(const std::vector<std::uint8_t> &bytes, std::size_t a,
          std::size_t b)
{
    const std::size_t cuts[] = {0, std::min(a, bytes.size()),
                                std::min(a + b, bytes.size()),
                                bytes.size()};
    sim::PacketView view;
    for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
        if (cuts[i] == cuts[i + 1])
            continue;
        std::vector<std::uint8_t> backing(a);
        backing.insert(backing.end(),
                       bytes.begin() + static_cast<std::ptrdiff_t>(cuts[i]),
                       bytes.begin() +
                           static_cast<std::ptrdiff_t>(cuts[i + 1]));
        view.append(sim::PacketView(sim::Buffer::make(std::move(backing)),
                                    a, cuts[i + 1] - cuts[i]));
    }
    return view;
}

workload::AllreduceConfig
allreduceCfg(int members, std::uint32_t bytes, ReduceOp op,
             McastPath path)
{
    workload::AllreduceConfig cfg;
    cfg.members = members;
    cfg.bytes = bytes;
    cfg.op = op;
    cfg.comm.path = path;
    return cfg;
}

workload::AllreduceReport
runAllreduce(const workload::AllreduceConfig &cfg)
{
    sim::EventQueue eq;
    auto sys =
        NectarSystem::singleHub(eq, cfg.members);
    nectarine::Nectarine api(*sys);
    GroupDirectory groups;
    std::vector<std::size_t> sites(
        static_cast<std::size_t>(cfg.members));
    for (int i = 0; i < cfg.members; ++i)
        sites[static_cast<std::size_t>(i)] =
            static_cast<std::size_t>(i);
    workload::AllreduceWorkload w(api, groups, sites, cfg);
    eq.run();
    return w.report();
}

} // namespace

// ----- Group directory ----------------------------------------------

TEST(GroupDirectory, DeterministicIdsAndSortedRanks)
{
    GroupDirectory d;
    EXPECT_EQ(d.create("a"), 1u);
    TaskId t5{5, 0}, t2{2, 0}, t9{9, 1};
    GroupId g = d.create("b", {t9, t2, t5});
    EXPECT_EQ(g, 2u);
    // Ranks follow sorted TaskId order, not join order.
    EXPECT_EQ(d.rankOf(g, t2), 0);
    EXPECT_EQ(d.rankOf(g, t5), 1);
    EXPECT_EQ(d.rankOf(g, t9), 2);
    EXPECT_EQ(d.rankOf(g, TaskId{7, 7}), -1);
    EXPECT_EQ(d.lookup("b"), g);
    EXPECT_FALSE(d.lookup("zzz").has_value());
    EXPECT_EQ(GroupDirectory::groupMailboxId(g), 0x8000 + 2);
}

TEST(GroupDirectory, RejectsDuplicateAndSameCabMembers)
{
    GroupDirectory d;
    GroupId g = d.create("a", {TaskId{1, 0}});
    EXPECT_THROW(d.join(g, TaskId{1, 0}), sim::FatalError);
    // A second member on CAB 1 would share the group mailbox.
    EXPECT_THROW(d.join(g, TaskId{1, 1}), sim::FatalError);
}

TEST(GroupDirectory, EpochBumpsOncePerGeneration)
{
    GroupDirectory d;
    TaskId a{1, 0}, b{2, 0};
    GroupId g = d.create("a", {a, b});
    EXPECT_EQ(d.epoch(g), 1u);
    EXPECT_TRUE(d.reportFailure(g, 1, b));
    EXPECT_EQ(d.epoch(g), 2u);
    // A concurrent survivor reporting against the old epoch is a
    // no-op: the bump already happened.
    EXPECT_FALSE(d.reportFailure(g, 1, a));
    EXPECT_EQ(d.epoch(g), 2u);
    EXPECT_EQ(d.info(g).suspects, std::vector<TaskId>{b});
    EXPECT_EQ(d.epochBumps(), 1u);
}

// ----- Broadcast ----------------------------------------------------

TEST(Collectives, BroadcastDeliversToAllGroupSizes)
{
    for (int n : {2, 3, 8, 16}) {
        Harness h(n);
        auto want = pattern(600, 17);
        auto oks = std::make_shared<int>(0);
        h.start(n, {},
                [want, oks](Communicator &comm,
                            TaskContext &) -> Task<void> {
                    std::vector<std::uint8_t> data;
                    if (comm.rank() == 0)
                        data = want;
                    auto res = co_await comm.broadcast(0, data);
                    if (res.ok && data == want)
                        ++*oks;
                });
        h.run();
        EXPECT_EQ(*oks, n) << "group size " << n;
        if (n >= 3) {
            // On one HUB the tree always fits: the hardware path
            // must have carried the payload.
            EXPECT_GT(h.sys->site(0)
                          .transport->stats()
                          .mcastHwPackets.value(),
                      0u)
                << "group size " << n;
        }
    }
}

TEST(Collectives, BroadcastUnicastPathMatches)
{
    const int n = 8;
    Harness h(n);
    auto want = pattern(600, 23);
    auto oks = std::make_shared<int>(0);
    CommunicatorConfig ccfg;
    ccfg.path = McastPath::unicast;
    h.start(n, ccfg,
            [want, oks](Communicator &comm,
                        TaskContext &) -> Task<void> {
                std::vector<std::uint8_t> data;
                if (comm.rank() == 0)
                    data = want;
                auto res = co_await comm.broadcast(0, data);
                if (res.ok && data == want)
                    ++*oks;
            });
    h.run();
    EXPECT_EQ(*oks, n);
    EXPECT_EQ(
        h.sys->site(0).transport->stats().mcastHwPackets.value(),
        0u);
    EXPECT_GT(h.sys->site(0)
                  .transport->stats()
                  .mcastUnicastPackets.value(),
              0u);
}

// ----- Reduce -------------------------------------------------------

TEST(Collectives, ReduceSumMinMaxToNonZeroRoot)
{
    const int n = 8;
    const int root = 3;
    for (ReduceOp op :
         {ReduceOp::sum, ReduceOp::min, ReduceOp::max}) {
        Harness h(n);
        auto cfg = allreduceCfg(n, 64, op, McastPath::automatic);
        auto want = workload::AllreduceWorkload::expectedData(cfg, 0);
        auto oks = std::make_shared<int>(0);
        auto rootOk = std::make_shared<bool>(false);
        h.start(n, {},
                [cfg, want, oks, rootOk, root](
                    Communicator &comm, TaskContext &) -> Task<void> {
                    auto data = workload::AllreduceWorkload::
                        memberData(cfg, comm.rank(), 0);
                    auto mine = data;
                    auto res =
                        co_await comm.reduce(root, cfg.op, data);
                    if (res.ok)
                        ++*oks;
                    if (comm.rank() == root)
                        *rootOk = (data == want);
                    else if (data != mine)
                        *rootOk = false; // non-roots stay untouched
                });
        h.run();
        EXPECT_EQ(*oks, n);
        EXPECT_TRUE(*rootOk);
    }
}

// ----- Allreduce ----------------------------------------------------

TEST(Collectives, AllreduceAllGroupSizesBothPaths)
{
    // 256 B exercises recursive doubling; 8 KiB the bandwidth plans
    // (reduce-scatter + allgather on power-of-two groups, reduce +
    // broadcast elsewhere).  Every member must match the host-side
    // reduction for every op on both fabric paths, which also proves
    // the hardware and unicast paths produce identical values.
    for (int n : {2, 3, 8, 16}) {
        for (auto path : {McastPath::automatic, McastPath::unicast}) {
            for (std::uint32_t bytes : {256u, 8192u}) {
                for (ReduceOp op :
                     {ReduceOp::sum, ReduceOp::min, ReduceOp::max}) {
                    auto rep =
                        runAllreduce(allreduceCfg(n, bytes, op, path));
                    EXPECT_EQ(rep.okMembers, n)
                        << "n=" << n << " bytes=" << bytes << " path="
                        << (path == McastPath::unicast ? "uni" : "hw")
                        << " op=" << static_cast<int>(op);
                    EXPECT_EQ(rep.wrongMembers, 0);
                    EXPECT_EQ(rep.errorMembers, 0);
                    EXPECT_EQ(rep.finalEpoch, 1u);
                }
            }
        }
    }
}

TEST(Collectives, AllreduceOddSizeMatchesHostReduction)
{
    // 1023 B (size % 4 == 3) stays on recursive doubling, so every
    // exchange folds 255 whole lanes and three trailing bytes; five
    // members add the remainder's fold-in and fan-out steps.
    // AllreduceWorkload takes whole lanes only, hence the harness.
    const int n = 5;
    const std::size_t bytes = 1023;
    ASSERT_LE(bytes, CommunicatorConfig{}.recursiveDoublingMaxBytes);
    for (ReduceOp op : {ReduceOp::sum, ReduceOp::min, ReduceOp::max}) {
        sim::Random rng(static_cast<std::uint64_t>(op) + 11);
        auto inputs =
            std::make_shared<std::vector<std::vector<std::uint8_t>>>();
        for (int r = 0; r < n; ++r)
            inputs->push_back(randomBytes(rng, bytes));
        auto want = (*inputs)[0];
        for (int r = 1; r < n; ++r)
            want = foldReference(want, (*inputs)[r], op);

        Harness h(n);
        auto matches = std::make_shared<int>(0);
        h.start(n, {},
                [inputs, want, matches, op](
                    Communicator &comm, TaskContext &) -> Task<void> {
                    auto data =
                        (*inputs)[static_cast<std::size_t>(comm.rank())];
                    auto res = co_await comm.allreduce(op, data);
                    if (res.ok && data == want)
                        ++*matches;
                });
        h.run();
        EXPECT_EQ(*matches, n) << "op=" << static_cast<int>(op);
    }
}

// ----- Lane kernel --------------------------------------------------

TEST(Collectives, FoldLanesMatchesByteWiseReference)
{
    // Every size % 4, every phase of one or two segment cuts against
    // the lane grid (so lanes straddle one cut or both), all three
    // ops, random bytes.
    sim::Random rng(20);
    for (std::size_t size = 1; size <= 64; ++size) {
        for (ReduceOp op :
             {ReduceOp::sum, ReduceOp::min, ReduceOp::max}) {
            for (std::size_t a = 0; a < 8; ++a) {
                for (std::size_t b = 0; b < 8; ++b) {
                    auto acc = randomBytes(rng, size);
                    const auto in = randomBytes(rng, size);
                    const auto want = foldReference(acc, in, op);
                    const sim::PacketView view = splitView(in, a, b);
                    ASSERT_TRUE(view.equals(in));
                    collective::foldLanes(acc, view, op);
                    ASSERT_EQ(acc, want)
                        << "size=" << size
                        << " op=" << static_cast<int>(op) << " cuts at "
                        << a << " and " << a + b << " ("
                        << view.segmentCount() << " segments)";
                }
            }
        }
    }
}

TEST(Collectives, AllreduceDeterministicAcrossReruns)
{
    auto cfg = allreduceCfg(8, 4096, ReduceOp::sum,
                            McastPath::automatic);
    cfg.rounds = 2;
    auto a = runAllreduce(cfg);
    auto b = runAllreduce(cfg);
    ASSERT_EQ(a.okMembers, 8);
    ASSERT_EQ(b.okMembers, 8);
    EXPECT_NE(a.fingerprint, 0u);
    // Bit-identical across fresh runs: same results, same simulated
    // finish times.
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.lastFinish, b.lastFinish);
}

// ----- Gather -------------------------------------------------------

TEST(Collectives, GatherCollectsEveryContribution)
{
    const int n = 8;
    Harness h(n);
    auto out = std::make_shared<
        std::vector<std::vector<std::uint8_t>>>();
    auto oks = std::make_shared<int>(0);
    h.start(n, {},
            [out, oks](Communicator &comm,
                       TaskContext &) -> Task<void> {
                auto mine = pattern(
                    32, static_cast<std::uint8_t>(comm.rank() + 1));
                auto res = co_await comm.gather(
                    0, mine, comm.rank() == 0 ? out.get() : nullptr);
                if (res.ok)
                    ++*oks;
            });
    h.run();
    EXPECT_EQ(*oks, n);
    ASSERT_EQ(out->size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r)
        EXPECT_EQ((*out)[static_cast<std::size_t>(r)],
                  pattern(32, static_cast<std::uint8_t>(r + 1)))
            << "rank " << r;
}

// ----- Barrier ------------------------------------------------------

TEST(Collectives, BarrierHoldsUntilAllArrive)
{
    const int n = 8;
    Harness h(n);
    auto lastArrive = std::make_shared<Tick>(0);
    auto firstRelease = std::make_shared<Tick>(-1);
    auto oks = std::make_shared<int>(0);
    h.start(n, {},
            [lastArrive, firstRelease, oks](
                Communicator &comm, TaskContext &ctx) -> Task<void> {
                // Stagger arrivals so the barrier has something to
                // hold back.
                co_await ctx.sleepFor(comm.rank() * 500 * us);
                *lastArrive = std::max(*lastArrive, ctx.now());
                auto res = co_await comm.barrier();
                if (res.ok)
                    ++*oks;
                if (*firstRelease < 0)
                    *firstRelease = ctx.now();
                else
                    *firstRelease =
                        std::min(*firstRelease, ctx.now());
            });
    h.run();
    EXPECT_EQ(*oks, n);
    EXPECT_GE(*firstRelease, *lastArrive);
    EXPECT_GE(*lastArrive, (n - 1) * 500 * us);
}

// ----- Zero-copy ----------------------------------------------------

TEST(Collectives, BroadcastViewMaterializesNothing)
{
    const int n = 4;
    Harness h(n);
    const std::uint32_t bytes = 800; // single fragment
    auto oks = std::make_shared<int>(0);
    h.start(n, {},
            [oks, bytes](Communicator &comm,
                         TaskContext &) -> Task<void> {
                sim::PacketView io;
                if (comm.rank() == 0)
                    io = sim::PacketView(pattern(bytes, 3));
                auto res = co_await comm.broadcastView(0, io);
                // Register-style reads only: no materialization.
                if (res.ok && io.size() == bytes && io[1] == 10)
                    ++*oks;
            });
    sim::copyStats().reset();
    h.run();
    EXPECT_EQ(*oks, n);
    // The whole path — collective header, transport encode, wire,
    // reassembly, mailbox, receive — moved the payload by reference.
    EXPECT_EQ(sim::copyStats().bytesCopied, 0u);
}

// ----- Transport-level multicast machinery --------------------------

TEST(Collectives, MulticastSpilloverStraysAtTerminalCab)
{
    // Two-HUB tree with a terminal CAB on the sender's own HUB: the
    // open commands addressed to the far HUB travel through the
    // already-open terminal port (the Section 4.2.2 spillover path),
    // so the terminal CAB must count stray commands yet deliver the
    // payload exactly once.
    sim::EventQueue eq;
    auto sys = NectarSystem::mesh2D(eq, 1, 2, 2);
    ASSERT_EQ(sys->siteCount(), 4u);
    int sameHub = -1;
    std::vector<int> others;
    for (int i = 1; i < 4; ++i) {
        if (sys->site(static_cast<std::size_t>(i)).at.hubIndex ==
            sys->site(0).at.hubIndex)
            sameHub = i;
        others.push_back(i);
    }
    ASSERT_GE(sameHub, 1);
    std::vector<transport::CabAddress> dsts;
    for (int i : others) {
        auto &site = sys->site(static_cast<std::size_t>(i));
        site.kernel->createMailbox("in", 1 << 16, 77);
        dsts.push_back(site.address);
    }
    auto payload = pattern(256, 9);
    auto result =
        std::make_shared<transport::Transport::MulticastResult>();
    sim::spawn([](transport::Transport &tp,
                  std::vector<transport::CabAddress> dsts,
                  std::vector<std::uint8_t> payload,
                  std::shared_ptr<transport::Transport::MulticastResult>
                      result) -> Task<void> {
        *result = co_await tp.sendReliableMulticast(
            std::move(dsts), 77, sim::PacketView(std::move(payload)),
            true);
    }(*sys->site(0).transport, dsts, payload, result));
    eq.run();
    EXPECT_TRUE(result->ok);
    EXPECT_TRUE(result->usedHardware);
    EXPECT_TRUE(result->failed.empty());
    for (int i : others) {
        auto *box =
            sys->site(static_cast<std::size_t>(i)).kernel->mailbox(77);
        ASSERT_NE(box, nullptr);
        ASSERT_EQ(box->count(), 1u) << "site " << i;
        auto m = box->tryGet();
        EXPECT_TRUE(m->view().equals(payload)) << "site " << i;
    }
    EXPECT_GT(sys->site(static_cast<std::size_t>(sameHub))
                  .board->stats()
                  .strayItems.value(),
              0u);
    EXPECT_GT(
        sys->site(0).transport->stats().mcastHwPackets.value(), 0u);
}

TEST(Collectives, MulticastFallsBackPerMemberWhenLinkDown)
{
    // With the inter-HUB link dark the tree cannot be built: the
    // same-HUB member must still be served by unicast fan-out while
    // the unreachable member fails after its retransmission budget.
    sim::EventQueue eq;
    nectarine::SiteConfig site;
    site.transport.maxRetransmits = 3;
    site.transport.maxRto = 2 * ms;
    auto sys = NectarSystem::mesh2D(eq, 1, 2, 2, site);
    int sameHub = -1, farHub = -1;
    for (int i = 1; i < 4; ++i) {
        if (sys->site(static_cast<std::size_t>(i)).at.hubIndex ==
            sys->site(0).at.hubIndex)
            sameHub = i;
        else if (farHub < 0)
            farHub = i;
    }
    ASSERT_GE(sameHub, 1);
    ASSERT_GE(farHub, 1);
    auto &near = sys->site(static_cast<std::size_t>(sameHub));
    auto &far = sys->site(static_cast<std::size_t>(farHub));
    near.kernel->createMailbox("in", 1 << 16, 77);
    far.kernel->createMailbox("in", 1 << 16, 77);
    sys->topo().markLinkDownBetween(0, 1);
    auto payload = pattern(128, 5);
    std::vector<transport::CabAddress> dsts{near.address,
                                            far.address};
    auto result =
        std::make_shared<transport::Transport::MulticastResult>();
    sim::spawn([](transport::Transport &tp,
                  std::vector<transport::CabAddress> dsts,
                  std::vector<std::uint8_t> payload,
                  std::shared_ptr<transport::Transport::MulticastResult>
                      result) -> Task<void> {
        *result = co_await tp.sendReliableMulticast(
            std::move(dsts), 77, sim::PacketView(std::move(payload)),
            true);
    }(*sys->site(0).transport, dsts, payload, result));
    eq.run();
    EXPECT_FALSE(result->ok);
    EXPECT_FALSE(result->usedHardware);
    ASSERT_EQ(result->failed.size(), 1u);
    EXPECT_EQ(result->failed[0], far.address);
    auto *box = near.kernel->mailbox(77);
    ASSERT_EQ(box->count(), 1u);
    EXPECT_TRUE(box->tryGet()->view().equals(payload));
    EXPECT_GT(
        sys->site(0).transport->stats().mcastFallbacks.value(), 0u);
}

// ----- Failure semantics --------------------------------------------

TEST(Collectives, MemberCrashMidAllreduceBumpsEpochNoHang)
{
    // A member dies mid-operation; every survivor must terminate
    // with an epoch-bump error (timeout or observed failure), never
    // hang, and the epoch must advance exactly once.
    sim::EventQueue eq;
    nectarine::SiteConfig site;
    site.transport.maxRetransmits = 4;
    site.transport.maxRto = 4 * ms;
    const int n = 8;
    auto sys = NectarSystem::singleHub(eq, n, site);
    nectarine::Nectarine api(*sys);
    GroupDirectory groups;
    auto cfg = allreduceCfg(n, 16384, ReduceOp::sum,
                            McastPath::automatic);
    cfg.rounds = 3;
    cfg.comm.opTimeout = 20 * ms;
    std::vector<std::size_t> sites(n);
    for (int i = 0; i < n; ++i)
        sites[static_cast<std::size_t>(i)] =
            static_cast<std::size_t>(i);
    workload::AllreduceWorkload w(api, groups, sites, cfg);
    fault::FaultPlan plan;
    plan.cabCrash(1 * ms, n / 2);
    fault::ChaosController chaos(*sys, plan);
    eq.run();
    // eq.run() returning at all is the no-hang proof (a blocked
    // receive without a deadline would leave the timer-free event
    // queue idle but the test hanging on lost work instead of an
    // explicit resolution).
    const auto &rep = w.report();
    EXPECT_EQ(rep.okMembers, 0);
    EXPECT_GE(rep.errorMembers, n - 1);
    EXPECT_EQ(rep.wrongMembers, 0);
    EXPECT_GE(rep.finalEpoch, 2u);
    EXPECT_EQ(groups.epochBumps(), 1u);
    EXPECT_LT(eq.now(), 1000 * ms) << "resolution took too long";
}
