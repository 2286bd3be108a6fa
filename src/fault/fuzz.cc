#include "fault/fuzz.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "collectives/communicator.hh"
#include "collectives/group.hh"
#include "fault/chaos.hh"
#include "fault/oracle.hh"
#include "nectarine/nectarine.hh"
#include "nectarine/system.hh"
#include "serving/serving.hh"
#include "sim/coro.hh"
#include "sim/digest.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "topo/topofile.hh"

namespace nectar::fault {

namespace {

using sim::Task;
using sim::Tick;
using sim::ticks::ms;
using sim::ticks::us;

/** Receiving mailbox id on every site. */
constexpr std::uint16_t fuzzMailbox = 20;

/** Per-site traffic source; owned by runCase so frames outlive it. */
struct SiteTraffic
{
    transport::Transport *tp = nullptr;
    transport::CabAddress reliableDst = 0;
    transport::CabAddress datagramDst = 0;
    int reliable = 0;
    int datagrams = 0;
    std::uint64_t seed = 0;
    std::size_t minBytes = 64;
    std::size_t maxBytes = 4096;
    Tick spread = 0; ///< Sends start uniformly inside [0, spread).

    Task<void>
    run()
    {
        sim::Random rng(seed, 0x7472616666696bull);
        for (int i = 0; i < reliable + datagrams; ++i) {
            co_await sim::Delay(tp->eventq(),
                                static_cast<Tick>(rng.below(
                                    static_cast<std::uint32_t>(
                                        std::max<Tick>(1, spread)))));
            std::size_t bytes =
                minBytes +
                rng.below(static_cast<std::uint32_t>(
                    maxBytes - minBytes + 1));
            std::vector<std::uint8_t> payload(bytes,
                                              static_cast<std::uint8_t>(i));
            if (i < reliable) {
                co_await tp->sendReliable(reliableDst, fuzzMailbox,
                                          std::move(payload));
            } else {
                co_await tp->sendDatagram(datagramDst, fuzzMailbox,
                                          std::move(payload));
            }
        }
    }
};

/**
 * Bug-injection wrapper (FuzzConfig::injectDeliveryBug): forwards
 * every hook, but reports reliable deliveries falling inside one of
 * the plan's burst windows twice — a deterministic duplicate the
 * oracle must catch and the shrinker must reduce to one window.
 */
class BurstDoubleReporter : public transport::DeliveryProbe
{
  public:
    BurstDoubleReporter(transport::DeliveryProbe &next,
                        const FaultPlan &plan, sim::EventQueue &eq)
        : next(next), eq(eq)
    {
        // Pair each burstStart with the next burstEnd on the same
        // site; an unmatched start is an open-ended window.
        std::vector<const FaultEvent *> order;
        for (const auto &e : plan.events)
            if (e.action == Action::burstStart ||
                e.action == Action::burstEnd)
                order.push_back(&e);
        std::stable_sort(order.begin(), order.end(),
                         [](const FaultEvent *a, const FaultEvent *b) {
                             return a->at < b->at;
                         });
        std::vector<std::pair<int, Tick>> open; // (site, start)
        for (const auto *e : order) {
            if (e->action == Action::burstStart) {
                open.emplace_back(e->site, e->at);
            } else {
                for (auto it = open.begin(); it != open.end(); ++it) {
                    if (it->first == e->site) {
                        windows.emplace_back(it->second, e->at);
                        open.erase(it);
                        break;
                    }
                }
            }
        }
        for (const auto &[site, start] : open)
            windows.emplace_back(start, sim::maxTick);
    }

    void
    onReliableSend(transport::CabAddress src, transport::CabAddress dst,
                   std::uint16_t mb, std::uint32_t msgId,
                   std::size_t bytes) override
    {
        next.onReliableSend(src, dst, mb, msgId, bytes);
    }
    void
    onReliableOutcome(transport::CabAddress src,
                      transport::CabAddress dst, std::uint16_t mb,
                      std::uint32_t msgId, bool ok) override
    {
        next.onReliableOutcome(src, dst, mb, msgId, ok);
    }
    void
    onDatagramSend(transport::CabAddress src, transport::CabAddress dst,
                   std::uint16_t mb, std::uint32_t msgId) override
    {
        next.onDatagramSend(src, dst, mb, msgId);
    }
    void
    onDeliver(transport::CabAddress src, transport::CabAddress dst,
              std::uint16_t mb, std::uint32_t msgId, bool reliable,
              std::size_t bytes) override
    {
        next.onDeliver(src, dst, mb, msgId, reliable, bytes);
        if (!reliable)
            return;
        Tick now = eq.now();
        for (const auto &[from, to] : windows) {
            if (now >= from && now < to) {
                next.onDeliver(src, dst, mb, msgId, reliable, bytes);
                return;
            }
        }
    }
    void onCrash(transport::CabAddress a) override { next.onCrash(a); }
    void onRestart(transport::CabAddress a) override
    {
        next.onRestart(a);
    }

  private:
    transport::DeliveryProbe &next;
    sim::EventQueue &eq;
    std::vector<std::pair<Tick, Tick>> windows;
};

} // namespace

topo::TopologyDescription
harnessDescription(const FuzzConfig &cfg)
{
    switch (cfg.fabric) {
    case FuzzFabric::mesh:
        return topo::describeMesh2D(cfg.rows, cfg.cols,
                                    cfg.cabsPerHub);
    case FuzzFabric::torus:
        return topo::describeTorus2D(cfg.rows, cfg.cols,
                                     cfg.cabsPerHub);
    case FuzzFabric::fattree:
        return topo::describeFatTree(cfg.rows, cfg.cols,
                                     cfg.cabsPerHub);
    case FuzzFabric::file:
        return topo::loadTopologyFile(cfg.topoFile);
    }
    sim::panic("harnessDescription: bad fabric kind");
}

SystemShape
harnessShape(const FuzzConfig &cfg)
{
    // No live system needed: the description carries the shape.
    return SystemShape::ofDescription(harnessDescription(cfg));
}

FuzzResult
runCase(const FaultPlan &plan, const FuzzConfig &cfg)
{
    sim::EventQueue eq;

    nectarine::SiteConfig site;
    site.transport.retransmitTimeout = 300 * us;
    site.transport.maxRetransmits = 5;
    site.transport.maxRto = 2 * ms;

    auto sys = nectarine::NectarSystem::fromDescription(
        eq, harnessDescription(cfg), site);
    const auto n = sys->siteCount();

    DeliveryOracle oracle;
    std::unique_ptr<BurstDoubleReporter> bug;
    if (cfg.injectDeliveryBug) {
        bug = std::make_unique<BurstDoubleReporter>(oracle, plan, eq);
        sys->attachDeliveryProbe(bug.get());
    } else {
        sys->attachDeliveryProbe(&oracle);
    }

    // Per-site receiving mailboxes (messages park; the oracle counts
    // them at delivery time).
    for (std::size_t i = 0; i < n; ++i)
        sys->site(i).kernel->createMailbox("fuzzin", 1 << 20,
                                           fuzzMailbox);

    // Point-to-point traffic: each site streams to its neighbor and
    // fires datagrams two hops over, seeded from the plan.
    std::vector<SiteTraffic> traffic(n);
    for (std::size_t i = 0; i < n; ++i) {
        SiteTraffic &t = traffic[i];
        t.tp = sys->site(i).transport.get();
        t.reliableDst =
            static_cast<transport::CabAddress>((i + 1) % n + 1);
        t.datagramDst =
            static_cast<transport::CabAddress>((i + 2) % n + 1);
        t.reliable = cfg.reliablePerSite;
        t.datagrams = cfg.datagramsPerSite;
        t.seed = plan.seed + i;
        t.minBytes = cfg.minBytes;
        t.maxBytes = std::max(cfg.maxBytes, cfg.minBytes);
        t.spread = 4 * ms;
        sim::spawn(t.run());
    }

    // Collective workload: a group across the first k sites running
    // allreduce + barrier rounds.  Operations may fail under faults —
    // the oracle asserts they terminate cleanly, not that they
    // succeed.
    collective::GroupDirectory groups;
    groups.setProbe(&oracle);
    nectarine::Nectarine api(*sys);
    auto gid = std::make_shared<collective::GroupId>(0);
    int members = std::min<int>(cfg.collectiveMembers,
                                static_cast<int>(n));
    if (members >= 2 && cfg.collectiveRounds > 0) {
        collective::CommunicatorConfig ccfg;
        ccfg.opTimeout = 20 * ms;
        std::vector<nectarine::TaskId> ids;
        auto *groupsp = &groups;
        int rounds = cfg.collectiveRounds;
        for (int r = 0; r < members; ++r) {
            ids.push_back(api.createTask(
                static_cast<std::size_t>(r),
                "fz" + std::to_string(r),
                [groupsp, gid, ccfg, rounds](
                    nectarine::TaskContext &ctx) -> Task<void> {
                    collective::Communicator comm(ctx, *groupsp, *gid,
                                                  ccfg);
                    std::vector<std::uint8_t> data(256,
                                                   std::uint8_t(1));
                    for (int round = 0; round < rounds; ++round) {
                        co_await comm.allreduce(
                            collective::ReduceOp::sum, data);
                        co_await comm.barrier();
                    }
                }));
        }
        *gid = groups.create("fuzz", ids);
    }

    // Serving-load scenario: open-loop RPCs ride the same fabric
    // while the oracle judges the ledgered traffic and the drain.
    // Arrivals are bounded per host so the case still quiesces.
    std::unique_ptr<serving::ServingWorkload> serving;
    if (cfg.servingArrivalsPerSite > 0) {
        serving::ServingConfig scfg;
        scfg.flows = cfg.servingFlows;
        scfg.seed = plan.seed;
        scfg.maxArrivalsPerHost =
            static_cast<std::uint64_t>(cfg.servingArrivalsPerSite);
        scfg.duration = 8 * ms;
        // Pace arrivals so every host's quota lands well inside the
        // window even with fault-induced jitter.
        scfg.offeredRps = static_cast<double>(n) *
                          cfg.servingArrivalsPerSite / 4e-3;
        serving = std::make_unique<serving::ServingWorkload>(*sys,
                                                             scfg);
    }

    ChaosController chaos(*sys, plan, PlanPolicy::normalize);
    eq.run();
    oracle.finish();

    FuzzResult res;
    res.violations = oracle.violations();
    res.oracleSummary = oracle.summary();
    res.report = chaos.report();
    res.quiescedAt = eq.now();
    res.reliableSends = oracle.reliableSends();
    res.reliableDeliveries = oracle.reliableDeliveries();
    res.collectiveOps = oracle.collectiveOps();
    res.collectiveFailures = oracle.collectiveFailures();
    res.groupEpochBumps = oracle.groupEpochBumps();
    if (serving) {
        serving::ServingReport sr = serving->report();
        res.servingIssued = sr.issued;
        res.servingCompleted = sr.completed;
        res.servingFailed = sr.failed;
    }
    if (res.quiescedAt > cfg.drainDeadline)
        res.violations.push_back(
            "wedged: system not quiescent by drain deadline (now=" +
            std::to_string(res.quiescedAt) + ")");
    res.passed = res.violations.empty();

    sim::Digest d;
    d.mix(static_cast<std::uint64_t>(res.quiescedAt));
    d.mix(res.oracleSummary);
    d.mix(res.report.format());
    for (std::uint64_t v :
         {res.reliableSends, res.reliableDeliveries, res.collectiveOps,
          res.collectiveFailures, res.groupEpochBumps, res.servingIssued,
          res.servingCompleted, res.servingFailed})
        d.mix(v);
    res.digest = d.value();
    return res;
}

} // namespace nectar::fault
