/**
 * @file
 * The three benchmark workloads.  Each derives all of its inputs from
 * the seed it is built with, so two repetitions (or two processes) of
 * one seed simulate exactly the same thing.
 *
 * The seed draws the fabric's cabling (fiber lengths); see
 * seedCabling().
 *
 *  - sweep-fabric16: the S1 serving ladder (E19) on the 16-HUB /
 *    208-CAB fabric, one rung per fresh system, as serving::runSweep
 *    drives it.
 *  - pingpong-star: a long 64 B datagram ping-pong between the two
 *    CABs of a single-HUB star (E4's CAB-to-CAB path).
 *  - allreduce-fabric16: a 32-member allreduce spread over all 16
 *    HUBs of fabric16 (E20's workload).
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "bench.hh"
#include "collectives/group.hh"
#include "nectarine/nectarine.hh"
#include "nectarine/system.hh"
#include "serving/serving.hh"
#include "serving/sweep.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "topo/description.hh"
#include "topo/topofile.hh"
#include "transport/probe.hh"
#include "workload/allreduce.hh"
#include "workload/probes.hh"

namespace nectarbench {

using namespace nectar;
using nectarine::NectarSystem;
using sim::Tick;

namespace {

// ----- workload parameters ------------------------------------------

/** S1 ladder on fabric16 (bench_serving's "full/fabric16" sweep),
 *  with E19's request stream: its seed stays 42 so the knee stays
 *  comparable with the published 151 k rps, and the benchmark seed
 *  varies the cabling instead. */
constexpr std::uint64_t sweepServingSeed = 42;
constexpr double sweepStartRps = 8'000;
constexpr double sweepGrowth = 1.8;
constexpr int sweepSteps = 7;
constexpr Tick sweepRungDuration = 10 * sim::ticks::ms;
constexpr Tick sweepServerCompute = 100 * sim::ticks::us;
constexpr std::uint64_t sweepFlows = 1'000'000;
/** Rungs whose merged latency gives sim_p50_us / sim_p95_us, and whose
 *  completion times sum to sim_makespan_ms: the pre-knee part of the
 *  ladder (rungs 0-4, up to 84 k rps). */
constexpr int sweepLatencyRungs = 5;

constexpr int pingPongIterations = 50'000;
constexpr std::uint32_t pingPongBytes = 64;

constexpr int allreduceMembers = 32;
constexpr std::uint32_t allreduceBytes = 2048;
constexpr int allreduceRounds = 80;

/** Longest CAB attachment fiber: 100 m at 5 ns/m. */
constexpr std::uint32_t maxCabFiberNs = 500;
/** Longest inter-HUB trunk fiber: 400 m. */
constexpr std::uint32_t maxTrunkFiberNs = 2000;

// ----- digests ------------------------------------------------------

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    mix(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        mix(bits);
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** Digest of a latency histogram's count, extremes, sum and quantiles. */
std::uint64_t
histogramDigest(const sim::Histogram &h)
{
    Digest d;
    d.mix(h.count());
    d.mix(h.min());
    d.mix(h.max());
    d.mix(h.sum());
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9})
        d.mix(h.percentile(p));
    return d.value();
}

/** Nearest-rank percentile of @p v (sorted in place). */
double
nearestRank(std::vector<Tick> &v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return static_cast<double>(v[rank - 1]);
}

/**
 * The seed's cabling: every CAB attachment fiber is 0-100 m long and
 * every trunk 0-400 m (5 ns of propagation per metre).
 */
void
seedCabling(topo::TopologyDescription &desc, std::uint64_t seed)
{
    sim::Random rng(seed, 0x66696272);
    for (topo::CabDecl &cab : desc.cabs)
        cab.latency = rng.below(maxCabFiberNs + 1);
    for (topo::TrunkDecl &trunk : desc.trunks)
        trunk.latency = rng.below(maxTrunkFiberNs + 1);
}

// ----- probes -------------------------------------------------------

/**
 * Records a simulated-time send -> deliver span for every datagram and
 * reliable message, through NectarSystem::attachDeliveryProbe.  Only
 * attached on traced repetitions.
 */
class MessageTracer : public transport::DeliveryProbe
{
  public:
    explicit MessageTracer(sim::EventQueue &eq) : eq(eq) {}

    void
    onReliableSend(transport::CabAddress src, transport::CabAddress dst,
                   std::uint16_t, std::uint32_t msgId,
                   std::size_t) override
    {
        sent[key(src, dst, msgId)] = eq.now();
    }

    void
    onReliableOutcome(transport::CabAddress, transport::CabAddress,
                      std::uint16_t, std::uint32_t, bool) override
    {}

    void
    onDatagramSend(transport::CabAddress src, transport::CabAddress dst,
                   std::uint16_t, std::uint32_t msgId) override
    {
        sent[key(src, dst, msgId)] = eq.now();
    }

    void
    onDeliver(transport::CabAddress src, transport::CabAddress dst,
              std::uint16_t, std::uint32_t msgId, bool,
              std::size_t) override
    {
        auto it = sent.find(key(src, dst, msgId));
        if (it == sent.end())
            return;
        spans.push_back(MessageSpan{src, dst, msgId, it->second,
                                    eq.now()});
        sent.erase(it);
    }

    void onCrash(transport::CabAddress) override {}
    void onRestart(transport::CabAddress) override {}

    std::vector<MessageSpan> spans;

  private:
    static std::uint64_t
    key(transport::CabAddress src, transport::CabAddress dst,
        std::uint32_t msgId)
    {
        return (static_cast<std::uint64_t>(src) << 48) |
               (static_cast<std::uint64_t>(dst) << 32) | msgId;
    }

    sim::EventQueue &eq;
    std::unordered_map<std::uint64_t, Tick> sent;
};

/**
 * How long each member waits in each collective call, read from outside
 * through GroupDirectory::setProbe: from the member entering the
 * operation to it leaving.
 */
class OpClock : public collective::CollectiveProbe
{
  public:
    OpClock(sim::EventQueue &eq, int members)
        : eq(eq), entered(static_cast<std::size_t>(members))
    {}

    void
    onCollectiveStart(collective::GroupId, int rank) override
    {
        entered.at(static_cast<std::size_t>(rank)) = eq.now();
    }

    void
    onCollectiveEnd(collective::GroupId, int rank, bool, std::uint8_t,
                    std::uint32_t, std::uint32_t) override
    {
        durations.push_back(eq.now() -
                            entered.at(static_cast<std::size_t>(rank)));
    }

    void onEpochBump(collective::GroupId, std::uint32_t) override {}

    /** One entry per completed member operation, in completion order. */
    std::vector<Tick> durations;

  private:
    sim::EventQueue &eq;
    std::vector<Tick> entered; ///< Per rank: entry to its current op.
};

// ----- sweep-fabric16 -----------------------------------------------

class SweepWorkload : public Workload
{
  public:
    SweepWorkload(std::uint64_t seed, std::string fabricPath)
        : seed(seed), path(std::move(fabricPath))
    {
        cfg.fabric = "fabric16";
        cfg.serving.flows = sweepFlows;
        cfg.serving.serverCompute = sweepServerCompute;
        cfg.serving.duration = sweepRungDuration;
        cfg.serving.seed = sweepServingSeed;
        cfg.startRps = sweepStartRps;
        cfg.growth = sweepGrowth;
        cfg.steps = sweepSteps;
    }

    void
    warmUp() override
    {
        topo::TopologyDescription desc = topo::loadTopologyFile(path);
        seedCabling(desc, seed);
        reference = serving::runSweep(
            [&](sim::EventQueue &eq) {
                return NectarSystem::fromDescription(eq, desc);
            },
            cfg);
    }

    RepResult
    run(Recorder &rec) override
    {
        RepResult r;
        Scope rep(rec, "rep");
        topo::TopologyDescription desc;
        {
            Scope s(rec, "topo.load");
            desc = topo::loadTopologyFile(path);
        }
        seedCabling(desc, seed);

        sim::Histogram preKnee;
        Digest latency;
        double offered = cfg.startRps;
        for (int i = 0; i < cfg.steps; ++i, offered *= cfg.growth) {
            Scope rung(rec, "rung");
            auto eq = std::make_unique<sim::EventQueue>();
            std::unique_ptr<NectarSystem> sys;
            const double heap0 = heapInUseMb();
            {
                Scope s(rec, "nectarine.build");
                sys = NectarSystem::fromDescription(*eq, desc);
            }
            r.layers.max("nectarine.build_heap_mb",
                         heapInUseMb() - heap0);

            serving::ServingConfig sc = cfg.serving;
            sc.offeredRps = offered;
            std::unique_ptr<serving::ServingWorkload> w;
            {
                Scope s(rec, "serving.setup");
                w = std::make_unique<serving::ServingWorkload>(*sys, sc);
            }
            {
                Scope s(rec, "sim.run");
                eq->run();
            }

            const serving::ServingReport rpt = w->report();
            r.steps.push_back(serving::SweepStep{offered, rpt});
            r.events += eq->executedCount();
            r.opsAttempted += rpt.arrivals;
            r.opsOk += rpt.completed;
            if (i < sweepLatencyRungs) {
                preKnee.merge(w->latency());
                r.makespanMs += static_cast<double>(rpt.lastDoneAt) / 1e6;
            }
            latency.mix(histogramDigest(w->latency()));
            r.layers.add("serving.completed",
                         static_cast<double>(rpt.completed));
            r.layers.add("serving.failed",
                         static_cast<double>(rpt.failed));
            r.layers.add("serving.shed", static_cast<double>(rpt.shed));
            r.layers.max("serving.peak_flow_table",
                         static_cast<double>(rpt.peakFlowTable));
            collectLayers(*sys, eq->now(), r.layers);

            Scope s(rec, "nectarine.teardown");
            w.reset();
            sys.reset();
            eq.reset();
        }

        r.kneeIndex = serving::detectKnee(r.steps, cfg.kneeSlope,
                                          cfg.minCompletion);
        if (r.kneeIndex >= 0)
            r.ratePerS =
                r.steps[static_cast<std::size_t>(r.kneeIndex)].offeredRps;
        r.p50Us = preKnee.percentile(50) / 1e3;
        r.p95Us = preKnee.percentile(95) / 1e3;
        r.layers.add("serving.p99_us", preKnee.percentile(99) / 1e3);
        r.latencySamples = preKnee.count();
        r.latencyFp = latency.value();

        Digest report;
        for (const serving::SweepStep &st : r.steps) {
            const serving::ServingReport &p = st.report;
            for (std::uint64_t v :
                 {p.arrivals, p.issued, p.completed, p.failed, p.shed,
                  p.peakFlowTable, static_cast<std::uint64_t>(p.lastDoneAt)})
                report.mix(v);
            for (double v : {st.offeredRps, p.p50Ns, p.p99Ns, p.p999Ns,
                             p.meanNs, p.achievedRps, p.goodputMBs})
                report.mix(v);
        }
        report.mix(static_cast<std::uint64_t>(r.kneeIndex + 1));
        r.reportFp = report.value();

        r.error = check(r);
        return r;
    }

  private:
    /** The correctness gate: a knee, no idle rung, and the same ladder
     *  serving::runSweep produced in warmUp(). */
    std::string
    check(const RepResult &r) const
    {
        if (r.kneeIndex < 0)
            return "sweep found no saturation knee";
        for (const serving::SweepStep &st : r.steps)
            if (st.report.completed == 0)
                return "a sweep rung completed nothing";
        if (reference.steps.size() != r.steps.size() ||
            reference.kneeIndex != r.kneeIndex)
            return "ladder differs from serving::runSweep";
        for (std::size_t i = 0; i < r.steps.size(); ++i)
            if (!(reference.steps[i].report == r.steps[i].report))
                return "rung " + std::to_string(i) +
                       " differs from serving::runSweep";
        return "";
    }

    std::uint64_t seed;
    std::string path;
    serving::SweepConfig cfg;
    serving::SweepResult reference;
};

// ----- pingpong-star ------------------------------------------------

class PingPongWorkload : public Workload
{
  public:
    explicit PingPongWorkload(std::uint64_t seed) : seed(seed) {}

    void
    warmUp() override
    {
        Recorder rec(false, Clock::now());
        run(rec);
    }

    RepResult
    run(Recorder &rec) override
    {
        RepResult r;
        Scope rep(rec, "rep");
        topo::TopologyDescription desc = topo::describeSingleHub(2);
        seedCabling(desc, seed);

        auto eq = std::make_unique<sim::EventQueue>();
        std::unique_ptr<NectarSystem> sys;
        std::unique_ptr<nectarine::Nectarine> api;
        const double heap0 = heapInUseMb();
        {
            Scope s(rec, "nectarine.build");
            sys = NectarSystem::fromDescription(*eq, desc);
            api = std::make_unique<nectarine::Nectarine>(*sys);
        }
        r.layers.max("nectarine.build_heap_mb", heapInUseMb() - heap0);

        MessageTracer tracer(*eq);
        if (rec.tracing())
            sys->attachDeliveryProbe(&tracer);

        workload::PingPongConfig pc;
        pc.iterations = pingPongIterations;
        pc.messageBytes = pingPongBytes;
        pc.delivery = nectarine::Delivery::datagram;
        std::unique_ptr<workload::PingPong> pp;
        {
            Scope s(rec, "workload.setup");
            pp = std::make_unique<workload::PingPong>(*api, 0, 1, pc);
        }
        {
            Scope s(rec, "sim.run");
            eq->run();
        }

        const sim::Histogram &rtt = pp->rtt();
        r.events = eq->executedCount();
        r.p50Us = rtt.percentile(50) / 2 / 1e3;
        r.p95Us = rtt.percentile(95) / 2 / 1e3;
        r.latencySamples = rtt.count();
        // Iterations run back to back from t = 0, so the RTTs sum to
        // the time of the last completion.
        r.makespanMs = rtt.sum() / 1e6;
        r.ratePerS = rtt.sum() > 0 ? static_cast<double>(rtt.count()) /
                                         (rtt.sum() / 1e9)
                                   : 0;
        r.opsAttempted = pingPongIterations;
        r.opsOk = rtt.count();
        r.latencyFp = histogramDigest(rtt);
        Digest report;
        report.mix(static_cast<std::uint64_t>(pp->finished()));
        report.mix(rtt.count());
        report.mix(pp->meanRttUs());
        r.reportFp = report.value();
        collectLayers(*sys, eq->now(), r.layers);

        if (!pp->finished() ||
            rtt.count() != static_cast<std::uint64_t>(pingPongIterations))
            r.error = "ping-pong did not finish";

        sys->attachDeliveryProbe(nullptr);
        r.messages = std::move(tracer.spans);

        Scope s(rec, "nectarine.teardown");
        pp.reset();
        api.reset();
        sys.reset();
        eq.reset();
        return r;
    }

  private:
    std::uint64_t seed;
};

// ----- allreduce-fabric16 -------------------------------------------

class AllreduceWorkload : public Workload
{
  public:
    AllreduceWorkload(std::uint64_t seed, std::string fabricPath)
        : seed(seed), path(std::move(fabricPath))
    {}

    void
    warmUp() override
    {
        Recorder rec(false, Clock::now());
        run(rec);
    }

    RepResult
    run(Recorder &rec) override
    {
        RepResult r;
        Scope rep(rec, "rep");
        topo::TopologyDescription desc;
        {
            Scope s(rec, "topo.load");
            desc = topo::loadTopologyFile(path);
        }
        seedCabling(desc, seed);
        const auto members = static_cast<std::size_t>(allreduceMembers);
        if (desc.cabs.size() < members) {
            r.error = "fabric has too few CABs for the allreduce group";
            return r;
        }
        // Spread evenly over the site list, as E20 does: two members
        // on each of fabric16's HUBs.
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i < members; ++i)
            sites.push_back(i * desc.cabs.size() / members);

        auto eq = std::make_unique<sim::EventQueue>();
        std::unique_ptr<NectarSystem> sys;
        std::unique_ptr<nectarine::Nectarine> api;
        const double heap0 = heapInUseMb();
        {
            Scope s(rec, "nectarine.build");
            sys = NectarSystem::fromDescription(*eq, desc);
            api = std::make_unique<nectarine::Nectarine>(*sys);
        }
        r.layers.max("nectarine.build_heap_mb", heapInUseMb() - heap0);

        MessageTracer tracer(*eq);
        if (rec.tracing())
            sys->attachDeliveryProbe(&tracer);

        OpClock clock(*eq, allreduceMembers);
        workload::AllreduceConfig ac;
        ac.members = allreduceMembers;
        ac.bytes = allreduceBytes;
        ac.rounds = allreduceRounds;
        ac.seed = static_cast<std::uint32_t>(seed);
        std::unique_ptr<collective::GroupDirectory> groups;
        std::unique_ptr<workload::AllreduceWorkload> w;
        {
            Scope s(rec, "collectives.setup");
            groups = std::make_unique<collective::GroupDirectory>();
            groups->setProbe(&clock);
            w = std::make_unique<workload::AllreduceWorkload>(
                *api, *groups, sites, ac);
        }
        {
            Scope s(rec, "sim.run");
            eq->run();
        }

        const workload::AllreduceReport rpt = w->report();
        std::vector<Tick> ops = clock.durations;
        r.events = eq->executedCount();
        Digest latency;
        for (Tick t : ops)
            latency.mix(static_cast<std::uint64_t>(t));
        r.latencyFp = latency.value();
        r.p50Us = nearestRank(ops, 50) / 1e3;
        r.p95Us = nearestRank(ops, 95) / 1e3;
        r.layers.add("collectives.op_p99_us", nearestRank(ops, 99) / 1e3);
        r.latencySamples = ops.size();
        r.makespanMs = static_cast<double>(rpt.lastFinish) / 1e6;
        r.ratePerS = rpt.lastFinish > 0
                         ? allreduceRounds /
                               (static_cast<double>(rpt.lastFinish) / 1e9)
                         : 0;
        r.opsAttempted = allreduceMembers;
        r.opsOk = static_cast<std::uint64_t>(rpt.okMembers);
        Digest report;
        report.mix(rpt.fingerprint);
        report.mix(static_cast<std::uint64_t>(rpt.lastFinish));
        report.mix(static_cast<std::uint64_t>(rpt.finalEpoch));
        r.reportFp = report.value();
        r.layers.add("collectives.ok_members", rpt.okMembers);
        r.layers.add("collectives.wrong_members", rpt.wrongMembers);
        collectLayers(*sys, eq->now(), r.layers);

        if (rpt.okMembers != allreduceMembers || rpt.wrongMembers != 0 ||
            rpt.errorMembers != 0)
            r.error = "allreduce: " + std::to_string(rpt.okMembers) +
                      " ok, " + std::to_string(rpt.wrongMembers) +
                      " wrong, " + std::to_string(rpt.errorMembers) +
                      " with errors";
        else if (ops.size() != static_cast<std::size_t>(allreduceMembers *
                                                         allreduceRounds))
            r.error = "allreduce: a member missed a round";

        sys->attachDeliveryProbe(nullptr);
        r.messages = std::move(tracer.spans);

        Scope s(rec, "nectarine.teardown");
        w.reset();
        groups.reset();
        api.reset();
        sys.reset();
        eq.reset();
        return r;
    }

  private:
    std::uint64_t seed;
    std::string path;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &fabricPath)
{
    if (name == "sweep-fabric16")
        return std::make_unique<SweepWorkload>(seed, fabricPath);
    if (name == "pingpong-star")
        return std::make_unique<PingPongWorkload>(seed);
    if (name == "allreduce-fabric16")
        return std::make_unique<AllreduceWorkload>(seed, fabricPath);
    return nullptr;
}

} // namespace nectarbench
