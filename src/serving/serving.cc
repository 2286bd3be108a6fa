#include "serving.hh"

#include <algorithm>
#include <cmath>

#include "sim/coro.hh"
#include "sim/logging.hh"

namespace nectar::serving {

using sim::Task;

namespace {

/** Service mailbox id on every site (below the task-inbox range). */
constexpr std::uint16_t servingMailbox = 0x0FFE;

/** Fit requests and responses in one MTU (transport RPC limit). */
constexpr std::uint32_t maxRpcBytes = 768;

/** splitmix64: whitens correlated seed inputs into independent
 *  PCG seeds (adjacent integers map to distant states). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Per-host PCG stream selector base (distinct from other users). */
constexpr std::uint64_t servingStream = 0x73657276696E67ull;

} // namespace

const char *
arrivalName(Arrival a)
{
    switch (a) {
    case Arrival::poisson:
        return "poisson";
    case Arrival::bursty:
        return "bursty";
    case Arrival::hotspot:
        return "hotspot";
    case Arrival::closed:
        return "closed";
    }
    return "unknown";
}

ServingWorkload::ServingWorkload(nectarine::NectarSystem &sys,
                                 const ServingConfig &config)
    : sys(sys), cfg(config)
{
    const std::size_t n = sys.siteCount();
    if (n < 2)
        sim::fatal("ServingWorkload: need at least two sites");
    cfg.requestBytes =
        std::clamp<std::uint32_t>(cfg.requestBytes, 8, maxRpcBytes);
    cfg.responseBytes =
        std::clamp<std::uint32_t>(cfg.responseBytes, 1, maxRpcBytes);
    cfg.flows = std::max<std::uint64_t>(cfg.flows, 1);
    served.assign(n, 0);

    if (cfg.arrival == Arrival::hotspot) {
        // Zipf CDF over destination sites: site r gets weight
        // (r+1)^-skew; sampled by inversion, so one uniform draw per
        // arrival and fully deterministic.
        zipfCdf.resize(n);
        double sum = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
            sum += std::pow(static_cast<double>(r + 1),
                            -cfg.zipfSkew);
            zipfCdf[r] = sum;
        }
        for (auto &c : zipfCdf)
            c /= sum;
    }

    hosts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Each host draws from its own whitened seed AND its own PCG
        // stream: no host's draw count ever perturbs another's.
        hosts.push_back(std::make_unique<HostState>(
            mix64(cfg.seed ^ (i + 1)), servingStream + 2 * i + 1));
        sys.site(i).kernel->createMailbox("serving_srv", 1 << 20,
                                          servingMailbox);
        sim::spawn(serverLoop(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (cfg.arrival == Arrival::closed) {
            for (int w = 0; w < cfg.closedConcurrency; ++w)
                sim::spawn(closedWorker(i, w));
        } else {
            sim::spawn(driverLoop(i));
        }
    }
}

Task<void>
ServingWorkload::serverLoop(std::size_t site)
{
    nectarine::CabSite &s = sys.site(site);
    cabos::Mailbox *mb = s.kernel->mailbox(servingMailbox);
    for (;;) {
        auto m = co_await mb->get();
        ++served[site];
        co_await s.kernel->compute(cfg.serverCompute);
        std::vector<std::uint8_t> resp(
            cfg.responseBytes, static_cast<std::uint8_t>(site));
        s.transport->respond(m.tag, std::move(resp));
    }
}

std::size_t
ServingWorkload::pickDestination(std::size_t host, HostState &hs)
{
    const std::size_t n = sys.siteCount();
    std::size_t d;
    if (cfg.arrival == Arrival::hotspot) {
        double u = hs.rng.uniform();
        d = static_cast<std::size_t>(
            std::lower_bound(zipfCdf.begin(), zipfCdf.end(), u) -
            zipfCdf.begin());
        d = std::min(d, n - 1);
        if (d == host)
            d = (d + 1) % n;
    } else {
        d = hs.rng.below(static_cast<std::uint32_t>(n - 1));
        if (d >= host)
            ++d; // uniform over the n-1 other sites
    }
    return d;
}

bool
ServingWorkload::admitArrival(std::size_t host, HostState &hs)
{
    ++hs.arrivals;
    if (hs.outstanding >= cfg.maxOutstandingPerHost) {
        ++hs.shed;
        return false;
    }

    std::uint64_t flowId;
    if (cfg.flows <= 0xFFFFFFFFull) {
        flowId =
            hs.rng.below(static_cast<std::uint32_t>(cfg.flows));
    } else {
        flowId = ((static_cast<std::uint64_t>(hs.rng.next()) << 32) |
                  hs.rng.next()) %
                 cfg.flows;
    }

    // Lazy flow state: materialized on first use, seeded from the
    // flow id alone so any future request of the same flow derives
    // the same stream.
    FlowEntry &fe = hs.table[flowId];
    if (fe.outstanding == 0 && fe.seq == 0)
        fe.flowSeed = mix64(cfg.seed ^ mix64(flowId));
    ++fe.outstanding;
    ++fe.seq;
    ++hs.outstanding;
    hs.peakTable =
        std::max<std::uint64_t>(hs.peakTable, hs.table.size());

    std::size_t dst = pickDestination(host, hs);
    std::uint64_t payloadSeed =
        fe.flowSeed + 0x9E3779B97F4A7C15ull * fe.seq;
    ++hs.issued;
    sim::spawn(requestOnce(host, dst, flowId, payloadSeed));
    return true;
}

Task<void>
ServingWorkload::requestOnce(std::size_t host, std::size_t dst,
                             std::uint64_t flowId,
                             std::uint64_t payloadSeed)
{
    nectarine::CabSite &site = sys.site(host);
    HostState &hs = *hosts[host];
    sim::EventQueue &eq = sys.eventq();
    Tick t0 = eq.now();

    std::vector<std::uint8_t> req(cfg.requestBytes);
    std::uint64_t pat = payloadSeed;
    for (std::size_t i = 0; i < req.size(); ++i) {
        if ((i & 7) == 0)
            pat = mix64(pat);
        req[i] = static_cast<std::uint8_t>(pat >> (8 * (i & 7)));
    }

    auto resp = co_await site.transport->request(
        sys.site(dst).address, servingMailbox, std::move(req));

    if (resp) {
        ++hs.completed;
        hs.goodputBytes += cfg.requestBytes + resp->size();
        hs.latency.record(static_cast<double>(eq.now() - t0));
        hs.lastDoneAt = std::max(hs.lastDoneAt, eq.now());
    } else {
        ++hs.failed;
    }
    finishFlow(host, flowId);
}

void
ServingWorkload::finishFlow(std::size_t host, std::uint64_t flowId)
{
    HostState &hs = *hosts[host];
    auto it = hs.table.find(flowId);
    if (it != hs.table.end() && --it->second.outstanding == 0)
        hs.table.erase(it);
    if (hs.outstanding > 0)
        --hs.outstanding;
}

Task<void>
ServingWorkload::driverLoop(std::size_t host)
{
    HostState &hs = *hosts[host];
    sim::EventQueue &eq = sys.eventq();
    const double hostsD = static_cast<double>(sys.siteCount());
    const double meanGapNs =
        hostsD * 1e9 / std::max(cfg.offeredRps, 1.0);

    // MMPP: ON-state arrivals run faster by the duty cycle so the
    // long-run offered load still averages offeredRps.
    const double onDwell =
        static_cast<double>(std::max<Tick>(cfg.burstOnMean, 1));
    const double offDwell =
        static_cast<double>(std::max<Tick>(cfg.burstOffMean, 0));
    const double duty = onDwell / (onDwell + offDwell);
    bool on = true;
    Tick stateEnd = 0;
    if (cfg.arrival == Arrival::bursty)
        stateEnd = static_cast<Tick>(
            std::max(1.0, hs.rng.exponential(onDwell)));

    for (;;) {
        if (cfg.maxArrivalsPerHost > 0 &&
            hs.arrivals >= cfg.maxArrivalsPerHost)
            break;
        if (eq.now() >= cfg.duration)
            break;

        double gapMean = meanGapNs;
        if (cfg.arrival == Arrival::bursty) {
            while (eq.now() >= stateEnd) {
                on = !on;
                stateEnd += static_cast<Tick>(std::max(
                    1.0,
                    hs.rng.exponential(on ? onDwell : offDwell)));
            }
            if (!on) {
                co_await sim::Delay(eq, stateEnd - eq.now());
                continue;
            }
            gapMean = meanGapNs * duty;
        }

        auto gap = static_cast<Tick>(
            std::max(1.0, hs.rng.exponential(gapMean)));
        co_await sim::Delay(eq, gap);
        if (eq.now() >= cfg.duration)
            break;
        admitArrival(host, hs);
    }
}

Task<void>
ServingWorkload::closedWorker(std::size_t host, int worker)
{
    HostState &hs = *hosts[host];
    sim::EventQueue &eq = sys.eventq();
    // Stagger worker start so a host's workers do not fire in
    // lockstep at tick zero.
    co_await sim::Delay(
        eq, static_cast<Tick>(worker + 1) * 7 * us);

    while (eq.now() < cfg.duration) {
        if (cfg.maxArrivalsPerHost > 0 &&
            hs.arrivals >= cfg.maxArrivalsPerHost)
            break;
        ++hs.arrivals;

        std::uint64_t flowId = hs.rng.below(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(cfg.flows, 0xFFFFFFFFull)));
        FlowEntry &fe = hs.table[flowId];
        if (fe.outstanding == 0 && fe.seq == 0)
            fe.flowSeed = mix64(cfg.seed ^ mix64(flowId));
        ++fe.outstanding;
        ++fe.seq;
        ++hs.outstanding;
        hs.peakTable =
            std::max<std::uint64_t>(hs.peakTable, hs.table.size());
        std::size_t dst = pickDestination(host, hs);
        std::uint64_t payloadSeed =
            fe.flowSeed + 0x9E3779B97F4A7C15ull * fe.seq;
        ++hs.issued;

        // Closed loop: wait for the response before the next send.
        co_await requestOnce(host, dst, flowId, payloadSeed);

        if (cfg.closedThink > 0)
            co_await sim::Delay(eq, cfg.closedThink);
    }
}

const sim::Histogram &
ServingWorkload::latency() const
{
    // Merge order is host order, and Histogram::merge is bucket-exact
    // and order-independent, so this reads the same whichever
    // assembly ran the workload.
    _mergedLatency.reset();
    for (const auto &h : hosts)
        _mergedLatency.merge(h->latency);
    return _mergedLatency;
}

std::uint64_t
ServingWorkload::peakFlowTableEntries() const
{
    std::uint64_t peak = 0;
    for (const auto &h : hosts)
        peak = std::max(peak, h->peakTable);
    return peak;
}

ServingReport
ServingWorkload::report() const
{
    ServingReport r;
    std::uint64_t goodputBytes = 0;
    for (const auto &h : hosts) {
        r.arrivals += h->arrivals;
        r.issued += h->issued;
        r.completed += h->completed;
        r.failed += h->failed;
        r.shed += h->shed;
        goodputBytes += h->goodputBytes;
        r.peakFlowTable = std::max(r.peakFlowTable, h->peakTable);
        r.lastDoneAt = std::max(r.lastDoneAt, h->lastDoneAt);
    }
    const sim::Histogram &lat = latency();
    r.p50Ns = lat.percentile(50.0);
    r.p99Ns = lat.percentile(99.0);
    r.p999Ns = lat.percentile(99.9);
    r.meanNs = lat.mean();
    Tick window = std::max(cfg.duration, r.lastDoneAt);
    if (window > 0) {
        double seconds =
            static_cast<double>(window) / static_cast<double>(sec);
        r.achievedRps = static_cast<double>(r.completed) / seconds;
        r.goodputMBs = static_cast<double>(goodputBytes) /
                       (seconds * 1e6);
    }
    return r;
}

} // namespace nectar::serving
