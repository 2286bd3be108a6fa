/**
 * @file
 * Host-time spans and the per-layer counter read-out.
 */

#include <malloc.h>

#include <algorithm>

#include "bench.hh"
#include "nectarine/system.hh"

namespace nectarbench {

using nectar::sim::Tick;

Scope::Scope(Recorder &rec, const char *name)
    : rec(rec), name(name), start(Clock::now())
{
    if (!rec._tracing)
        return;
    Span s;
    s.name = name;
    s.startUs =
        std::chrono::duration<double, std::micro>(start - rec.origin)
            .count();
    s.parent = rec.open.empty() ? -1 : rec.open.back();
    index = static_cast<int>(rec._spans.size());
    rec._spans.push_back(std::move(s));
    rec.open.push_back(index);
}

Scope::~Scope()
{
    const Clock::time_point end = Clock::now();
    rec._phases[name] +=
        std::chrono::duration<double>(end - start).count();
    if (index < 0)
        return;
    rec._spans[static_cast<std::size_t>(index)].endUs =
        std::chrono::duration<double, std::micro>(end - rec.origin)
            .count();
    rec.open.pop_back();
}

void
Layers::max(const std::string &name, double v)
{
    auto [it, fresh] = values.emplace(name, v);
    if (!fresh)
        it->second = std::max(it->second, v);
}

double
heapInUseMb()
{
    // The allocator's own accounting: unlike RSS it does not depend on
    // whether a build reuses pages an earlier teardown freed.
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1 << 20);
}

namespace {

double
busyFraction(Tick busy, Tick end)
{
    return end > 0 ? static_cast<double>(busy) / static_cast<double>(end)
                   : 0.0;
}

/** Max and mean of a set of busy fractions. */
struct BusySummary
{
    double maxFrac = 0;
    double sum = 0;
    std::size_t n = 0;

    void
    add(double f)
    {
        maxFrac = std::max(maxFrac, f);
        sum += f;
        ++n;
    }

    double mean() const { return n ? sum / static_cast<double>(n) : 0; }
};

} // namespace

void
collectLayers(nectar::nectarine::NectarSystem &sys, Tick end,
              Layers &out)
{
    nectar::topo::Topology &topo = sys.topo();

    out.add("topo.route_compiles",
            static_cast<double>(topo.tableCompiles()));

    for (int h = 0; h < topo.numHubs(); ++h) {
        const nectar::hub::HubStats &s = topo.hubAt(h).stats();
        out.add("hub.packets_forwarded",
                static_cast<double>(s.packetsForwarded.value()));
        out.add("hub.data_bytes",
                static_cast<double>(s.dataBytes.value()));
        out.add("hub.opens_ok", static_cast<double>(s.opensOk.value()));
        out.add("hub.opens_failed",
                static_cast<double>(s.opensFailed.value()));
        out.add("hub.queue_overflows",
                static_cast<double>(s.queueOverflows.value()));
        out.add("hub.stuck_drops",
                static_cast<double>(s.stuckDrops.value()));
        out.add("hub.cmd_abandons",
                static_cast<double>(s.cmdAbandons.value()));
        out.add("hub.idle_closes",
                static_cast<double>(s.idleCloses.value()));
    }

    BusySummary trunk;
    double trunkBytes = 0;
    for (const auto &link : topo.hubLinks()) {
        for (const nectar::phys::FiberLink *f : {link.ab, link.ba}) {
            trunk.add(busyFraction(f->busyTicks(), end));
            trunkBytes += static_cast<double>(f->bytesSent());
        }
    }
    out.max("phys.trunk_busy_frac_max", trunk.maxFrac);
    out.max("phys.trunk_busy_frac_mean", trunk.mean());
    out.add("phys.trunk_bytes", trunkBytes);

    BusySummary cabLink;
    BusySummary cpu;
    for (std::size_t i = 0; i < sys.siteCount(); ++i) {
        nectar::nectarine::CabSite &site = sys.site(i);
        const auto &fibers =
            topo.endpointFibers(site.at.hubIndex, site.at.port);
        cabLink.add(busyFraction(fibers.forward->busyTicks(), end));
        cabLink.add(busyFraction(fibers.reverse->busyTicks(), end));

        nectar::cab::Cab &board = *site.board;
        cpu.add(busyFraction(board.cpu().busyTicks(), end));
        const nectar::cab::CabStats &c = board.stats();
        out.add("cab.tx_packets",
                static_cast<double>(c.txPackets.value()));
        out.add("cab.rx_packets",
                static_cast<double>(c.rxPackets.value()));
        out.add("cab.rx_dropped",
                static_cast<double>(c.rxDropped.value()));

        out.add("cabos.thread_switches",
                static_cast<double>(site.kernel->threadSwitches()));

        const nectar::datalink::DatalinkStats &d =
            site.datalink->stats();
        out.add("datalink.packets_sent",
                static_cast<double>(d.packetsSent.value()));
        out.add("datalink.route_timeouts",
                static_cast<double>(d.routeTimeouts.value()));
        out.add("datalink.ready_timeouts",
                static_cast<double>(d.readyTimeouts.value()));
        out.add("datalink.recoveries",
                static_cast<double>(d.recoveries.value()));
        out.add("datalink.send_failures",
                static_cast<double>(d.sendFailures.value()));

        const nectar::transport::TransportStats &t =
            site.transport->stats();
        out.add("transport.messages_sent",
                static_cast<double>(t.messagesSent.value()));
        out.add("transport.packets_sent",
                static_cast<double>(t.packetsSent.value()));
        out.add("transport.retransmissions",
                static_cast<double>(t.retransmissions.value()));
        out.add("transport.requests_sent",
                static_cast<double>(t.requestsSent.value()));
        out.add("transport.responses_served",
                static_cast<double>(t.responsesServed.value()));
        out.add("transport.request_retries",
                static_cast<double>(t.requestRetries.value()));
        out.add("transport.requests_failed",
                static_cast<double>(t.requestsFailed.value()));
        out.add("transport.duplicates",
                static_cast<double>(t.duplicates.value()));
        out.add("transport.mcast_hw_packets",
                static_cast<double>(t.mcastHwPackets.value()));
        out.add("transport.mcast_unicast_packets",
                static_cast<double>(t.mcastUnicastPackets.value()));
        out.add("transport.mcast_fallbacks",
                static_cast<double>(t.mcastFallbacks.value()));
    }
    out.max("phys.cab_link_busy_frac_max", cabLink.maxFrac);
    out.max("cab.cpu_busy_frac_max", cpu.maxFrac);
    out.max("cab.cpu_busy_frac_mean", cpu.mean());
}

} // namespace nectarbench
