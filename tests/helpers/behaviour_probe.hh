/**
 * @file
 * BehaviourProbe: a digest of what a simulated system did, blind to
 * how many events it took.
 *
 * The event-trace fingerprint (EventQueue::fingerprint) changes when
 * a model fires fewer events, even if every packet arrives at the
 * same tick.  This probe folds only observable behaviour: every
 * transport send, reliable outcome, delivery, crash and restart with
 * its tick, then the end-of-run tick and every HUB's, datalink's and
 * transport's counters.  A change that removes events but simulates
 * the same system keeps the digest.
 */

#pragma once

#include <cstdint>

#include "nectarine/system.hh"
#include "sim/digest.hh"
#include "transport/probe.hh"

namespace nectar::testutil {

class BehaviourProbe : public transport::DeliveryProbe
{
  public:
    /** Attach to every site of @p sys (and sites added later). */
    explicit BehaviourProbe(nectarine::NectarSystem &sys) : sys(sys)
    {
        sys.attachDeliveryProbe(this);
    }

    ~BehaviourProbe() override { sys.attachDeliveryProbe(nullptr); }

    BehaviourProbe(const BehaviourProbe &) = delete;
    BehaviourProbe &operator=(const BehaviourProbe &) = delete;

    void
    onReliableSend(transport::CabAddress src, transport::CabAddress dst,
                   std::uint16_t mb, std::uint32_t msgId,
                   std::size_t bytes) override
    {
        event(Kind::reliableSend, src, dst, mb, msgId, bytes);
    }

    void
    onReliableOutcome(transport::CabAddress src,
                      transport::CabAddress dst, std::uint16_t mb,
                      std::uint32_t msgId, bool ok) override
    {
        event(Kind::outcome, src, dst, mb, msgId, ok ? 1 : 0);
    }

    void
    onDatagramSend(transport::CabAddress src, transport::CabAddress dst,
                   std::uint16_t mb, std::uint32_t msgId) override
    {
        event(Kind::datagramSend, src, dst, mb, msgId, 0);
    }

    void
    onDeliver(transport::CabAddress src, transport::CabAddress dst,
              std::uint16_t mb, std::uint32_t msgId, bool reliable,
              std::size_t bytes) override
    {
        event(reliable ? Kind::reliableDeliver : Kind::datagramDeliver,
              src, dst, mb, msgId, bytes);
    }

    void
    onCrash(transport::CabAddress addr) override
    {
        event(Kind::crash, addr, addr, 0, 0, 0);
    }

    void
    onRestart(transport::CabAddress addr) override
    {
        event(Kind::restart, addr, addr, 0, 0, 0);
    }

    /** Fold a scenario-specific result (say, a workload report). */
    void mix(std::uint64_t v) { d.mix(v); }

    /**
     * Fold the end state: the final tick, then in index order every
     * HUB's counters and every site's datalink and transport
     * counters.  Call once, after the run.
     */
    std::uint64_t
    finish()
    {
        d.mix(static_cast<std::uint64_t>(sys.eventq().now()));
        for (int i = 0; i < sys.topo().numHubs(); ++i)
            foldHub(sys.topo().hubAt(i).stats());
        for (std::size_t i = 0; i < sys.siteCount(); ++i) {
            foldDatalink(sys.site(i).datalink->stats());
            foldTransport(sys.site(i).transport->stats());
        }
        return d.value();
    }

  private:
    enum class Kind : std::uint64_t
    {
        reliableSend = 1,
        outcome,
        datagramSend,
        reliableDeliver,
        datagramDeliver,
        crash,
        restart,
    };

    void
    event(Kind k, transport::CabAddress src, transport::CabAddress dst,
          std::uint16_t mb, std::uint32_t msgId, std::uint64_t arg)
    {
        d.mix(static_cast<std::uint64_t>(sys.eventq().now()));
        d.mix(static_cast<std::uint64_t>(k));
        d.mix(src);
        d.mix(dst);
        d.mix(mb);
        d.mix(msgId);
        d.mix(arg);
    }

    void
    fold(const sim::Counter &c)
    {
        d.mix(c.value());
    }

    void
    foldHub(const hub::HubStats &s)
    {
        for (const sim::Counter *c :
             {&s.opensOk, &s.opensFailed, &s.closes, &s.repliesSent,
              &s.packetsForwarded, &s.dataBytes, &s.queueOverflows,
              &s.staleReplies, &s.disabledDrops, &s.badCommands,
              &s.retryGiveUps, &s.stuckDrops, &s.readyRearms,
              &s.idleCloses, &s.cmdAbandons})
            fold(*c);
    }

    void
    foldDatalink(const datalink::DatalinkStats &s)
    {
        for (const sim::Counter *c :
             {&s.packetsSent, &s.packetsReceived, &s.bytesSent,
              &s.routeTimeouts, &s.readyTimeouts, &s.recoveries,
              &s.sendFailures, &s.staleReplies, &s.corruptPackets})
            fold(*c);
    }

    void
    foldTransport(const transport::TransportStats &s)
    {
        for (const sim::Counter *c :
             {&s.messagesSent, &s.messagesDelivered, &s.packetsSent,
              &s.packetsReceived, &s.acksSent, &s.acksReceived,
              &s.retransmissions, &s.checksumDrops, &s.duplicates,
              &s.outOfOrder, &s.deliveryStalls, &s.datagramsDropped,
              &s.sendFailures, &s.requestsSent, &s.requestRetries,
              &s.responsesServed, &s.requestsFailed,
              &s.cachedResponseHits, &s.messagesRecovered,
              &s.rtoBackoffs, &s.karnSuppressed, &s.unroutable,
              &s.crashDrops, &s.flowResyncs, &s.staleAcks,
              &s.flowEpochBumps, &s.mcastSends, &s.mcastHwPackets,
              &s.mcastUnicastPackets, &s.mcastFallbacks,
              &s.mcastRealigns, &s.mcastMemberFailures})
            fold(*c);
    }

    nectarine::NectarSystem &sys;
    sim::Digest d;
};

} // namespace nectar::testutil
