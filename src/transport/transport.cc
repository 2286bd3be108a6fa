#include "transport.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace nectar::transport {

Transport::Transport(cabos::Kernel &kernel, datalink::Datalink &dl,
                     NetworkDirectory &directory, CabAddress self,
                     const TransportConfig &config)
    : sim::Component(kernel.eventq(),
                     kernel.board().name() + ".transport"),
      _kernel(kernel), dl(dl), directory(directory), self(self),
      cfg(config)
{
    dl.rxHandler = [this](sim::PacketView &&packet, bool corrupted) {
        handlePacket(std::move(packet), corrupted);
    };
}

// --------------------------------------------------------------------
// Transmit helpers.
// --------------------------------------------------------------------

sim::Task<void>
Transport::transmitPacket(CabAddress dst, sim::PacketView packet)
{
    if (!_alive)
        co_return;
    co_await _kernel.board().cpu().compute(
        _kernel.costs().transportSendPerPacket);
    if (!_alive)
        co_return;
    _stats.packetsSent.add();
    if (dst == self) {
        // Local loopback: tasks on the same CAB communicate through
        // the mailboxes directly, without touching the Nectar-net.
        handlePacket(std::move(packet), false);
        co_return;
    }
    const topo::RouteHandle &route = directory.route(self, dst);
    if (route->empty()) {
        // Link failures partitioned us from the destination.  Drop;
        // the retransmission machinery retries, and succeeds once a
        // link heals or the directory finds a surviving path.
        _stats.unroutable.add();
        co_return;
    }
    bool ok = co_await dl.sendPacket(route, std::move(packet),
                                     cfg.mode);
    if (!ok) {
        // Route establishment failed after datalink retries; for the
        // stream protocol the retransmission machinery covers this,
        // for datagrams it is a loss.
        ;
    }
}

void
Transport::transmitAsync(CabAddress dst, sim::PacketView pkt)
{
    sim::spawn(transmitPacket(dst, std::move(pkt)));
}

// --------------------------------------------------------------------
// Datagram protocol.
// --------------------------------------------------------------------

sim::Task<bool>
Transport::sendDatagram(CabAddress dst, std::uint16_t dstMailbox,
                        sim::PacketView data)
{
    _stats.messagesSent.add();
    std::uint32_t msg_id = nextMsgId++;
    if (probe)
        probe->onDatagramSend(self, dst, dstMailbox, msg_id);
    auto frag_count = static_cast<std::uint16_t>(
        std::max<std::size_t>(1, (data.size() + cfg.mtu - 1) / cfg.mtu));

    for (std::uint16_t i = 0; i < frag_count; ++i) {
        std::size_t off = static_cast<std::size_t>(i) * cfg.mtu;
        std::size_t len = std::min<std::size_t>(cfg.mtu,
                                                data.size() - off);
        Header h;
        h.protocol = Proto::datagram;
        h.srcCab = self;
        h.dstCab = dst;
        h.dstMailbox = dstMailbox;
        h.msgId = msg_id;
        h.fragIndex = i;
        h.fragCount = frag_count;
        if (i + 1 == frag_count)
            h.flags |= flags::lastFragment;
        co_await transmitPacket(dst,
                                encodePacket(h, data.slice(off, len)));
    }
    co_return true;
}

// --------------------------------------------------------------------
// Byte-stream protocol (sender side).
// --------------------------------------------------------------------

Transport::SenderFlow &
Transport::senderFlow(CabAddress peer, std::uint16_t mb)
{
    auto key = flowKey(peer, mb);
    auto it = senders.find(key);
    if (it == senders.end()) {
        it = senders
                 .emplace(key,
                          std::make_unique<SenderFlow>(eventq()))
                 .first;
    }
    return *it->second;
}

namespace {

/** Parks the coroutine on a flow's waiter list. */
struct FlowWait
{
    std::vector<std::coroutine_handle<>> &list;

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) { list.push_back(h); }
    void await_resume() const {}
};

} // namespace

void
Transport::wakeFlow(SenderFlow &flow)
{
    // Both wakes only schedule, so nothing re-enters the lists, and
    // clearing them in place keeps their capacity.
    for (auto h : flow.waiters) {
        // Zero-delay continuation: the sender parked on this flow
        // resumes ahead of any same-tick arrivals still queued.
        eventq().scheduleAtFront([h] { h.resume(); });
    }
    flow.waiters.clear();
    // Multicast senders watch several flows at once through a
    // channel; signal and clear (they re-register per wait).
    for (auto *w : flow.watchers)
        w->push(true);
    flow.watchers.clear();
}

void
Transport::armTimer(CabAddress peer, std::uint16_t mb, SenderFlow &flow)
{
    auto &timers = _kernel.board().timers();
    _kernel.board().cpu().charge(_kernel.costs().timerOp);
    if (flow.rto == 0)
        flow.rto = cfg.retransmitTimeout;
    Tick rto = cfg.adaptiveRto ? flow.rto : cfg.retransmitTimeout;
    // Re-arm in place: on the ack-advances-window path the engine
    // just slides the deadline (no unlink/refile) instead of the
    // cancel+set churn this code used to do.
    flow.timer = timers.rearm(flow.timer, rto,
                              [this, peer, mb] { onTimeout(peer, mb); });
}

void
Transport::rttSample(SenderFlow &flow, Tick sample)
{
    _stats.rttSampleNs.record(static_cast<double>(sample));
    if (!flow.haveSrtt) {
        // First measurement (RFC 6298): SRTT = R, RTTVAR = R/2.
        flow.srtt = static_cast<double>(sample);
        flow.rttvar = flow.srtt / 2.0;
        flow.haveSrtt = true;
    } else {
        double err = static_cast<double>(sample) - flow.srtt;
        flow.rttvar = 0.75 * flow.rttvar + 0.25 * std::abs(err);
        flow.srtt += err / 8.0;
    }
    auto rto = static_cast<Tick>(flow.srtt + 4.0 * flow.rttvar);
    flow.rto = std::clamp(rto, cfg.minRto, cfg.maxRto);
    _stats.lastSrtt = flow.srtt;
    _stats.lastRttvar = flow.rttvar;
    _stats.lastRto = flow.rto;
}

void
Transport::resetFlow(SenderFlow &flow)
{
    flow.failed = true;
    flow.unacked.clear();
    // Fresh epoch: the next message restarts the sequence space, and
    // its (strictly larger) message id resynchronizes the receiver.
    flow.base = 0;
    flow.nextSeq = 0;
    flow.stalled = false;
    flow.haveSrtt = false;
    flow.srtt = flow.rttvar = 0;
    flow.rto = cfg.retransmitTimeout;
    _stats.flowEpochBumps.add();
    wakeFlow(flow);
}

void
Transport::onTimeout(CabAddress peer, std::uint16_t mb)
{
    SenderFlow &flow = senderFlow(peer, mb);
    if (flow.unacked.empty())
        return;

    flow.hadTimeout = true;
    if (!flow.stalled) {
        flow.stalled = true;
        flow.stallStart = now();
    }

    if (++flow.timeouts > cfg.maxRetransmits) {
        // The flow is broken: fail the pending send.
        _stats.sendFailures.add();
        resetFlow(flow);
        return;
    }

    if (cfg.adaptiveRto) {
        // Exponential backoff (Karn): double the timeout until an
        // unambiguous sample re-seeds the estimator.
        flow.rto = std::min(flow.rto * 2, cfg.maxRto);
        _stats.rtoBackoffs.add();
    }

    // Go-back-N: retransmit everything outstanding, in order.
    for (std::size_t i = 0; i < flow.unacked.size(); ++i) {
        Unacked &u = flow.unacked[i];
        u.retransmitted = true;
        _stats.retransmissions.add();
        transmitAsync(peer, u.pkt);
    }
    armTimer(peer, mb, flow);
}

sim::Task<bool>
Transport::sendReliable(CabAddress dst, std::uint16_t dstMailbox,
                        sim::PacketView data)
{
    _stats.messagesSent.add();
    if (!_alive) {
        _stats.sendFailures.add();
        co_return false;
    }
    SenderFlow &flow = senderFlow(dst, dstMailbox);

    // One message at a time per flow keeps receiver reassembly
    // state simple (fragments of one message are contiguous in
    // sequence space).
    co_await flow.mutex.lock();
    if (!_alive) {
        _stats.sendFailures.add();
        flow.mutex.unlock();
        co_return false;
    }
    flow.failed = false;
    flow.timeouts = 0;
    flow.hadTimeout = false;

    std::uint32_t msg_id = nextMsgId++;
    flow.currentMsgId = msg_id;
    if (probe)
        probe->onReliableSend(self, dst, dstMailbox, msg_id,
                              data.size());
    auto frag_count = static_cast<std::uint16_t>(
        std::max<std::size_t>(1, (data.size() + cfg.mtu - 1) / cfg.mtu));

    for (std::uint16_t i = 0; i < frag_count && !flow.failed; ++i) {
        // Sliding window: at most windowPackets outstanding.
        while (!flow.failed &&
               flow.nextSeq - flow.base >= cfg.windowPackets)
            co_await FlowWait{flow.waiters};
        if (flow.failed)
            break;

        std::size_t off = static_cast<std::size_t>(i) * cfg.mtu;
        std::size_t len = std::min<std::size_t>(cfg.mtu,
                                                data.size() - off);
        Header h;
        h.protocol = Proto::stream;
        h.srcCab = self;
        h.dstCab = dst;
        h.dstMailbox = dstMailbox;
        h.seq = flow.nextSeq++;
        h.window = static_cast<std::uint16_t>(cfg.windowPackets);
        h.msgId = msg_id;
        h.fragIndex = i;
        h.fragCount = frag_count;
        if (i + 1 == frag_count)
            h.flags |= flags::lastFragment;

        auto pkt = encodePacket(h, data.slice(off, len));
        // The retransmit queue holds a view of the same packet bytes,
        // not a copy.
        flow.unacked.push_back(Unacked{h.seq, pkt, now(), false});
        armTimer(dst, dstMailbox, flow);
        co_await transmitPacket(dst, std::move(pkt));
    }

    // Wait until everything is acknowledged (or the flow failed).
    while (!flow.failed && flow.base != flow.nextSeq)
        co_await FlowWait{flow.waiters};

    bool ok = !flow.failed;
    if (ok && flow.hadTimeout)
        _stats.messagesRecovered.add();
    if (probe)
        probe->onReliableOutcome(self, dst, dstMailbox, msg_id, ok);
    flow.mutex.unlock();
    co_return ok;
}

// --------------------------------------------------------------------
// Reliable multicast (sender side).
// --------------------------------------------------------------------

bool
Transport::frameFits(const topo::Route &route,
                     const sim::PacketView &packet) const
{
    if (cfg.mode != datalink::SwitchMode::packet)
        return true; // circuit switching streams; no frame limit
    // Mirror the datalink's packet-mode frame check: SOP + EOP +
    // data + per-hop command + closeAll must fit the input queues.
    std::uint32_t wire = 2 +
        static_cast<std::uint32_t>(packet.size()) +
        3 * (static_cast<std::uint32_t>(route.size()) + 1);
    return wire <= dl.config().maxWirePacketBytes;
}

sim::Task<void>
Transport::transmitMulticastPacket(
    const std::vector<CabAddress> &dsts, sim::PacketView packet,
    bool allowHardware, bool &usedHardware)
{
    if (!_alive)
        co_return;
    co_await _kernel.board().cpu().compute(
        _kernel.costs().transportSendPerPacket);
    if (!_alive)
        co_return;

    if (allowHardware && dsts.size() > 1) {
        const topo::RouteHandle &tree =
            directory.multicastRoute(self, dsts);
        if (!tree->empty() && frameFits(*tree, packet)) {
            // One transmission covers every member: the HUB crossbar
            // fans the bytes out along the tree (Section 4.2.2).
            _stats.packetsSent.add();
            _stats.mcastHwPackets.add();
            usedHardware = true;
            co_await dl.sendPacket(tree, std::move(packet), cfg.mode);
            co_return;
        }
        // No surviving tree, or the open list would overflow a
        // packet-switched frame: spill to unicast fan-out.
        _stats.mcastFallbacks.add();
    }
    for (CabAddress dst : dsts) {
        const topo::RouteHandle &route = directory.route(self, dst);
        if (route->empty()) {
            _stats.unroutable.add();
            continue; // member's RTO machinery keeps retrying
        }
        _stats.packetsSent.add();
        _stats.mcastUnicastPackets.add();
        co_await dl.sendPacket(route, packet, cfg.mode);
    }
}

sim::Task<void>
Transport::multicastWait(const std::vector<SenderFlow *> &flows)
{
    sim::Channel<bool> progress(eventq());
    for (auto *f : flows)
        f->watchers.push_back(&progress);
    co_await progress.pop();
    for (auto *f : flows)
        std::erase(f->watchers, &progress);
}

sim::Task<Transport::MulticastResult>
Transport::sendReliableMulticast(std::vector<CabAddress> dsts,
                                 std::uint16_t dstMailbox,
                                 sim::PacketView data,
                                 bool allowHardware)
{
    std::sort(dsts.begin(), dsts.end());
    dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());
    if (dsts.empty())
        sim::fatal(name() + ": multicast needs destinations");
    for (CabAddress d : dsts) {
        if (d == self)
            sim::fatal(name() + ": multicast to self (keep the local "
                       "contribution local)");
    }

    _stats.messagesSent.add();
    _stats.mcastSends.add();
    MulticastResult result;
    if (!_alive) {
        _stats.sendFailures.add();
        result.ok = false;
        result.failed = dsts;
        co_return result;
    }

    std::vector<SenderFlow *> flows;
    flows.reserve(dsts.size());
    for (CabAddress d : dsts)
        flows.push_back(&senderFlow(d, dstMailbox));
    // dsts is sorted, so nested multicasts acquire in one global
    // order; unicast senders hold at most one flow mutex.
    for (auto *f : flows)
        co_await f->mutex.lock();

    if (!_alive) {
        _stats.sendFailures.add();
        result.ok = false;
        result.failed = dsts;
        for (auto *f : flows)
            f->mutex.unlock();
        co_return result;
    }

    // Fragments share one sequence space across every member, so
    // each fragment is encoded exactly once.  Flows idle at
    // different sequence origins (earlier unicast traffic on the
    // same mailbox) are realigned to zero; receivers resynchronize
    // on the fresh message id, exactly as after a flow reset.
    bool aligned = true;
    for (auto *f : flows)
        if (f->nextSeq != flows.front()->nextSeq)
            aligned = false;
    if (!aligned) {
        for (auto *f : flows)
            f->base = f->nextSeq = 0;
        _stats.mcastRealigns.add();
    }

    std::uint32_t msg_id = nextMsgId++;
    for (auto *f : flows) {
        f->failed = false;
        f->timeouts = 0;
        f->hadTimeout = false;
        f->currentMsgId = msg_id;
    }
    if (probe) {
        for (CabAddress d : dsts)
            probe->onReliableSend(self, d, dstMailbox, msg_id,
                                  data.size());
    }

    auto anyActive = [&flows] {
        for (auto *f : flows)
            if (!f->failed)
                return true;
        return false;
    };
    auto windowFull = [&flows, this] {
        for (auto *f : flows)
            if (!f->failed &&
                f->nextSeq - f->base >= cfg.windowPackets)
                return true;
        return false;
    };

    std::uint32_t seq0 = flows.front()->nextSeq;
    auto frag_count = static_cast<std::uint16_t>(
        std::max<std::size_t>(1, (data.size() + cfg.mtu - 1) / cfg.mtu));

    for (std::uint16_t i = 0; i < frag_count; ++i) {
        // The window advances at the pace of the slowest member.
        while (anyActive() && windowFull())
            co_await multicastWait(flows);
        if (!anyActive())
            break;

        std::size_t off = static_cast<std::size_t>(i) * cfg.mtu;
        std::size_t len = std::min<std::size_t>(cfg.mtu,
                                                data.size() - off);
        Header h;
        h.protocol = Proto::stream;
        h.flags = flags::multicast;
        h.srcCab = self;
        h.dstCab = broadcastAddress;
        h.dstMailbox = dstMailbox;
        h.seq = seq0 + i;
        h.window = static_cast<std::uint16_t>(cfg.windowPackets);
        h.msgId = msg_id;
        h.fragIndex = i;
        h.fragCount = frag_count;
        if (i + 1 == frag_count)
            h.flags |= flags::lastFragment;

        auto pkt = encodePacket(h, data.slice(off, len));
        // Every member's retransmit queue holds a view of the same
        // packet bytes; per-member timers retransmit unicast.
        std::vector<CabAddress> active;
        for (std::size_t j = 0; j < flows.size(); ++j) {
            SenderFlow &f = *flows[j];
            if (f.failed)
                continue;
            f.nextSeq = h.seq + 1;
            f.unacked.push_back(Unacked{h.seq, pkt, now(), false});
            armTimer(dsts[j], dstMailbox, f);
            active.push_back(dsts[j]);
        }
        co_await transmitMulticastPacket(active, std::move(pkt),
                                         allowHardware,
                                         result.usedHardware);
    }

    // Wait until every surviving member acknowledged everything.
    for (;;) {
        bool pending = false;
        for (auto *f : flows)
            if (!f->failed && f->base != f->nextSeq)
                pending = true;
        if (!pending)
            break;
        co_await multicastWait(flows);
    }

    bool recovered = false;
    for (std::size_t j = 0; j < flows.size(); ++j) {
        if (flows[j]->failed) {
            result.failed.push_back(dsts[j]);
            _stats.mcastMemberFailures.add();
        } else if (flows[j]->hadTimeout) {
            recovered = true;
        }
    }
    result.ok = result.failed.empty();
    if (recovered)
        _stats.messagesRecovered.add();
    if (probe) {
        for (std::size_t j = 0; j < flows.size(); ++j)
            probe->onReliableOutcome(self, dsts[j], dstMailbox, msg_id,
                                     !flows[j]->failed);
    }
    for (auto *f : flows)
        f->mutex.unlock();
    co_return result;
}

void
Transport::handleAck(const Header &h)
{
    _stats.acksReceived.add();
    // The ack's srcMailbox echoes the flow's destination mailbox.
    SenderFlow &flow = senderFlow(h.srcCab, h.srcMailbox);
    if (h.msgId < flow.currentMsgId) {
        // The ack describes a flow epoch discarded by a reset or
        // crash; acting on its cumulative ack would skip unsent
        // sequence numbers of the new epoch (silent loss).
        _stats.staleAcks.add();
        return;
    }
    if (h.ack <= flow.base)
        return; // stale or duplicate ack
    flow.base = std::min(h.ack, flow.nextSeq);
    flow.timeouts = 0;

    // RTT from the highest packet this ack newly covers.  Karn's
    // rule: retransmitted packets give ambiguous samples, skip them.
    while (!flow.unacked.empty() && flow.unacked.front().seq < flow.base) {
        const Unacked &u = flow.unacked.front();
        if (u.seq == flow.base - 1) {
            if (u.retransmitted)
                _stats.karnSuppressed.add();
            else
                rttSample(flow, now() - u.sentAt);
        }
        flow.unacked.pop_front();
    }

    if (flow.stalled) {
        // Forward progress after a timeout episode: recovered.
        _stats.recoveryNs.record(
            static_cast<double>(now() - flow.stallStart));
        flow.stalled = false;
    }

    auto &timers = _kernel.board().timers();
    if (flow.unacked.empty()) {
        if (timers.armed(flow.timer))
            timers.cancel(flow.timer);
    } else {
        armTimer(h.srcCab, h.srcMailbox, flow);
    }
    wakeFlow(flow);
}

// --------------------------------------------------------------------
// Receive path.
// --------------------------------------------------------------------

void
Transport::handlePacket(sim::PacketView &&packet, bool corrupted)
{
    if (!_alive) {
        // A crashed CAB's board is dark: arriving packets vanish.
        _stats.crashDrops.add();
        return;
    }
    _stats.packetsReceived.add();

    sim::PacketView payload;
    auto header = decodePacket(packet, payload);
    if (!header || corrupted || packet.corrupted()) {
        // Damaged packets are dropped; the byte-stream protocol's
        // retransmission recovers them (Section 6.2.2).
        _stats.checksumDrops.add();
        return;
    }
    if (header->dstCab != self &&
        !(header->flags & flags::multicast)) {
        _stats.checksumDrops.add(); // misrouted; treat as damage
        return;
    }

    // Charge the receive-path CPU cost, then process.  The payload
    // view waits in rxWork: segment descriptors and refcounts, no
    // payload bytes.
    rxWork.push_back(RxWork{*header, std::move(payload)});
    _kernel.board().cpu().chargeThen(
        _kernel.costs().transportRecvPerPacket,
        [this] { processNextPacket(); });
}

void
Transport::processNextPacket()
{
    RxWork w = std::move(rxWork.front());
    rxWork.pop_front();
    processPacket(w.header, std::move(w.payload));
}

void
Transport::processPacket(const Header &h, sim::PacketView &&payload)
{
    switch (h.protocol) {
      case Proto::stream:
        handleStreamData(h, std::move(payload));
        break;
      case Proto::ack:
        handleAck(h);
        break;
      case Proto::datagram:
        handleDatagram(h, std::move(payload));
        break;
      case Proto::request:
        handleRequest(h, std::move(payload));
        break;
      case Proto::response:
        handleResponse(h, std::move(payload));
        break;
      default:
        _stats.checksumDrops.add();
        break;
    }
}

bool
Transport::deliver(std::uint16_t dstMailbox, sim::PacketView &&msg,
                   std::uint64_t tag)
{
    cabos::Mailbox *box = _kernel.mailbox(dstMailbox);
    if (!box)
        return false;
    cabos::Message m(std::move(msg), tag);
    if (!box->tryPut(std::move(m)))
        return false;
    _stats.messagesDelivered.add();
    return true;
}

void
Transport::sendAck(const Header &h, std::uint32_t nextExpected,
                   std::uint32_t epoch)
{
    Header ack;
    ack.protocol = Proto::ack;
    ack.srcCab = self;
    ack.dstCab = h.srcCab;
    // Echo the flow's destination mailbox so the sender can find its
    // flow state.
    ack.srcMailbox = h.dstMailbox;
    ack.ack = nextExpected;
    ack.msgId = epoch;
    _stats.acksSent.add();
    transmitAsync(h.srcCab, encodePacket(ack, sim::PacketView{}));
}

void
Transport::handleStreamData(const Header &h, sim::PacketView &&payload)
{
    auto key = flowKey(h.srcCab, h.dstMailbox);
    ReceiverFlow &flow = receivers[key];

    if (flow.expected != 0 && h.seq == 0 && h.fragIndex == 0 &&
        h.msgId > flow.highestMsgId) {
        // The peer reset its flow epoch (send failure or CAB
        // restart) and is starting over from sequence zero with a
        // message id beyond anything seen: resynchronize.  Stale
        // retransmits of old messages fail the msgId test and fall
        // through to the duplicate path instead.
        flow.expected = 0;
        flow.assembling = false;
        flow.assembly = sim::PacketView{};
        _stats.flowResyncs.add();
    }

    if (h.seq < flow.expected) {
        _stats.duplicates.add();
        sendAck(h, flow.expected, flow.highestMsgId);
        return;
    }
    if (h.seq > flow.expected) {
        // Go-back-N receiver: out-of-order packets are discarded and
        // the sender learns the next needed seq from the dup-ack.
        _stats.outOfOrder.add();
        sendAck(h, flow.expected, flow.highestMsgId);
        return;
    }

    // In-order packet: reassemble.
    if (h.fragIndex == 0) {
        flow.assembling = true;
        flow.msgId = h.msgId;
        flow.assembly = sim::PacketView{};
        flow.highestMsgId = std::max(flow.highestMsgId, h.msgId);
    }
    if (!flow.assembling || flow.msgId != h.msgId) {
        // Mid-message fragment without a start: protocol confusion
        // (e.g. after a failed flow); resynchronize by dropping.
        flow.assembling = false;
        sendAck(h, flow.expected, flow.highestMsgId);
        return;
    }

    if (h.flags & flags::lastFragment) {
        // Deliver before acknowledging: a full mailbox stalls the
        // flow (backpressure) rather than losing the message.  The
        // delivered message chains the fragment views; nothing is
        // copied (delivery stalls keep the chain for the retry).
        sim::PacketView whole =
            sim::PacketView::concat(flow.assembly, payload);
        std::size_t bytes = whole.size();
        if (!deliver(h.dstMailbox, std::move(whole), h.msgId)) {
            _stats.deliveryStalls.add();
            sendAck(h, flow.expected, flow.highestMsgId);
            return;
        }
        if (probe)
            probe->onDeliver(h.srcCab, self, h.dstMailbox, h.msgId,
                             true, bytes);
        flow.assembling = false;
        flow.assembly = sim::PacketView{};
    } else {
        flow.assembly.append(payload);
    }

    ++flow.expected;
    sendAck(h, flow.expected, flow.highestMsgId);
}

void
Transport::handleDatagram(const Header &h, sim::PacketView &&payload)
{
    if (h.fragCount <= 1) {
        std::size_t bytes = payload.size();
        if (!deliver(h.dstMailbox, std::move(payload), h.msgId)) {
            _stats.datagramsDropped.add();
        } else if (probe) {
            probe->onDeliver(h.srcCab, self, h.dstMailbox, h.msgId,
                             false, bytes);
        }
        return;
    }

    // Multi-fragment datagram: reassemble per (source, message).
    auto key = (static_cast<std::uint64_t>(h.srcCab) << 32) | h.msgId;
    DatagramAssembly &as = assemblyFor(key, h.fragCount);
    if (h.fragIndex >= as.fragCount)
        return; // malformed: the datagram has no such fragment
    std::optional<sim::PacketView> &frag = as.frags[h.fragIndex];
    if (!frag)
        ++as.received;
    frag = std::move(payload);
    if (as.received < as.fragCount)
        return;

    sim::PacketView whole;
    for (const auto &f : as.frags)
        whole.append(*f);
    releaseAssembly(as);
    std::size_t bytes = whole.size();
    if (!deliver(h.dstMailbox, std::move(whole), h.msgId)) {
        _stats.datagramsDropped.add();
    } else if (probe) {
        probe->onDeliver(h.srcCab, self, h.dstMailbox, h.msgId, false,
                         bytes);
    }

    // Opportunistically discard stale partial datagrams (a fragment
    // was lost and will never arrive).
    for (DatagramAssembly &slot : datagramAsm) {
        if (slot.fragCount != 0 && now() - slot.started > 100 * ms)
            releaseAssembly(slot);
    }
}

Transport::DatagramAssembly &
Transport::assemblyFor(std::uint64_t key, std::uint16_t fragCount)
{
    DatagramAssembly *freeSlot = nullptr;
    for (DatagramAssembly &slot : datagramAsm) {
        if (slot.fragCount == 0) {
            if (!freeSlot)
                freeSlot = &slot;
        } else if (slot.key == key) {
            return slot;
        }
    }
    DatagramAssembly &as =
        freeSlot ? *freeSlot : datagramAsm.emplace_back();
    as.key = key;
    as.fragCount = fragCount;
    as.received = 0;
    as.started = now();
    as.frags.assign(fragCount, std::nullopt);
    return as;
}

void
Transport::releaseAssembly(DatagramAssembly &as)
{
    as.fragCount = 0;
    for (auto &f : as.frags)
        f.reset();
}

// --------------------------------------------------------------------
// Request-response protocol.
// --------------------------------------------------------------------

sim::Task<std::optional<std::vector<std::uint8_t>>>
Transport::request(CabAddress dst, std::uint16_t serviceMailbox,
                   sim::PacketView req)
{
    if (req.size() > cfg.mtu)
        sim::fatal(name() + ": request exceeds one MTU; use the "
                   "byte-stream protocol for bulk data");

    _stats.requestsSent.add();
    std::uint32_t seq = nextRequestSeq++;

    Header h;
    h.protocol = Proto::request;
    h.srcCab = self;
    h.dstCab = dst;
    h.dstMailbox = serviceMailbox;
    h.seq = seq;
    auto pkt = encodePacket(h, req);

    sim::Channel<std::optional<std::vector<std::uint8_t>>> responses(
        eventq());
    pendingRequests[seq] = &responses;

    std::optional<std::vector<std::uint8_t>> result;
    for (int attempt = 0; attempt < cfg.maxRequestAttempts; ++attempt) {
        if (attempt > 0)
            _stats.requestRetries.add();
        co_await transmitPacket(dst, pkt);

        // A timeout pushes nullopt; a real (possibly empty) response
        // pushes a value.
        // nectar-lint: capture-ok timer fires only while this frame
        // is suspended on pop() below, and is cancelled on resume
        sim::EventId timer = eventq().scheduleIn(
            cfg.requestTimeout,
            [&responses] { responses.push(std::nullopt); },
            sim::EventPriority::software);
        auto r = co_await responses.pop();
        eventq().cancel(timer);
        if (r.has_value()) {
            result = std::move(r);
            break;
        }
    }
    pendingRequests.erase(seq);
    if (!result)
        _stats.requestsFailed.add();
    co_return result;
}

void
Transport::handleRequest(const Header &h, sim::PacketView &&payload)
{
    std::uint64_t tag =
        (static_cast<std::uint64_t>(h.srcCab) << 32) | h.seq;

    // Duplicate suppression: answer repeats from the response cache.
    auto cached = responseCache.find(tag);
    if (cached != responseCache.end()) {
        _stats.cachedResponseHits.add();
        Header rh;
        rh.protocol = Proto::response;
        rh.srcCab = self;
        rh.dstCab = h.srcCab;
        rh.seq = h.seq;
        transmitAsync(h.srcCab, encodePacket(rh, cached->second));
        return;
    }
    if (pendingServer.count(tag))
        return; // already queued for the server thread

    pendingServer[tag] = ServerRequest{h.srcCab, h.srcMailbox, h.seq};
    if (!deliver(h.dstMailbox, std::move(payload), tag)) {
        // Service mailbox missing or full: drop; the client retries.
        pendingServer.erase(tag);
        _stats.datagramsDropped.add();
    }
}

void
Transport::respond(std::uint64_t requestTag, sim::PacketView response)
{
    if (response.size() > cfg.mtu)
        sim::fatal(name() + ": response exceeds one MTU");

    auto it = pendingServer.find(requestTag);
    if (it == pendingServer.end())
        return; // duplicate respond or unknown tag
    ServerRequest sr = it->second;
    pendingServer.erase(it);

    Header h;
    h.protocol = Proto::response;
    h.srcCab = self;
    h.dstCab = sr.client;
    h.dstMailbox = sr.replyMailbox;
    h.seq = sr.seq;
    _stats.responsesServed.add();
    transmitAsync(sr.client, encodePacket(h, response));

    // Cache for duplicate-request suppression (bounded FIFO).
    responseCache[requestTag] = std::move(response);
    responseCacheOrder.push_back(requestTag);
    while (responseCacheOrder.size() > cfg.responseCacheSize) {
        responseCache.erase(responseCacheOrder.front());
        responseCacheOrder.pop_front();
    }
}

void
Transport::handleResponse(const Header &h, sim::PacketView &&payload)
{
    auto it = pendingRequests.find(h.seq);
    if (it == pendingRequests.end())
        return; // late duplicate response
    // The response crosses back into the caller as owned bytes (the
    // application boundary): one materialization, at most one MTU.
    it->second->push(payload.toVector());
}

// --------------------------------------------------------------------
// Fault injection: CAB crash and restart.
// --------------------------------------------------------------------

void
Transport::crash()
{
    if (!_alive)
        return;
    _alive = false;

    auto &timers = _kernel.board().timers();
    for (auto &[key, flowPtr] : senders) {
        SenderFlow &flow = *flowPtr;
        if (timers.armed(flow.timer))
            timers.cancel(flow.timer);
        bool active = !flow.unacked.empty() ||
                      flow.base != flow.nextSeq;
        if (active)
            _stats.sendFailures.add();
        resetFlow(flow);
    }

    // Receiver-side and RPC state is gone with the board's memory.
    // Sender flow objects stay (coroutines may hold references);
    // their contents were reset above.
    receivers.clear();
    datagramAsm.clear();
    pendingServer.clear();
    responseCache.clear();
    responseCacheOrder.clear();

    // Fail pending RPCs promptly: the attempt loop retries against a
    // dead board and gives up after maxRequestAttempts.
    for (auto &[seq, chan] : pendingRequests)
        chan->push(std::nullopt);

    if (probe)
        probe->onCrash(self);
}

void
Transport::restart()
{
    if (_alive)
        return;
    _alive = true;
    // The message-id space jumps past everything used before the
    // crash (a boot counter in stable storage), so receivers treat
    // post-restart messages as fresh epochs and stale pre-crash
    // retransmits as duplicates.
    nextMsgId += msgIdRestartJump;
    if (probe)
        probe->onRestart(self);
}

} // namespace nectar::transport
