#include "port.hh"

#include <algorithm>

#include "hub/commands.hh"
#include "hub/hub.hh"
#include "sim/logging.hh"

namespace nectar::hub {

using phys::ItemKind;
using phys::WireItem;

IoPort::IoPort(Hub &hub, PortId id, int queueCapacity)
    : sim::Component(hub.eventq(),
                     hub.name() + ".port" + std::to_string(id)),
      hub(hub), _id(id),
      qCapacity(static_cast<std::uint32_t>(queueCapacity))
{
}

void
IoPort::setReady(bool r)
{
    if (r && !readyBit)
        hub.noteOutputMoved(_id);
    readyBit = r;
    if (r && readyWatchdog != sim::invalidEventId) {
        if (eventq().pending(readyWatchdog))
            eventq().cancel(readyWatchdog);
        readyWatchdog = sim::invalidEventId;
    }
}

void
IoPort::flushQueue()
{
    q.clear();
    qBytes = 0;
    headBlockedSince = 0;
    cmdPending = false;
    cmdParked = false;
    cmdResubmitted = false;
}

void
IoPort::transmit(const WireItem &item, bool stolen)
{
    if (!out)
        sim::panic(name() + ": transmit with no outgoing fiber");
    // A start-of-packet leaving the output register clears the ready
    // bit until the downstream queue signals that it drained
    // (Section 4.2.3).
    if (item.kind == ItemKind::startOfPacket) {
        readyBit = false;
        armReadyWatchdog();
    }
    if (stolen)
        out->sendStolen(item);
    else
        out->send(item);
}

void
IoPort::fiberDeliver(WireItem item, Tick firstByte, Tick lastByte)
{
    if (!_enabled) {
        hub.stats().disabledDrops.add();
        return;
    }

    switch (item.kind) {
      case ItemKind::readySignal:
        // Hop-by-hop flow control: the downstream queue drained.
        setReady(true);
        return;
      case ItemKind::reply:
        if (readyProbeOutstanding &&
            static_cast<Op>(item.reply.op) == Op::echo &&
            item.reply.hubId == farHubId &&
            item.reply.param == readyProbeTag) {
            // The ready probe's answer: everything sent before it has
            // left the far queue, so a bit still clear means its
            // signal was lost.
            readyProbeOutstanding = false;
            if (!readyBit && readyProbed)
                rearmReady();
            return;
        }
        // Replies travel backward along the route, stealing cycles;
        // they never enter the input queue (Section 4.2.1).
        hub.forwardReplyReverse(_id, item.reply);
        return;
      default:
        break;
    }

    if (qBytes + item.byteLength() > qCapacity) {
        hub.stats().queueOverflows.add();
        hub.countError();
        hub.monitorRecord(HubEvent::queueOverflow, _id, noPort);
        return;
    }

    qBytes += item.byteLength();
    q.push_back(Queued{std::move(item), firstByte, lastByte});
    if (q.size() == 1) {
        processQueue(); // a new head: find out what it waits on
    } else if (eventq().pending(wakeup) && wakeupAt > now()) {
        // Queued behind a waiting head.  Nothing the head waits on
        // changed, so its wakeup stands, but re-arm it to the same
        // tick: the fresh sequence number files it behind the events
        // already due then.  Same-tick order decides contended
        // outcomes (which port's open reaches a controller first),
        // and the behaviour pins hold this order.
        wakeup = eventq().rearm(wakeup, wakeupAt);
    }
}

void
IoPort::commandSettled()
{
    cmdPending = false;
    cmdResubmitted = false;
    processQueue();
}

void
IoPort::scheduleProcess(Tick when)
{
    wakeupAt = when;
    if (eventq().pending(wakeup)) {
        wakeup = eventq().rearm(wakeup, when);
        return;
    }
    wakeup = eventq().schedule(
        when, [this] { processQueue(); }, sim::EventPriority::hardware);
}

void
IoPort::cancelWakeup()
{
    if (eventq().pending(wakeup))
        eventq().cancel(wakeup);
}

void
IoPort::processQueue()
{
    while (!q.empty()) {
        Tick retry = tryDisposeHead();
        if (retry == 0) {
            headBlockedSince = 0;
            continue; // head disposed; look at the next item
        }
        if (retry != sim::maxTick) {
            headBlockedSince = 0;
            scheduleProcess(retry);
            return;
        }
        // Blocked with no known wakeup: the connection this head is
        // waiting for may never open (its open command was lost, or
        // the route died under it).  Arm the stuck-head watchdog so
        // the queue — and the ready handshake upstream of it — cannot
        // stall forever; reliability above retransmits the loss.
        const Tick limit = hub.configuration().stuckTimeout;
        if (limit <= 0) {
            cancelWakeup(); // commandSettled() re-evaluates
            return;
        }
        if (headBlockedSince == 0)
            headBlockedSince = now();
        if (now() - headBlockedSince >= limit) {
            dropHead();
            continue;
        }
        scheduleProcess(headBlockedSince + limit);
        return;
    }
    headBlockedSince = 0;
    cancelWakeup();
}

void
IoPort::armReadyWatchdog()
{
    const Tick limit = hub.configuration().readyTimeout;
    if (limit <= 0)
        return;
    if (readyWatchdog != sim::invalidEventId &&
        eventq().pending(readyWatchdog))
        eventq().cancel(readyWatchdog);
    readyClearedAt = now();
    readyProbed = false;
    readyWatchdog = eventq().scheduleIn(
        limit, [this] { checkReady(); }, sim::EventPriority::hardware);
}

void
IoPort::scheduleReadyCheck(Tick when)
{
    readyWatchdog = eventq().schedule(
        when, [this] { checkReady(); }, sim::EventPriority::hardware);
}

void
IoPort::checkReady()
{
    readyWatchdog = sim::invalidEventId;
    if (readyBit)
        return;
    const Tick limit = hub.configuration().readyTimeout;
    if (!readyProbed) {
        // Late, not lost, while the output is still moving: the
        // circuit behind it forwarding the packet whose start cleared
        // the bit, or the output changing hands.
        const Tick since =
            std::max(readyClearedAt, hub.outputProgressAt(_id));
        if (now() < since + limit) {
            scheduleReadyCheck(since + limit);
            return;
        }
        if (farHubId >= 0 && out) {
            // Ask a far HUB before presuming: an echo queues behind
            // our packet in its input queue, so its answer comes
            // after the ready signal unless the signal was lost.  No
            // answer within a limit means the path is dead.
            readyProbed = true;
            readyProbeOutstanding = true;
            ++readyProbeTag;
            out->sendStolen(WireItem::command(
                static_cast<std::uint8_t>(Op::echo),
                static_cast<std::uint8_t>(farHubId), readyProbeTag));
            scheduleReadyCheck(now() + limit);
            return;
        }
    }
    rearmReady();
}

void
IoPort::rearmReady()
{
    if (readyWatchdog != sim::invalidEventId &&
        eventq().pending(readyWatchdog))
        eventq().cancel(readyWatchdog);
    readyWatchdog = sim::invalidEventId;
    readyBit = true;
    hub.noteOutputMoved(_id);
    hub.stats().readyRearms.add();
}

void
IoPort::dropHead()
{
    const Queued &head = q.front();
    // Discarding a start of packet frees the queue slot the upstream
    // transmitter is waiting on, which is exactly what the ready
    // signal reports — send it so the upstream port is not wedged on
    // a packet that will never emerge.
    if (head.item.kind == ItemKind::startOfPacket && out)
        out->sendStolen(WireItem::ready());
    qBytes -= head.item.byteLength();
    q.pop_front();
    headBlockedSince = 0;
    hub.stats().stuckDrops.add();
    hub.countError();
    hub.monitorRecord(HubEvent::stuckDrop, _id, noPort);
}

bool
IoPort::targetBusy() const
{
    const Op op = static_cast<Op>(cmdWord.op);
    const PortId target = cmdWord.param;
    if (!isOpen(op) || !hasRetry(op) || !hub.crossbar().valid(target))
        return false;
    return hub.crossbar().ownerOf(target) != noPort ||
           (isTestOpen(op) && !hub.port(target).ready());
}

bool
IoPort::awaitsReady() const
{
    const PortId target = cmdWord.param;
    return isTestOpen(static_cast<Op>(cmdWord.op)) &&
           hub.crossbar().valid(target) &&
           hub.crossbar().ownerOf(target) == noPort &&
           !hub.port(target).ready();
}

Tick
IoPort::settleDeadline() const
{
    const HubConfig &cfg = hub.configuration();
    Tick limit = cfg.stuckTimeout;
    // A test-open retrying against a free output waits for its ready
    // signal, which comes only when the far queue forwards the packet
    // that cleared it: the far end's own contention, which this HUB
    // cannot see.  The ready watchdog watches that wait (it probes a
    // far HUB, and re-arms a lost signal), so give it the ready limit
    // before the stuck limit starts.
    if (awaitsReady())
        limit += cfg.readyTimeout;
    return std::max(cmdPendingSince,
                    hub.outputProgressAt(cmdWord.param)) +
           limit;
}

void
IoPort::parkCommand()
{
    hub.controller().abandonFrom(_id);
    cmdParked = true;
    IoPort &target = hub.port(cmdWord.param);
    if (std::find(target.parked.begin(), target.parked.end(), _id) ==
        target.parked.end())
        target.parked.push_back(_id);
}

void
IoPort::wakeParked()
{
    // resubmitCommand() only files a controller command, so nothing
    // re-enters the list while it is walked.
    for (PortId p : parked)
        hub.port(p).resubmitCommand();
    parked.clear();
}

void
IoPort::resubmitCommand()
{
    if (!cmdParked)
        return;
    cmdParked = false;
    cmdResubmitted = true;
    hub.controller().submit(cmdWord, _id);
}

void
IoPort::commandRetrying()
{
    // A resubmitted command lost its chance: park it again until the
    // output moves once more.
    if (cmdResubmitted && targetBusy()) {
        cmdResubmitted = false;
        parkCommand();
    }
}

Tick
IoPort::tryDisposeHead()
{
    // In-order command semantics: a command consumed from this stream
    // and handed to the central controller must settle before any
    // later item moves.  Without this, a frame's data or close all
    // can overtake its own backed-off open; the open then executes
    // after the close all has passed and leaves an orphaned crossbar
    // connection that no close all will ever reach — the held output
    // fails every later open and duplicates passing traffic onto a
    // stale branch.  If the output the command waits on stops moving
    // for a whole stuck limit, withdraw the command (so it can never
    // execute late) and move on; reliability above retransmits
    // whatever the abandoned branch loses.
    if (cmdPending) {
        const Tick stuck = hub.configuration().stuckTimeout;
        if (stuck <= 0)
            return sim::maxTick; // commandSettled() re-evaluates
        const Tick deadline = settleDeadline();
        if (now() < deadline) {
            // A retrying command still pending a stuck limit after
            // submission waits on a busy output: stop retrying it
            // every few cycles and let that output's next move hand
            // it back to the controller (wakeParked).  Parked, it
            // cannot execute.
            if (!cmdParked && !cmdResubmitted && targetBusy()) {
                if (now() < cmdPendingSince + stuck)
                    return cmdPendingSince + stuck;
                parkCommand();
            }
            return deadline;
        }
        hub.controller().abandonFrom(_id);
        cmdPending = false;
        cmdParked = false;
        cmdResubmitted = false;
        hub.stats().cmdAbandons.add();
        hub.countError();
        hub.monitorRecord(HubEvent::stuckDrop, _id, noPort);
    }

    const Queued &head = q.front();
    const WireItem &item = head.item;
    const Tick cycle = hub.configuration().cycle;

    // closeAll is never consumed on a hub-id match: it travels along
    // the route with the data and is recognized at each output
    // register it passes through (Section 4.2.1).
    if (item.kind == ItemKind::command &&
        item.cmd.hubId == hub.hubId() &&
        static_cast<Op>(item.cmd.op) != Op::closeAll) {
        // Addressed to this HUB: consume once fully received and
        // decoded.
        Tick ready =
            head.lastByte + hub.configuration().decodeCycles * cycle;
        if (now() < ready)
            return ready;
        phys::CommandWord cmd = item.cmd;
        qBytes -= item.byteLength();
        q.pop_front();
        if (needsController(static_cast<Op>(cmd.op))) {
            cmdPending = true;
            cmdPendingSince = now();
            cmdWord = cmd;
        }
        hub.dispatchCommand(cmd, _id);
        return 0;
    }

    // Everything else travels through the crossbar: data, framing
    // markers, closeAll, and commands addressed to other HUBs.
    const auto &outputs = hub.crossbar().outputsOf(_id);

    if (outputs.empty()) {
        // A closeAll with nothing to close is consumed (idempotent);
        // other items wait for a connection.
        if (item.kind == ItemKind::command &&
            static_cast<Op>(item.cmd.op) == Op::closeAll) {
            qBytes -= item.byteLength();
            q.pop_front();
            return 0;
        }
        // Every open from this input settles its command in the
        // controller tick that opens it; commandSettled() re-evaluates.
        return sim::maxTick;
    }

    return forwardHead(outputs);
}

Tick
IoPort::forwardHead(const std::vector<PortId> &outputs)
{
    const Queued &head = q.front();
    const Tick cycle = hub.configuration().cycle;

    // Cut-through: the item may leave transferCycles after its first
    // byte arrived, once every target output register is free.
    Tick t = head.firstByte + hub.configuration().transferCycles * cycle;
    for (PortId o : outputs) {
        phys::FiberLink *link = hub.port(o).output();
        if (!link)
            sim::panic(name() + ": connected output has no fiber");
        t = std::max(t, link->busyUntil());
    }
    if (t > now())
        return t;

    // Forward now.  Take the head so the queue can be popped before
    // transmission side effects run.
    Queued head_copy = std::move(q.front());
    qBytes -= head_copy.item.byteLength();
    q.pop_front();

    const bool is_sop =
        head_copy.item.kind == ItemKind::startOfPacket;
    const bool is_close_all =
        head_copy.item.kind == ItemKind::command &&
        static_cast<Op>(head_copy.item.cmd.op) == Op::closeAll;

    for (PortId o : outputs)
        hub.port(o).transmit(head_copy.item);
    hub.noteCircuitActivity(_id);

    if (head_copy.item.kind == ItemKind::data)
        hub.stats().dataBytes.add(head_copy.item.dataLen);

    if (is_sop) {
        // The start of packet has emerged from this input queue;
        // signal readiness back upstream (Section 4.2.3).
        if (out)
            out->sendStolen(WireItem::ready());
        hub.stats().packetsForwarded.add();
        hub.monitorRecord(HubEvent::packetForwarded, _id,
                          outputs.empty() ? noPort : outputs.front());
    }

    if (is_close_all) {
        // Detected at each output register it passed through: close
        // the connections behind it (Section 4.2.1).  `outputs` is
        // the crossbar's own list, so count first and close after.
        for (PortId o : outputs) {
            hub.stats().closes.add();
            hub.monitorRecord(HubEvent::connectionClose, _id, o);
            hub.noteOutputMoved(o);
        }
        hub.crossbar().closeAllFrom(_id);
        hub.noteCircuitClosed();
    }

    return 0;
}

} // namespace nectar::hub
