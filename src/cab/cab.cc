#include "cab.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace nectar::cab {

using phys::ItemKind;
using phys::WireItem;

Cab::Cab(sim::EventQueue &eq, std::string name, const CabConfig &config)
    : sim::Component(eq, std::move(name)), cfg(config),
      _cpu(eq, this->name() + ".cpu"),
      _timers(eq, this->name() + ".timers")
{
    if (cfg.chunkBytes == 0)
        sim::fatal("Cab: chunkBytes must be positive");
}

void
Cab::sendControl(const WireItem &item)
{
    if (!tx)
        sim::panic(name() + ": sendControl with no fiber attached");
    tx->send(item);
}

void
Cab::sendReady()
{
    if (!tx)
        sim::panic(name() + ": sendReady with no fiber attached");
    tx->sendStolen(WireItem::ready());
}

void
Cab::framePacket(const phys::Payload &payload,
                 std::vector<WireItem> &frame) const
{
    auto size = static_cast<std::uint32_t>(payload.size());
    frame.push_back(WireItem::startPacket());
    for (std::uint32_t off = 0; off < size; off += cfg.chunkBytes) {
        std::uint32_t len = std::min(cfg.chunkBytes, size - off);
        frame.push_back(WireItem::dataChunk(payload, off, len));
    }
    frame.push_back(WireItem::endPacket());
}

void
Cab::dmaSend(std::vector<WireItem> &items, sim::EventFn onDone)
{
    if (!tx)
        sim::panic(name() + ": dmaSend with no fiber attached");

    std::uint64_t data_bytes = 0;
    bool has_sop = false;
    for (auto &item : items) {
        if (item.kind == ItemKind::data)
            data_bytes += item.dataLen;
        if (item.kind == ItemKind::startOfPacket)
            has_sop = true;
        tx->send(std::move(item));
    }
    items.clear();
    // DMA gathers the packet out of data memory (Section 6.2.1).
    if (data_bytes > 0) {
        mem.account(Accessor::fiberOutDma, data_bytes);
        _stats.txBytes.add(data_bytes);
    }
    if (has_sop)
        _stats.txPackets.add();

    // The DMA controller raises completion when the last byte leaves
    // the board: the link knows when that is.  A dark fiber consumes
    // no wire time (send() drops without advancing the busy horizon),
    // so completion may be due immediately rather than in the past.
    Tick done = std::max(now(), tx->busyUntil());
    if (onDone) {
        if (done == now()) {
            // Immediate completion (dark fiber, or the wire already
            // drained): the datalink's continuation runs before any
            // same-tick arrival, not interleaved after it.
            eventq().scheduleAtFront(std::move(onDone));
        } else {
            eventq().schedule(done, std::move(onDone),
                              sim::EventPriority::hardware);
        }
    }
}

void
Cab::fiberDeliver(WireItem item, Tick firstByte, Tick lastByte)
{
    (void)firstByte;
    (void)lastByte;

    switch (item.kind) {
      case ItemKind::reply:
        if (onReply)
            onReply(item.reply);
        return;

      case ItemKind::readySignal:
        if (onReadySignal)
            onReadySignal();
        return;

      case ItemKind::startOfPacket: {
        if (rx.inPacket) {
            // The previous packet's end marker never arrived: a
            // framing error.  Discard the partial packet; transport
            // recovers by retransmission (Section 6.2.1).
            _stats.framingErrors.add();
        }
        rx.reset(rx.generation + 1);
        rx.inPacket = true;
        rx.queuedBytes = 1;
        if (onPacketStart)
            onPacketStart();
        return;
      }

      case ItemKind::data: {
        if (!rx.inPacket) {
            _stats.strayItems.add();
            return;
        }
        rx.corrupted |= item.corrupted;
        if (rx.accepted) {
            // Receive DMA drains the queue as fast as it fills; the
            // chunk's slice is chained, not copied.
            rx.buf.append(item.data);
            mem.account(Accessor::fiberInDma, item.dataLen);
            return;
        }
        if (rx.queuedBytes + item.dataLen > cfg.inputQueueBytes) {
            // Software was too slow: the input queue overflowed and
            // the rest of the packet is lost (Section 6.2.1).
            rx.overflowed = true;
            return;
        }
        rx.queuedBytes += item.dataLen;
        rx.pending.push_back(std::move(item));
        return;
      }

      case ItemKind::endOfPacket:
        if (!rx.inPacket) {
            _stats.strayItems.add();
            return;
        }
        rx.eopSeen = true;
        if (rx.overflowed) {
            _stats.rxDropped.add();
            rx.reset(rx.generation);
            if (onPacketDropped)
                onPacketDropped();
            return;
        }
        if (rx.accepted)
            completeRx();
        return;

      case ItemKind::command:
        // Commands reaching a CAB are route spillover (e.g. the
        // multicast example of Section 4.2.2, where opens for a
        // downstream HUB also travel to the terminal CAB of another
        // branch); the CAB discards them.
        _stats.strayItems.add();
        return;
    }
}

void
Cab::acceptPacket(std::uint64_t generation)
{
    if (generation != rx.generation)
        return; // stale accept: a new start of packet took over
    if (!rx.inPacket)
        return; // the packet already overflowed away or never started
    if (rx.accepted)
        sim::panic(name() + ": acceptPacket called twice");
    rx.accepted = true;

    // Drain everything queued so far into the software view.
    for (const auto &item : rx.pending) {
        rx.buf.append(item.data);
        mem.account(Accessor::fiberInDma, item.dataLen);
    }
    rx.pending.clear();
    rx.queuedBytes = 0;

    // The start of packet has (conceptually) emerged from the input
    // queue: signal readiness upstream (Section 4.2.3).
    if (tx)
        sendReady();

    if (rx.eopSeen)
        completeRx();
}

void
Cab::completeRx()
{
    _stats.rxPackets.add();
    _stats.rxBytes.add(rx.buf.size());
    if (rx.corrupted)
        _stats.rxCorrupted.add();
    auto view = std::move(rx.buf);
    bool corrupted = rx.corrupted;
    view.markCorrupted(corrupted);
    rx.reset(rx.generation);
    if (onPacketComplete)
        onPacketComplete(std::move(view), corrupted);
}

} // namespace nectar::cab
