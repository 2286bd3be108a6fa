#include "fiber.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace nectar::phys {

FiberLink::FiberLink(sim::EventQueue &eq, std::string name,
                     Tick propDelay, Tick byteTime)
    : sim::Component(eq, std::move(name)), propDelay(propDelay),
      byteTime(byteTime), rng(0)
{
    if (byteTime <= 0)
        sim::fatal("FiberLink: byteTime must be positive");
    if (propDelay < 0)
        sim::fatal("FiberLink: negative propagation delay");
}

void
FiberLink::setFaults(const FaultModel &model, std::uint64_t seed)
{
    faults = model;
    rng = sim::Random(seed);
    faultsEnabled = model.any();
    // Re-seeding restarts the experiment: the decision sequence and
    // the counters must both reproduce.
    _itemsDropped = 0;
    _itemsCorrupted = 0;
}

void
FiberLink::setBurstModel(const GilbertElliott &model,
                         std::uint64_t seed)
{
    burst = model;
    burstRng = sim::Random(seed);
    burstEnabled = true;
    burstBadState = false;
    // The channel starts evolving (in the good state) the moment the
    // model is installed.
    burstSlot = static_cast<std::int64_t>(now() / byteTime);
    burstDwell = burstDwellSample();
    _burstDropped = 0;
}

void
FiberLink::clearBurstModel()
{
    burstEnabled = false;
    burstBadState = false;
    burstSlot = -1;
    burstDwell = 0;
}

std::int64_t
FiberLink::burstDwellSample()
{
    const double p =
        burstBadState ? burst.pBadGood : burst.pGoodBad;
    if (p <= 0.0)
        return std::numeric_limits<std::int64_t>::max() / 2;
    if (p >= 1.0)
        return 1;
    // Inverse-CDF geometric sample: mean 1/p slots.
    const double u = burstRng.uniform();
    return static_cast<std::int64_t>(
               std::floor(std::log1p(-u) / std::log1p(-p))) +
           1;
}

bool
FiberLink::burstAdvance(std::int64_t slots)
{
    bool sawBad = burstBadState && slots > 0;
    while (burstDwell <= slots) {
        slots -= burstDwell;
        burstBadState = !burstBadState;
        burstDwell = burstDwellSample();
        if (burstBadState && slots > 0)
            sawBad = true;
    }
    burstDwell -= slots;
    return sawBad;
}

bool
FiberLink::applyBurst(const WireItem &item, Tick start)
{
    if (!burstEnabled)
        return true;
    // Framing markers are exempt (see GilbertElliott doc).
    if (item.kind == ItemKind::startOfPacket ||
        item.kind == ItemKind::endOfPacket)
        return true;

    // Advance the chain to the item's first byte slot.  Stolen items
    // can nominally start before queued traffic the chain has already
    // been advanced through; they sample the current state instead of
    // rewinding it.
    auto slot = static_cast<std::int64_t>(start / byteTime);
    slot = std::max(slot, burstSlot);
    burstAdvance(slot - burstSlot);

    // The item is lost if any byte slot of its serialization lands in
    // the bad state.
    const auto span =
        std::max<std::int64_t>(1, item.byteLength());
    bool hit = burstBadState;
    hit = burstAdvance(span) || hit;
    burstSlot = slot + span;

    const double loss = hit ? burst.lossBad : burst.lossGood;
    if (burstRng.chance(loss)) {
        ++_burstDropped;
        return false;
    }
    return true;
}

bool
FiberLink::applyFaults(WireItem &item, Tick start)
{
    if (!applyBurst(item, start))
        return false;
    if (!faultsEnabled)
        return true;
    switch (item.kind) {
      case ItemKind::command:
        if (rng.chance(faults.dropCommand)) {
            ++_itemsDropped;
            return false;
        }
        break;
      case ItemKind::reply:
      case ItemKind::readySignal:
        if (rng.chance(faults.dropReply)) {
            ++_itemsDropped;
            return false;
        }
        break;
      case ItemKind::data:
        if (rng.chance(faults.dropData)) {
            ++_itemsDropped;
            return false;
        }
        if (rng.chance(faults.corruptData)) {
            item.corrupted = true;
            ++_itemsCorrupted;
        }
        break;
      default:
        break;
    }
    return true;
}

void
FiberLink::send(WireItem item)
{
    if (!sink)
        sim::panic("FiberLink::send on unconnected link " + name());

    if (!_up) {
        // A dark fiber: the transmitter clocks the bytes into the
        // void.  No wire time is modelled; the item simply vanishes.
        ++_downDropped;
        return;
    }

    const Tick start = std::max(now(), _busyUntil);
    const Tick duration =
        static_cast<Tick>(item.byteLength()) * byteTime;
    _busyUntil = start + duration;
    _busyTicks += duration;
    _bytesSent += item.byteLength();

    if (!applyFaults(item, start))
        return; // transmitter still consumed the wire time

    // The first byte is on the remote end one byte-time after
    // transmission starts; the last after the full serialization.
    const Tick firstByte = start + byteTime + propDelay;
    const Tick lastByte = _busyUntil + propDelay;
    deliver(queued, std::move(item), firstByte, lastByte);
}

void
FiberLink::sendStolen(WireItem item)
{
    if (!sink)
        sim::panic("FiberLink::sendStolen on unconnected link " +
                   name());

    if (!_up) {
        ++_downDropped;
        return;
    }

    if (!applyFaults(item, now()))
        return;

    const Tick duration =
        static_cast<Tick>(item.byteLength()) * byteTime;
    const Tick firstByte = now() + byteTime + propDelay;
    const Tick lastByte = now() + duration + propDelay;
    deliver(stolen, std::move(item), firstByte, lastByte);
}

void
FiberLink::deliver(Lane lane, WireItem item, Tick firstByte,
                   Tick lastByte)
{
    inFlight[lane].push_back(
        InFlight{std::move(item), firstByte, lastByte});
    eventq().schedule(
        firstByte,
        [this, lane] {
            auto &fifo = inFlight[lane];
            InFlight f = std::move(fifo.front());
            fifo.pop_front();
            sink->fiberDeliver(std::move(f.item), f.firstByte,
                               f.lastByte);
        },
        sim::EventPriority::hardware);
}

} // namespace nectar::phys
