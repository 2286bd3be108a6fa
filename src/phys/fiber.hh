/**
 * @file
 * Unidirectional fiber-optic links with TAXI serialization.
 *
 * Every CAB-HUB and HUB-HUB connection in Nectar is a pair of fibers
 * carrying signals in opposite directions (Section 3.1).  Each fiber
 * runs at an effective 100 megabits/second (the limit imposed by the
 * AMD TAXI serializer chips), i.e. one byte per 80 ns.
 *
 * FiberLink models a single direction: items are serialized in order
 * at the byte rate, then delivered to the remote sink after the
 * propagation delay.  Delivery reports both the arrival tick of the
 * item's first byte and of its last byte, which is what lets the HUB
 * model cut-through forwarding without per-byte events.
 *
 * Replies and ready signals use sendStolen(): the hardware inserts
 * them by stealing cycles from the output register, so they are never
 * blocked behind queued traffic (Section 4.2.1).
 */

#pragma once

#include <cstdint>
#include <functional>

#include "phys/wire.hh"
#include "sim/component.hh"
#include "sim/fifo.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace nectar::phys {

/** Receiver interface for a fiber's downstream end. */
class FiberSink
{
  public:
    virtual ~FiberSink() = default;

    /**
     * An item has arrived on the fiber.
     *
     * Called at @p firstByte (the tick the item's leading byte
     * arrives); @p lastByte (>= firstByte) is when its trailing byte
     * will have arrived, enabling cut-through forwarding.
     */
    virtual void fiberDeliver(WireItem item, Tick firstByte,
                              Tick lastByte) = 0;
};

/**
 * Configurable fault injection on a link.
 *
 * Probabilities are applied per item.  Command loss exercises the
 * datalink error-recovery path; data corruption exercises transport
 * checksums and retransmission.
 */
struct FaultModel
{
    double dropCommand = 0.0;  ///< P(drop a command word).
    double corruptData = 0.0;  ///< P(mark a data chunk corrupted).
    double dropReply = 0.0;    ///< P(drop a reply word).
    double dropData = 0.0;     ///< P(drop a data chunk entirely).

    bool
    any() const
    {
        return dropCommand > 0 || corruptData > 0 || dropReply > 0 ||
               dropData > 0;
    }
};

/**
 * Gilbert–Elliott two-state burst-loss model.
 *
 * The channel alternates between a good and a bad state.  The chain
 * evolves in wire time — one transition opportunity per byte slot —
 * so a burst (a connector knocked loose, an optical transient) ends
 * whether or not anything is transmitted through it: a retransmission
 * delayed past the burst sees a clean channel.  An item is lost when
 * any byte slot of its serialization falls in the bad state, so long
 * data chunks are proportionally more exposed than 3-byte command
 * words, exactly as on a real wire.
 *
 * With lossGood = 0 and lossBad = 1 the stationary fraction of wire
 * time spent bad is pGoodBad / (pGoodBad + pBadGood) and the mean
 * burst length is 1 / pBadGood byte times.
 *
 * Markers (start/end of packet) are exempt, mirroring FaultModel: the
 * datalink's framing recovery is exercised through command loss, not
 * through marker truncation.
 */
struct GilbertElliott
{
    double pGoodBad = 0.0; ///< P(good -> bad) per byte slot.
    double pBadGood = 1.0; ///< P(bad -> good) per byte slot.
    double lossGood = 0.0; ///< P(drop) while in the good state.
    double lossBad = 0.0;  ///< P(drop) while in the bad state.

    /** Choose transition rates so @p lossRate of the wire time is
     *  spent in bursts of mean @p meanBurstBytes byte slots
     *  (lossGood = 0, lossBad = 1). */
    static GilbertElliott
    forLossRate(double lossRate, double meanBurstBytes = 8.0)
    {
        GilbertElliott ge;
        ge.lossBad = 1.0;
        ge.pBadGood = 1.0 / meanBurstBytes;
        ge.pGoodBad = lossRate <= 0.0
                          ? 0.0
                          : ge.pBadGood * lossRate / (1.0 - lossRate);
        return ge;
    }
};

/**
 * One direction of a fiber pair.
 */
class FiberLink : public sim::Component
{
  public:
    /**
     * @param eq Event queue.
     * @param name Instance name.
     * @param propDelay One-way propagation delay (ns).  Section 2.3
     *        excludes fiber transmission delays from the latency
     *        goals, so tests typically use 0; realistic runs use
     *        ~5 ns/m.
     * @param byteTime Serialization time per byte.
     */
    FiberLink(sim::EventQueue &eq, std::string name,
              Tick propDelay = 0,
              Tick byteTime = sim::proto::fiberByteTime);

    /** Attach the downstream receiver; must be set before send(). */
    void connectTo(FiberSink &s) { sink = &s; }

    /** True once a sink is attached. */
    bool connected() const { return sink != nullptr; }

    /**
     * Serialize an item onto the fiber in FIFO order.
     *
     * Transmission begins when the transmitter becomes free; the
     * remote sink's fiberDeliver() runs at first-byte arrival.
     */
    void send(WireItem item);

    /**
     * Insert an item by stealing cycles (replies, ready signals).
     * Never waits for queued traffic; delivered after its own
     * serialization time plus propagation delay.
     */
    void sendStolen(WireItem item);

    /** Tick at which the transmitter becomes idle. */
    Tick busyUntil() const { return _busyUntil; }

    /**
     * Enable fault injection with the given model and seed.
     *
     * Re-seeding contract: calling this twice with the same model and
     * seed reproduces the identical drop/corrupt decision sequence,
     * and the drop/corrupt counters restart from zero.
     */
    void setFaults(const FaultModel &model, std::uint64_t seed);

    /**
     * Enable (or re-seed) the Gilbert–Elliott burst model.  Runs
     * independently of setFaults(): both may be active, and either
     * may drop an item.  The state machine starts in the good state.
     */
    void setBurstModel(const GilbertElliott &model, std::uint64_t seed);

    /** Disable the burst model. */
    void clearBurstModel();

    /** True while a burst model is installed. */
    bool burstModelActive() const { return burstEnabled; }

    /**
     * Link operational state.  A downed link (cable pulled, laser
     * dark) silently discards everything handed to its transmitter;
     * recovery is the upper layers' problem, which is the point.
     */
    void setLinkUp(bool up) { _up = up; }
    bool linkUp() const { return _up; }

    /** Total payload-carrying wire bytes sent (excludes stolen). */
    std::uint64_t bytesSent() const { return _bytesSent; }
    /** Items dropped by fault injection. */
    std::uint64_t itemsDropped() const { return _itemsDropped; }
    /** Items corrupted by fault injection. */
    std::uint64_t itemsCorrupted() const { return _itemsCorrupted; }
    /** Items dropped by the burst (Gilbert–Elliott) model. */
    std::uint64_t itemsDroppedBurst() const { return _burstDropped; }
    /** Items discarded because the link was down. */
    std::uint64_t itemsDroppedDown() const { return _downDropped; }

    /** Busy time accumulated, for utilization measurements. */
    Tick busyTicks() const { return _busyTicks; }

  private:
    /** Apply fault model; returns false if the item is dropped. */
    bool applyFaults(WireItem &item, Tick start);

    /** Advance the burst model; returns false if the item is lost. */
    bool applyBurst(const WireItem &item, Tick start);

    /** Slots the burst chain dwells in its current state (>= 1). */
    std::int64_t burstDwellSample();

    /**
     * Advance the burst chain by @p slots byte slots.
     * @return true if the bad state was occupied at any point.
     */
    bool burstAdvance(std::int64_t slots);

    /** An item between its send and its first byte's arrival. */
    struct InFlight
    {
        WireItem item;
        Tick firstByte;
        Tick lastByte;
    };

    /** Transmitter lanes: send() queues behind traffic, sendStolen()
     *  overtakes it, so each keeps its own in-flight FIFO. */
    enum Lane { queued = 0, stolen = 1 };

    /** Put @p item in flight on @p lane and schedule its arrival. */
    void deliver(Lane lane, WireItem item, Tick firstByte,
                 Tick lastByte);

    /**
     * In-flight items, one FIFO per lane, so an arrival event
     * captures only the link and the lane.  A lane's first-byte ticks
     * never decrease and same-tick hardware events fire in schedule
     * order, so each arrival pops its own item.
     */
    sim::Fifo<InFlight> inFlight[2];

    FiberSink *sink = nullptr;
    Tick propDelay;
    Tick byteTime;
    Tick _busyUntil = 0;
    Tick _busyTicks = 0;

    FaultModel faults;
    sim::Random rng;
    bool faultsEnabled = false;

    GilbertElliott burst;
    sim::Random burstRng;
    bool burstEnabled = false;
    bool burstBadState = false;
    /** Byte slot the chain has been advanced to; -1 = not started. */
    std::int64_t burstSlot = -1;
    /** Slots remaining before the next state transition. */
    std::int64_t burstDwell = 0;

    bool _up = true;

    std::uint64_t _bytesSent = 0;
    std::uint64_t _itemsDropped = 0;
    std::uint64_t _itemsCorrupted = 0;
    std::uint64_t _burstDropped = 0;
    std::uint64_t _downDropped = 0;
};

} // namespace nectar::phys
