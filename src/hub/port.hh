/**
 * @file
 * A HUB I/O port: input queue, output register, and ready bit.
 *
 * Section 4.1: "From the functional viewpoint, a port consists of an
 * input queue and an output register ... The I/O port extracts
 * commands from the incoming byte stream, and inserts replies to the
 * commands in the outgoing byte stream.  Commands that require
 * serialization, such as establishing a connection, are forwarded to
 * the central controller, while 'localized' commands, such as breaking
 * a connection, are executed inside the I/O port."
 *
 * The input queue is 1 kilobyte (which bounds the packet size for
 * packet switching, Section 4.2.3).  Forwarding through the crossbar
 * is cut-through: an item leaves this queue hubTransferCycles (5
 * cycles = 350 ns) after its first byte arrived, provided the input is
 * connected and the target output registers are free.
 */

#pragma once

#include "hub/crossbar.hh"
#include "phys/fiber.hh"
#include "sim/component.hh"
#include "sim/fifo.hh"

namespace nectar::hub {

class Hub;

/**
 * One of the HUB's I/O ports.  Receives wire items from its incoming
 * fiber (as a FiberSink) and transmits on the paired outgoing fiber.
 */
class IoPort : public sim::Component, public phys::FiberSink
{
  public:
    /**
     * @param hub Owning HUB.
     * @param id Port index on that HUB.
     * @param queueCapacity Input queue size in bytes.
     */
    IoPort(Hub &hub, PortId id, int queueCapacity);

    PortId portId() const { return _id; }

    /**
     * Attach the outgoing fiber of this port's fiber pair.
     * @param farHub The id of the HUB at the far end of a trunk, or
     *        -1 for an endpoint (a CAB); the ready watchdog probes a
     *        far HUB before presuming a ready signal lost.
     */
    void
    attachOutput(phys::FiberLink &link, int farHub = -1)
    {
        out = &link;
        farHubId = farHub;
    }

    /** The outgoing fiber, or nullptr if unattached. */
    phys::FiberLink *output() { return out; }

    /** Ready bit: downstream input queue can accept a new packet. */
    bool ready() const { return readyBit; }

    /** Force the ready bit (supervisor commands, CAB attach). */
    void setReady(bool r);

    /** Disabled ports drop all arriving traffic. */
    bool enabled() const { return _enabled; }
    void setEnabled(bool e) { _enabled = e; }

    /** Current input queue occupancy in bytes. */
    std::uint32_t queueBytes() const { return qBytes; }

    /** Number of queued items. */
    std::size_t queueLength() const { return q.size(); }

    /** Discard all queued items (supervisor port reset). */
    void flushQueue();

    /**
     * Transmit an item from this port's output register.
     *
     * @param item Item to serialize onto the outgoing fiber.
     * @param stolen If true, bypass the output register's queueing
     *        (replies and ready signals steal cycles; Section 4.2.1).
     */
    void transmit(const phys::WireItem &item, bool stolen = false);

    /**
     * The controller retried this port's command and it failed; a
     * command handed back by wakeParked() parks again.
     */
    void commandRetrying();

    /**
     * This port, as an output, moved (closed, or its ready bit rose):
     * hand every command parked on it back to the controller.
     */
    void wakeParked();

    /**
     * The central controller reached a final disposition for the
     * command this port submitted; the stream may advance past it.
     * A successful open settles in the controller tick that makes
     * it, so this is also where a head waiting for its route learns
     * that the route exists.
     */
    void commandSettled();

    // FiberSink interface: the incoming fiber delivers here.
    void fiberDeliver(phys::WireItem item, Tick firstByte,
                      Tick lastByte) override;

  private:
    struct Queued
    {
        phys::WireItem item;
        Tick firstByte;
        Tick lastByte;
    };

    /**
     * Wake processQueue() at @p when, replacing any pending wakeup:
     * the decode, cut-through, busy-output or watchdog time the
     * current head waits for.
     */
    void scheduleProcess(Tick when);

    /** Drop the pending wakeup, if any. */
    void cancelWakeup();

    /**
     * Drain the queue head while items are disposable: consume
     * commands addressed to this HUB, forward everything else through
     * open connections.  Leaves exactly the wakeup the blocked head
     * needs, or none.
     *
     * Runs only when something the head waits on can change: an item
     * becomes the head, the controller settles this port's command,
     * or the head's own wakeup fires.  An item queued behind a head
     * changes nothing the head waits on.
     */
    void processQueue();

    /**
     * Try to dispose of the queue head.
     * @return Tick to retry at, 0 if the head was disposed, or
     *         sim::maxTick if blocked with no known wakeup.
     */
    Tick tryDisposeHead();

    /** Forward the head item through the crossbar to @p outputs. */
    Tick forwardHead(const std::vector<PortId> &outputs);

    /** Watchdog: discard a head that stayed blocked past the limit. */
    void dropHead();

    /** The pending command is a retrying open that the output it
     *  names refuses now: held, or not ready for a test-open. */
    bool targetBusy() const;

    /** The pending command is a test-open waiting on a free output's
     *  ready bit. */
    bool awaitsReady() const;

    /**
     * When the settle watchdog may next withdraw the pending command:
     * a whole stuck limit (plus the ready limit while the output it
     * names waits for its ready signal) after the later of its
     * submission and that output's last progress.
     */
    Tick settleDeadline() const;

    /** Take the pending command out of the controller until the
     *  output it waits on moves. */
    void parkCommand();

    /** Hand a parked command back to the controller. */
    void resubmitCommand();

    /** Watchdog: re-arm the ready bit if its signal never arrives. */
    void armReadyWatchdog();

    /** The ready watchdog's check: waits, probes or re-arms. */
    void checkReady();

    /** Run checkReady() at @p when. */
    void scheduleReadyCheck(Tick when);

    /** Presume the ready signal lost and set the bit. */
    void rearmReady();

    Hub &hub;
    PortId _id;
    phys::FiberLink *out = nullptr;

    sim::Fifo<Queued> q;
    std::uint32_t qBytes = 0;
    std::uint32_t qCapacity;

    bool readyBit = true;
    bool _enabled = true;

    sim::EventId wakeup = sim::invalidEventId;
    Tick wakeupAt = 0;
    /** When the current head first blocked with no known wakeup. */
    Tick headBlockedSince = 0;
    /** A consumed command is still pending in the controller. */
    bool cmdPending = false;
    /** When that command was submitted (settle-watchdog anchor). */
    Tick cmdPendingSince = 0;
    /** That command's word: its op and the output it names. */
    phys::CommandWord cmdWord;
    /** That command is parked off the controller (parkCommand). */
    bool cmdParked = false;
    /** ... or was handed back and has not failed since. */
    bool cmdResubmitted = false;
    /** Ports whose command is parked on this output. */
    std::vector<PortId> parked;
    /** Pending ready-bit watchdog, cancelled when the signal arrives. */
    sim::EventId readyWatchdog = sim::invalidEventId;
    /** When the ready bit last cleared (ready-watchdog anchor). */
    Tick readyClearedAt = 0;
    /** The far-end HUB's id (-1: an endpoint), and the ready probe:
     *  an echo to it with tag readyProbeTag awaits its answer. */
    int farHubId = -1;
    std::uint8_t readyProbeTag = 0;
    bool readyProbeOutstanding = false;
    /** The current ready wait has probed (its bound is running). */
    bool readyProbed = false;
};

} // namespace nectar::hub
