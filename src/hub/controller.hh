/**
 * @file
 * The HUB central controller.
 *
 * Section 4, goal 2: "the HUB central controller can set up a new
 * connection through the crossbar switch every 70 nanosecond cycle."
 * Commands that read or write the status table are serialized here;
 * one command executes per cycle.  Commands of the "with retry"
 * family that fail re-enter the queue and are retried on a later
 * cycle, which is how e.g. "open with retry" keeps trying until the
 * output register frees up (Section 4.2.1).
 */

#pragma once

#include <cstdint>

#include "hub/crossbar.hh"
#include "phys/wire.hh"
#include "sim/component.hh"
#include "sim/fifo.hh"

namespace nectar::hub {

class Hub;

/** Serializes status-table commands, one per HUB cycle. */
class CentralController : public sim::Component
{
  public:
    /**
     * @param hub Owning HUB.
     * @param cycle Controller cycle time (70 ns in the prototype).
     */
    CentralController(Hub &hub, Tick cycle);

    /**
     * Enqueue a command for serialized execution.
     *
     * @param cmd The command word.
     * @param arrival Port the command arrived on (the connection's
     *        input side, and the reverse path for replies).
     */
    void submit(const phys::CommandWord &cmd, PortId arrival);

    /** Commands currently waiting (including retrying ones). */
    std::size_t backlog() const { return q.size(); }

    /** Total controller cycles consumed. */
    std::uint64_t cyclesUsed() const { return _cyclesUsed; }

    /** Total failed attempts by retrying commands. */
    std::uint64_t retries() const { return _retries; }

    /**
     * Give up on retrying commands after this many attempts (the
     * watchdog that turns livelock into a detectable drop).  The
     * default is large enough that any legitimate flow-control wait
     * completes first.
     */
    void setRetryLimit(std::uint64_t limit) { retryLimit = limit; }

    /**
     * Withdraw every pending command submitted from @p arrival (the
     * port gave up waiting).  A withdrawn open can never execute
     * after its frame's close all has passed, which is what keeps
     * abandoned routes from leaving orphaned connections behind.
     */
    void abandonFrom(PortId arrival);

    /** Drop all pending commands (supervisor reset). */
    void clear() { q.clear(); }

    /** Default retry watchdog (attempts). */
    static constexpr std::uint64_t defaultRetryLimit = 1'000'000;

    /** Cap on the retry backoff, in controller cycles. */
    static constexpr std::uint64_t maxBackoffCycles = 64;

  private:
    struct Pending
    {
        phys::CommandWord cmd;
        PortId arrival;
        std::uint64_t attempts;
        Tick notBefore; ///< Earliest cycle for the next attempt.
    };

    /** Execute one command; reschedule while work remains. */
    void tick();

    Hub &hub;
    Tick cycle;
    sim::Fifo<Pending> q;
    bool running = false;
    std::uint64_t _cyclesUsed = 0;
    std::uint64_t _retries = 0;
    std::uint64_t retryLimit = defaultRetryLimit;
};

} // namespace nectar::hub
