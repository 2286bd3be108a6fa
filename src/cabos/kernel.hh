/**
 * @file
 * The CAB kernel: lightweight threads, mailboxes, memory and timers.
 *
 * Section 6.1: "To provide the required efficiency and flexibility,
 * we built the CAB kernel around lightweight processes similar to
 * Mach threads.  Threads support multitasking so the CAB can execute
 * multiple activities concurrently in a time-shared fashion, but,
 * since threads have little state associated with them, the cost of
 * context switching is low.  Thread switching takes between 10 and 15
 * microseconds; almost all of this time is spent saving and restoring
 * the SPARC register windows.  Threads execute as a set of
 * coroutines, using a simple, non-preemptive scheduler."
 *
 * Simulated threads are C++20 coroutines; blocking operations
 * (mailbox reads, sleeps) suspend the coroutine and charge the
 * documented context-switch cost on resumption.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "cab/cab.hh"
#include "cabos/allocator.hh"
#include "cabos/mailbox.hh"
#include "sim/component.hh"
#include "sim/coro.hh"

namespace nectar::cabos {

/**
 * The per-CAB operating system kernel.
 */
class Kernel : public sim::Component
{
  public:
    /** @param board The CAB hardware this kernel runs on. */
    explicit Kernel(cab::Cab &board);

    cab::Cab &board() { return _board; }
    const cab::CabCostModel &costs() const { return _board.costs(); }
    BufferAllocator &allocator() { return alloc; }

    // ----- Threads ---------------------------------------------------

    /**
     * Start a kernel thread running @p body.  Threads are
     * non-preemptive: they run until they block on a mailbox, sleep,
     * or finish.
     */
    void spawnThread(const std::string &name, sim::Task<void> body);

    /** Threads started over the kernel's lifetime. */
    std::uint64_t threadsSpawned() const { return _spawned.value(); }

    /** Threads currently alive (not yet completed). */
    int aliveThreads() const { return _alive; }

    /** Context switches performed (each costs ~12.5 us of CPU). */
    std::uint64_t threadSwitches() const { return _switches.value(); }

    /** Record a context switch (called by blocking primitives). */
    void noteThreadSwitch() { _switches.add(); }

    /** Awaitable: charge CPU compute time to the calling thread. */
    auto
    compute(sim::Tick cost)
    {
        return _board.cpu().compute(cost);
    }

    /**
     * Awaitable: block the calling thread for @p d of simulated time
     * (hardware timer + context switch on wakeup).
     */
    sim::Task<void> sleepFor(sim::Tick d);

    // ----- Mailboxes -------------------------------------------------

    /**
     * Create a mailbox.
     *
     * @param name Instance name.
     * @param capacityBytes Payload capacity.
     * @param id Explicit id, or 0 to auto-assign (ids >= 1).
     */
    Mailbox &createMailbox(const std::string &name,
                           std::uint32_t capacityBytes,
                           MailboxId id = 0);

    /** Look up a mailbox; nullptr if unknown. */
    Mailbox *mailbox(MailboxId id);

    /** Destroy a mailbox (releases its message backings). */
    bool destroyMailbox(MailboxId id);

    std::size_t mailboxCount() const { return boxes.size(); }

    // ----- Protection domains ---------------------------------------

    /**
     * Allocate a user protection domain ("The assignment of
     * protection domains is under the control of the CAB operating
     * system kernel", Section 5.2).
     *
     * @return Domain index, or -1 if all are in use.
     */
    cab::Domain allocateDomain();

    /** Return a domain to the pool and revoke its permissions. */
    void freeDomain(cab::Domain d);

  private:
    sim::Task<void> threadRunner(std::string name,
                                 sim::Task<void> body);

    cab::Cab &_board;
    BufferAllocator alloc;
    std::map<MailboxId, std::unique_ptr<Mailbox>> boxes;
    MailboxId nextMailboxId = 1;

    sim::Counter _spawned;
    sim::Counter _switches;
    int _alive = 0;

    std::uint32_t domainBitmap = 0;
};

} // namespace nectar::cabos
