/**
 * @file
 * The deterministic discrete-event queue at the heart of nectar-sim.
 *
 * Every hardware and software activity in the simulated Nectar system
 * is an event on a single queue.  Events fire in (tick, priority,
 * sequence) order, so two runs with the same seed produce identical
 * traces.  Events may be cancelled (used heavily by retransmission
 * timers in the transport layer) or re-armed to a later tick.
 *
 * Representation (the PR-5 engine overhaul; DESIGN.md "Engine"):
 *
 *  - A four-level hierarchical timer wheel (256 slots per level, one
 *    level-0 slot per nanosecond tick, ~4.3 s horizon) holds the
 *    near future.  Slots are intrusive doubly-linked lists of pooled
 *    EventNodes, with one occupancy bitmap word set per 64 slots, so
 *    schedule() and cancel() are O(1) and finding the next event is
 *    a handful of bitmap scans.
 *  - One min-heap ordered by (tick, priority, sequence) holds every
 *    event the wheel does not: those due at the tick being executed
 *    (so same-tick scheduling during execution interleaves exactly
 *    as the seed engine's single heap did), those beyond the wheel
 *    horizon, and those scheduled into a gap the wheel cursor has
 *    already passed (possible only after a runUntil() peek).
 *  - EventIds are generation-tagged handles (generation in the high
 *    32 bits, pool index in the low 32), so cancel()/pending() are
 *    O(1) pointer probes with no side hash set, and a recycled node
 *    can never be confused with a stale handle.
 *  - Callbacks are sim::EventFn (small-buffer optimized): the
 *    steady-state schedule/fire path performs zero heap allocations.
 *    The model's own captures fit too, so a message crossing the
 *    simulated network spills no event to the heap (test_footprint).
 *
 * The firing order — and therefore the event-trace fingerprint — is
 * bit-identical to the seed engine's (tests/test_golden_fingerprint).
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "event_fn.hh"
#include "types.hh"

namespace nectar::sim {

namespace detail {
/**
 * Installed by coro.hh the first time a detached coroutine frame is
 * created: destroys detached frames still suspended once the last
 * live EventQueue is destroyed, so server loops parked on a Channel
 * (and the messages they own) are reclaimed instead of leaking.
 */
// nectar-lint: global-ok process-wide coroutine-frame reaper hook
inline void (*detachedReaper)() = nullptr;
// nectar-lint: global-ok paired with detachedReaper above
inline int liveEventQueues = 0;
} // namespace detail

/**
 * Opaque handle identifying a scheduled event, usable for cancel(),
 * pending() and rearm().  Internally (generation << 32 | pool index);
 * treat as opaque.
 */
using EventId = std::uint64_t;

/** Sentinel EventId meaning "no event". */
constexpr EventId invalidEventId = 0;

/**
 * Relative ordering of events scheduled for the same tick.  Lower
 * values fire first.  Hardware uses the default; "end of quantum"
 * bookkeeping can use late priorities.
 */
enum class EventPriority : int {
    first = 0,
    front = 5, ///< zero-delay continuations (scheduleAtFront)
    hardware = 10,
    normal = 20,
    software = 30,
    stats = 40,
    last = 50,
};

/**
 * A single-threaded discrete-event scheduler.
 *
 * The queue owns simulated time: now() advances only while run*() pops
 * events.  Scheduling in the past is a panic (it would break
 * causality).
 */
class EventQueue
{
  public:
    /** Member alias so generic drivers can name the handle type. */
    using EventId = sim::EventId;

    EventQueue() { ++detail::liveEventQueues; }
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick; must be >= now().
     * @param fn Callback to invoke; captures up to EventFn::sboBytes
     *        are stored inline in the pooled event node.
     * @param prio Same-tick ordering class.
     * @return Handle usable with cancel()/rearm().
     */
    EventId schedule(Tick when, EventFn fn,
                     EventPriority prio = EventPriority::normal);

    /** Schedule a callback @p delay ticks from now. */
    EventId
    scheduleIn(Tick delay, EventFn fn,
               EventPriority prio = EventPriority::normal)
    {
        return schedule(_now + delay, std::move(fn), prio);
    }

    /**
     * Schedule a zero-delay continuation at the current tick, ahead
     * of every same-tick event in the ordinary priority classes that
     * has not yet fired (EventPriority::front).  This is the
     * "finish what you started" class: an immediate completion posted
     * by the handler that is executing right now runs before any
     * hardware arrival that happens to share the tick.
     */
    EventId
    scheduleAtFront(EventFn fn)
    {
        return schedule(_now, std::move(fn), EventPriority::front);
    }

    /**
     * Cancel a pending event.  O(1): the node is unlinked from its
     * wheel slot (or its heap entry is invalidated by a generation
     * bump) and recycled immediately.
     *
     * @return true if the event was pending and is now cancelled;
     *         false if it already fired, was already cancelled, or the
     *         id is invalid.
     */
    bool cancel(EventId id);

    /**
     * Re-arm a pending event to fire at absolute tick @p when,
     * keeping its callback and priority.  Trace-equivalent to
     * cancel(id) + schedule(when, <same fn>, <same prio>) — including
     * consuming a fresh sequence number — but without re-filing the
     * node when the new deadline is later than the currently filed
     * one: the node stays in its wheel slot and is lazily moved when
     * that slot comes due.  This is the retransmission-timer fast
     * path: a timer re-armed on every ack touches the wheel only in
     * the rare case its old deadline is actually reached.
     *
     * @return The replacement handle (the old one is dead), or
     *         invalidEventId if @p id was not pending.
     */
    EventId rearm(EventId id, Tick when);

    /** Re-arm @p id to @p delay ticks from now; see rearm(). */
    EventId
    rearmIn(EventId id, Tick delay)
    {
        return rearm(id, _now + delay);
    }

    /** True if @p id refers to an event that has not yet fired. */
    bool pending(EventId id) const;

    /** Number of events still scheduled (excluding cancelled ones). */
    std::size_t pendingCount() const { return _pending; }

    /** True when no live events remain. */
    bool empty() const { return _pending == 0; }

    /**
     * Run until the queue drains or @p limit events have fired.
     *
     * @param limit Safety valve against runaway simulations.
     * @return Number of events executed.
     */
    std::uint64_t run(std::uint64_t limit = defaultEventLimit);

    /**
     * Run events with tick <= @p until (inclusive), then set now() to
     * @p until even if the queue drained earlier.  If @p limit stops
     * the run while such events remain, now() stays at the last event
     * fired.
     *
     * @return Number of events executed.
     */
    std::uint64_t runUntil(Tick until,
                           std::uint64_t limit = defaultEventLimit);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executedCount() const { return _executed; }

    /**
     * Rolling FNV-1a hash of the (tick, priority, sequence) of every
     * event executed so far — the event-trace fingerprint.  Two runs
     * of the same seeded scenario must report identical fingerprints;
     * the determinism harness (tests/test_determinism.cc) runs each
     * tier-1 scenario twice and diffs them, and the golden harness
     * (tests/test_golden_fingerprint.cc) pins the absolute values.
     */
    std::uint64_t fingerprint() const { return _fingerprint; }

    /** Default event-count safety limit for run()/runUntil(). */
    static constexpr std::uint64_t defaultEventLimit = 500'000'000;

    // ---- engine introspection (bench_engine, tests) ----------------

    /** Event nodes currently allocated to the pool. */
    std::size_t poolSize() const { return _nodes.size(); }

    /** Re-arms that took the lazy no-refile fast path. */
    std::uint64_t lazyRearmCount() const { return _lazyRearms; }

    /** Wheel→wheel cascades performed while locating next events. */
    std::uint64_t cascadeCount() const { return _cascades; }

  private:
    // One level-0 slot per tick; 256 slots per level; four levels
    // cover ticks [cursor, cursor + 2^32) — about 4.3 simulated
    // seconds ahead — before the heap takes over.
    static constexpr int slotBits = 8;
    static constexpr int slots = 1 << slotBits;
    static constexpr int levels = 4;
    static constexpr int bitmapWords = slots / 64;
    static constexpr Tick wheelHorizonBits =
        static_cast<Tick>(slotBits) * levels;

    enum class NodeState : std::uint8_t {
        free,
        wheel, ///< linked into a wheel slot
        heap,  ///< in the heap, or parked in _ready
    };

    /** A pooled, intrusively linked event. */
    struct EventNode {
        Tick when = 0;  ///< deadline (may differ from filed slot
                        ///< after a lazy re-arm)
        Tick filed = 0; ///< tick this node's wheel slot represents
        std::uint64_t seq = 0; ///< firing-order sequence number
        EventNode *prev = nullptr;
        EventNode *next = nullptr; ///< also the freelist link
        std::uint32_t gen = 1;
        std::uint32_t idx = 0; ///< own position in the node pool
        int prio = 0;
        std::uint8_t level = 0; ///< wheel level when state == wheel
        NodeState state = NodeState::free;
        EventFn fn;
    };

    /** Heap entry; stale when gen no longer matches the node. */
    struct HeapEntry {
        Tick when;
        std::uint64_t seq;
        int prio;
        std::uint32_t gen;
        std::uint32_t node; ///< pool index
    };

    struct HeapLater {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    struct WheelLevel {
        std::array<EventNode *, slots> head{};
        std::array<std::uint64_t, bitmapWords> bitmap{};
    };

    EventNode *allocNode();
    /** Bump @p n's generation (old handles/heap entries go stale). */
    static void bumpGen(EventNode *n);
    /** Destroy @p n's callback and return it to the freelist. */
    void retire(EventNode *n);
    EventNode *decode(EventId id) const;
    static EventId makeId(const EventNode *n);

    /** File a node into the wheel, or into the heap when it is due
     *  now, behind the cursor or beyond the wheel horizon. */
    void place(EventNode *n);
    void wheelLink(EventNode *n, int level);
    void wheelUnlink(EventNode *n);

    /** Earliest occupied slot index >= from at @p level, or -1. */
    int scanLevel(int level, int from) const;

    /**
     * Tick of the earliest wheel event, cascading higher-level slots
     * down as needed (moves _cursor forward).  maxTick when empty.
     */
    Tick wheelNextTick();

    /** Move the wheel's level-0 slot for tick @p t (the wheel's next
     *  tick) into the heap, re-filing lazily re-armed nodes. */
    void pullTick(Tick t);

    /**
     * Tick of the next live event anywhere, or maxTick.  After a
     * non-maxTick return, _ready or else the heap's top is the fresh
     * minimal event.
     */
    Tick nextTick();

    /** Execute the event nextTick() located. */
    void fireTop();

    /** Fold @p v into the event-trace fingerprint (FNV-1a). */
    void mixFingerprint(std::uint64_t v);

    void heapPush(const EventNode *n);
    void heapPop();
    /** Drop stale (cancelled / re-armed) entries off the top. */
    void heapPrune();
    /** Tick of the heap's top entry (which must be fresh), or
     *  maxTick when the heap is empty. */
    Tick heapTop() const;

    Tick _now = 0;
    /** Wheel scan position; never rewinds, always <= next wheel
     *  event's tick.  May run ahead of _now after a runUntil peek. */
    Tick _cursor = 0;
    std::uint64_t _nextSeq = 1;
    std::uint64_t _executed = 0;
    std::uint64_t _fingerprint = 0xcbf29ce484222325ULL; // FNV offset
    std::size_t _pending = 0;
    std::uint64_t _lazyRearms = 0;
    std::uint64_t _cascades = 0;

    std::array<WheelLevel, levels> _wheel;
    std::size_t _wheelCount = 0;
    /** Direct-fire fast path: when the next tick's sole candidate is
     *  a single wheel node, nextTick() parks it here and fireTop()
     *  fires it without a heap round trip.  Consumed by fireTop();
     *  runUntil() pushes it into the heap when its peek overshoots. */
    EventNode *_ready = nullptr;
    /** Every pending event not in the wheel (see the file comment). */
    std::vector<HeapEntry> _heap;

    std::vector<std::unique_ptr<EventNode>> _nodes;
    EventNode *_freelist = nullptr;
};

} // namespace nectar::sim
