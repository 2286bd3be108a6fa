#include "event_queue.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "invariant.hh"
#include "logging.hh"

namespace nectar::sim {

namespace {

/** "No event anywhere" sentinel tick. */
constexpr Tick noTick = std::numeric_limits<Tick>::max();

constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;

/** fnvPow[k] = fnvPrime^k mod 2^64. */
constexpr auto fnvPow = [] {
    std::array<std::uint64_t, 9> a{};
    a[0] = 1;
    for (std::size_t i = 1; i < a.size(); ++i)
        a[i] = a[i - 1] * fnvPrime;
    return a;
}();

} // namespace

EventQueue::~EventQueue()
{
    if (--detail::liveEventQueues == 0 && detail::detachedReaper)
        detail::detachedReaper();
}

void
EventQueue::mixFingerprint(std::uint64_t v)
{
    // FNV-1a over the value's eight bytes, bit-identical to the seed
    // engine's byte loop (tests/test_golden_fingerprint.cc holds it
    // to that).  The chain of dependent multiplies is the engine's
    // single largest fixed cost per event, so the run of high zero
    // bytes — ticks, priorities and sequence numbers rarely use all
    // eight — collapses into one multiply by a precomputed power of
    // the prime: (fp ^ 0) * P is fp * P, and multiplication mod 2^64
    // is associative.
    std::uint64_t fp = _fingerprint;
    int i = 0;
    do {
        fp = (fp ^ (v & 0xffU)) * fnvPrime;
        v >>= 8;
        ++i;
    } while (v != 0 && i < 8);
    _fingerprint = fp * fnvPow[static_cast<std::size_t>(8 - i)];
}

// ---- node pool -----------------------------------------------------

EventQueue::EventNode *
EventQueue::allocNode()
{
    if (_freelist != nullptr) {
        EventNode *n = _freelist;
        _freelist = n->next;
        n->next = nullptr;
        SIM_INVARIANT(n->state == NodeState::free,
                      "freelist holds only free nodes");
        return n;
    }
    _nodes.push_back(std::make_unique<EventNode>());
    EventNode *n = _nodes.back().get();
    n->idx = static_cast<std::uint32_t>(_nodes.size() - 1);
    return n;
}

void
EventQueue::bumpGen(EventNode *n)
{
    // Generation 0 is reserved so invalidEventId (and any small
    // integer mistaken for a handle) can never match a node.
    if (++n->gen == 0)
        n->gen = 1;
}

void
EventQueue::retire(EventNode *n)
{
    n->fn.reset();
    n->state = NodeState::free;
    n->prev = nullptr;
    n->next = _freelist;
    _freelist = n;
}

EventId
EventQueue::makeId(const EventNode *n)
{
    return (static_cast<EventId>(n->gen) << 32) | n->idx;
}

EventQueue::EventNode *
EventQueue::decode(EventId id) const
{
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    const auto idx = static_cast<std::uint32_t>(id & 0xffffffffU);
    if (gen == 0 || idx >= _nodes.size())
        return nullptr;
    EventNode *n = _nodes[idx].get();
    if (n->gen != gen)
        return nullptr; // fired, cancelled, or re-armed since
    SIM_INVARIANT(n->state != NodeState::free,
                  "a handle can only match a pending node");
    return n;
}

EventQueue::HeapEntry
EventQueue::entryFor(const EventNode *n) const
{
    return HeapEntry{n->when, n->seq, n->prio, n->gen, n->idx};
}

// ---- heaps ---------------------------------------------------------

void
EventQueue::heapPush(MinHeap &h, const HeapEntry &e)
{
    h.push_back(e);
    std::push_heap(h.begin(), h.end(), HeapLater{});
}

void
EventQueue::heapPop(MinHeap &h)
{
    std::pop_heap(h.begin(), h.end(), HeapLater{});
    h.pop_back();
}

void
EventQueue::heapPrune(MinHeap &h)
{
    while (!h.empty()) {
        const HeapEntry &e = h.front();
        if (_nodes[e.node]->gen == e.gen)
            return;
        heapPop(h); // stale: event was cancelled or re-armed
    }
}

// ---- wheel ---------------------------------------------------------

void
EventQueue::wheelLink(EventNode *n, int level)
{
    const int s =
        static_cast<int>((n->when >> (slotBits * level)) & (slots - 1));
    auto &lv = _wheel[static_cast<std::size_t>(level)];
    n->level = static_cast<std::uint8_t>(level);
    n->state = NodeState::wheel;
    n->prev = nullptr;
    n->next = lv.head[static_cast<std::size_t>(s)];
    if (n->next != nullptr)
        n->next->prev = n;
    lv.head[static_cast<std::size_t>(s)] = n;
    lv.bitmap[static_cast<std::size_t>(s >> 6)] |= 1ULL << (s & 63);
    ++_wheelCount;
}

void
EventQueue::wheelUnlink(EventNode *n)
{
    const int s = static_cast<int>((n->filed >> (slotBits * n->level)) &
                                   (slots - 1));
    auto &lv = _wheel[n->level];
    if (n->prev != nullptr)
        n->prev->next = n->next;
    else {
        SIM_INVARIANT(lv.head[static_cast<std::size_t>(s)] == n,
                      "unlinked node must be its slot's list head");
        lv.head[static_cast<std::size_t>(s)] = n->next;
    }
    if (n->next != nullptr)
        n->next->prev = n->prev;
    if (lv.head[static_cast<std::size_t>(s)] == nullptr)
        lv.bitmap[static_cast<std::size_t>(s >> 6)] &=
            ~(1ULL << (s & 63));
    n->prev = n->next = nullptr;
    --_wheelCount;
}

void
EventQueue::place(EventNode *n)
{
    const Tick when = n->when;
    if (when < _cursor) {
        // Behind the scan position (only possible after a runUntil()
        // peek advanced _cursor past _now): park in the early heap.
        n->state = NodeState::early;
        heapPush(_early, entryFor(n));
        return;
    }
    const auto x = static_cast<std::uint64_t>(when) ^
                   static_cast<std::uint64_t>(_cursor);
    if ((x >> wheelHorizonBits) != 0) {
        n->state = NodeState::far;
        heapPush(_far, entryFor(n));
        return;
    }
    // Highest differing bit picks the level (0 when x == 0: due
    // exactly at the cursor tick).
    const int level = x == 0 ? 0 : (std::bit_width(x) - 1) / slotBits;
    n->filed = when;
    wheelLink(n, level);
}

int
EventQueue::scanLevel(int level, int from) const
{
    const auto &bm = _wheel[static_cast<std::size_t>(level)].bitmap;
    int w = from >> 6;
    std::uint64_t word =
        bm[static_cast<std::size_t>(w)] & (~0ULL << (from & 63));
    while (true) {
        if (word != 0)
            return (w << 6) + std::countr_zero(word);
        if (++w >= bitmapWords)
            return -1;
        word = bm[static_cast<std::size_t>(w)];
    }
}

Tick
EventQueue::wheelNextTick()
{
    if (_wheelCount == 0)
        return noTick;
    while (true) {
        bool cascaded = false;
        for (int level = 0; level < levels; ++level) {
            const int c = static_cast<int>(
                (_cursor >> (slotBits * level)) & (slots - 1));
            const int s = scanLevel(level, c);
            if (s < 0)
                continue;
            if (level == 0)
                return (_cursor & ~static_cast<Tick>(slots - 1)) | s;

            // Cascade: advance the cursor to the slot's window start
            // and re-file its events one level (or more) down.  The
            // cursor never rewinds — w >= _cursor because s is the
            // earliest occupied slot at or after the cursor's digit.
            const Tick windowMask =
                (static_cast<Tick>(1) << (slotBits * (level + 1))) - 1;
            const Tick w = (_cursor & ~windowMask) |
                           (static_cast<Tick>(s) << (slotBits * level));
            SIM_INVARIANT(w >= _cursor,
                          "wheel cursor must never rewind");
            _cursor = w;
            auto &lv = _wheel[static_cast<std::size_t>(level)];
            EventNode *n = lv.head[static_cast<std::size_t>(s)];
            lv.head[static_cast<std::size_t>(s)] = nullptr;
            lv.bitmap[static_cast<std::size_t>(s >> 6)] &=
                ~(1ULL << (s & 63));
            while (n != nullptr) {
                EventNode *next = n->next;
                n->prev = n->next = nullptr;
                --_wheelCount;
                // Re-place by the *current* deadline, so a lazily
                // re-armed node lands where it now belongs.
                place(n);
                n = next;
            }
            ++_cascades;
            cascaded = true;
            break; // rescan from level 0
        }
        if (!cascaded) {
            // A cascade can push every resident past the horizon
            // (lazily re-armed nodes re-placed into the far heap).
            SIM_INVARIANT(_wheelCount == 0,
                          "wheel scan must find every resident");
            return noTick;
        }
    }
}

void
EventQueue::pullTick(Tick t, bool fromWheel)
{
    if (fromWheel) {
        SIM_INVARIANT(t >= _cursor, "wheel next tick is >= cursor");
        _cursor = t;
        const int s = static_cast<int>(t & (slots - 1));
        auto &lv = _wheel[0];
        EventNode *n = lv.head[static_cast<std::size_t>(s)];
        lv.head[static_cast<std::size_t>(s)] = nullptr;
        lv.bitmap[static_cast<std::size_t>(s >> 6)] &=
            ~(1ULL << (s & 63));
        while (n != nullptr) {
            EventNode *next = n->next;
            n->prev = n->next = nullptr;
            --_wheelCount;
            if (n->when == t) {
                n->state = NodeState::due;
                heapPush(_due, entryFor(n));
            } else {
                // Lazily re-armed to a later tick: re-file now.
                SIM_INVARIANT(n->when > t,
                              "deferred node must be re-armed later");
                place(n);
            }
            n = next;
        }
    } else if (_wheelCount == 0 && t > _cursor) {
        // Nothing filed: drag the cursor along so future schedules
        // land back in the wheel instead of the far heap.
        _cursor = t;
    }
    const auto drain = [this, t](MinHeap &h) {
        while (!h.empty()) {
            const HeapEntry e = h.front();
            if (_nodes[e.node]->gen != e.gen) {
                heapPop(h); // stale
                continue;
            }
            if (e.when != t)
                break;
            heapPop(h);
            _nodes[e.node]->state = NodeState::due;
            heapPush(_due, e);
        }
    };
    drain(_early);
    drain(_far);
}

// ---- scheduling API ------------------------------------------------

EventId
EventQueue::schedule(Tick when, EventFn fn, EventPriority prio)
{
    if (when < _now)
        panic("EventQueue::schedule: scheduling in the past");
    if (!fn)
        panic("EventQueue::schedule: empty callback");

    EventNode *n = allocNode();
    n->when = when;
    n->seq = _nextSeq++;
    n->prio = static_cast<int>(prio);
    n->fn = std::move(fn);
    ++_pending;
    if (when == _now) {
        n->state = NodeState::due;
        heapPush(_due, entryFor(n));
    } else {
        place(n);
    }
    return makeId(n);
}

bool
EventQueue::cancel(EventId id)
{
    EventNode *n = decode(id);
    if (n == nullptr)
        return false;
    if (n->state == NodeState::wheel)
        wheelUnlink(n);
    // Heap residents leave a stale entry behind; the generation bump
    // below invalidates it and heapPrune()/pullTick() skip it.
    bumpGen(n);
    retire(n);
    --_pending;
    return true;
}

EventId
EventQueue::rearm(EventId id, Tick when)
{
    EventNode *n = decode(id);
    if (n == nullptr)
        return invalidEventId;
    if (when < _now)
        panic("EventQueue::rearm: scheduling in the past");

    // Trace parity with the cancel+schedule idiom this replaces: the
    // re-armed event consumes a fresh sequence number.
    n->seq = _nextSeq++;
    bumpGen(n); // the old handle (and any heap entry) goes stale

    if (n->state == NodeState::wheel && when >= n->filed &&
        when > _now) {
        // Fast path: the node's slot comes due no later than the new
        // deadline, so leave it filed; the slot visit re-places it.
        n->when = when;
        ++_lazyRearms;
        return makeId(n);
    }

    if (n->state == NodeState::wheel)
        wheelUnlink(n);
    n->when = when;
    if (when == _now) {
        n->state = NodeState::due;
        heapPush(_due, entryFor(n));
    } else {
        place(n);
    }
    return makeId(n);
}

bool
EventQueue::pending(EventId id) const
{
    return decode(id) != nullptr;
}

// ---- execution -----------------------------------------------------

Tick
EventQueue::nextTick()
{
    SIM_INVARIANT(_ready == nullptr,
                  "previous ready node must have been consumed");
    while (true) {
        heapPrune(_due);
        const Tick due = _due.empty() ? noTick : _due.front().when;
        if (due == _now)
            return due; // same-tick chain: nothing can precede it
        heapPrune(_early);
        heapPrune(_far);
        const Tick wheel = wheelNextTick();
        const Tick early =
            _early.empty() ? noTick : _early.front().when;
        const Tick far = _far.empty() ? noTick : _far.front().when;
        const Tick t =
            std::min(std::min(due, wheel), std::min(early, far));
        if (t == noTick)
            return noTick;
        if (t == wheel && due == noTick && early != t && far != t) {
            // Direct-fire fast path: the only candidate at t is the
            // wheel's level-0 slot.  If it holds a single node due
            // exactly at t, skip the due-heap round trip entirely.
            const int s = static_cast<int>(t & (slots - 1));
            auto &lv = _wheel[0];
            EventNode *n = lv.head[static_cast<std::size_t>(s)];
            if (n != nullptr && n->next == nullptr && n->when == t) {
                _cursor = t;
                lv.head[static_cast<std::size_t>(s)] = nullptr;
                lv.bitmap[static_cast<std::size_t>(s >> 6)] &=
                    ~(1ULL << (s & 63));
                --_wheelCount;
                n->prev = nullptr;
                n->state = NodeState::due;
                _ready = n;
                return t;
            }
        }
        pullTick(t, wheel == t);
        heapPrune(_due);
        if (!_due.empty() && _due.front().when == t)
            return t;
        // The pulled slot held only deferred re-arms; scan again.
    }
}

void
EventQueue::fireNode(EventNode *n, Tick when, int prio,
                     std::uint64_t seq)
{
    SIM_INVARIANT(when >= _now,
                  "event-time monotonicity: popped event lies in "
                  "the past");
    _now = when;
    ++_executed;
    mixFingerprint(static_cast<std::uint64_t>(when));
    mixFingerprint(static_cast<std::uint64_t>(prio));
    mixFingerprint(seq);
    // Recycle the node before invoking, so a handler scheduling a new
    // event reuses it and cancel-self returns false (as in the seed
    // engine, where the live-set erase preceded the call).
    EventFn fn = std::move(n->fn);
    bumpGen(n);
    retire(n);
    --_pending;
    fn();
}

void
EventQueue::fireTop()
{
    if (_ready != nullptr) {
        EventNode *n = _ready;
        _ready = nullptr;
        fireNode(n, n->when, n->prio, n->seq);
        return;
    }
    const HeapEntry e = _due.front();
    heapPop(_due);
    EventNode *n = _nodes[e.node].get();
    SIM_INVARIANT(n->gen == e.gen, "fired entry must be fresh");
    fireNode(n, e.when, e.prio, e.seq);
}

std::uint64_t
EventQueue::fireTick(Tick t, std::uint64_t budget)
{
    std::uint64_t fired = 0;
    SIM_INVARIANT(_ready == nullptr,
                  "fireTick batch path runs off the due heap");

    // Extract the equal-timestamp run out of the due heap in one
    // linear pass (dropping stale entries as we go), then restore the
    // heap property over the survivors.  The due heap can legitimately
    // hold future-tick entries here — a runUntil() peek that overshot
    // re-files its candidate — so partition by tick, don't assume the
    // heap is homogeneous.
    std::vector<HeapEntry> batch = std::move(_batchScratch);
    batch.clear();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < _due.size(); ++i) {
        const HeapEntry &e = _due[i];
        if (_nodes[e.node]->gen != e.gen)
            continue; // stale: cancelled or re-armed
        if (e.when == t)
            batch.push_back(e);
        else
            _due[keep++] = e;
    }
    _due.resize(keep);
    std::make_heap(_due.begin(), _due.end(), HeapLater{});
    std::sort(batch.begin(), batch.end(),
              [](const HeapEntry &a, const HeapEntry &b) {
                  if (a.prio != b.prio)
                      return a.prio < b.prio;
                  return a.seq < b.seq;
              });

    for (std::size_t bi = 0; bi < batch.size(); ++bi) {
        const HeapEntry e = batch[bi];
        bool dead = false;
        // Events scheduled at t *during* the batch land in the due
        // heap with fresh (larger) sequence numbers; any of them in a
        // stronger priority class (e.g. a front continuation) must
        // fire before the rest of the batch, exactly as the per-event
        // engine would have ordered them.
        while (true) {
            if (_nodes[e.node]->gen != e.gen) {
                dead = true; // a fired event cancelled/re-armed it
                break;
            }
            heapPrune(_due);
            if (_due.empty() || _due.front().when != t)
                break;
            const HeapEntry &top = _due.front();
            if (top.prio > e.prio ||
                (top.prio == e.prio && top.seq > e.seq))
                break;
            fireTop();
            ++fired;
            if (fired >= budget)
                break;
        }
        if (dead)
            continue;
        if (fired >= budget ||
            _nodes[e.node]->gen != e.gen) {
            // Out of budget (or e died on the final interleave): put
            // the unfired tail back for the next fireTick() round.
            for (std::size_t j = bi; j < batch.size(); ++j) {
                const HeapEntry &r = batch[j];
                if (_nodes[r.node]->gen == r.gen &&
                    (j > bi || fired >= budget))
                    heapPush(_due, r);
            }
            break;
        }
        fireNode(_nodes[e.node].get(), e.when, e.prio, e.seq);
        ++fired;
        if (fired >= budget) {
            for (std::size_t j = bi + 1; j < batch.size(); ++j) {
                const HeapEntry &r = batch[j];
                if (_nodes[r.node]->gen == r.gen)
                    heapPush(_due, r);
            }
            break;
        }
    }
    batch.clear();
    _batchScratch = std::move(batch);
    return fired;
}

bool
EventQueue::step()
{
    if (nextTick() == noTick)
        return false;
    fireTop();
    return true;
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    // Tiny due heaps fire per-event: below this size fireTick()'s
    // extraction pass costs more than the heap pops it saves.  Firing
    // one event and re-entering nextTick() (which early-outs on
    // due == now) is exactly the per-event engine's order, so the
    // small path is always safe to take.
    constexpr std::size_t batchThreshold = 4;
    std::uint64_t n = 0;
    while (n < limit) {
        const Tick t = nextTick();
        if (t == noTick)
            break;
        if (_ready != nullptr || _due.size() < batchThreshold) {
            fireTop();
            ++n;
            continue;
        }
        n += fireTick(t, limit - n);
    }
    if (n == limit)
        warn("EventQueue::run: event limit reached");
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick until, std::uint64_t limit)
{
    if (until < _now)
        panic("EventQueue::runUntil: target tick in the past");

    constexpr std::size_t batchThreshold = 4; // see run()
    std::uint64_t n = 0;
    Tick t = noTick;
    while (true) {
        t = nextTick();
        if (t == noTick || t > until || n == limit) {
            if (_ready != nullptr) {
                // The peeked tick is not fired: put the direct-fire
                // candidate back (it already counts as due; see
                // nextTick()).
                heapPush(_due, entryFor(_ready));
                _ready = nullptr;
            }
            break;
        }
        if (_ready != nullptr || _due.size() < batchThreshold) {
            fireTop();
            ++n;
            continue;
        }
        n += fireTick(t, limit - n);
    }
    if (n == limit)
        warn("EventQueue::runUntil: event limit reached");
    // Stopped by the limit with events at or before @p until still
    // pending, now() stays at the last one fired: the next run() must
    // not move time backwards.
    if (t == noTick || t > until)
        _now = until;
    return n;
}

} // namespace nectar::sim
