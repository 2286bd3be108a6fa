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

// ---- heap ----------------------------------------------------------

void
EventQueue::heapPush(const EventNode *n)
{
    _heap.push_back(HeapEntry{n->when, n->seq, n->prio, n->gen, n->idx});
    std::push_heap(_heap.begin(), _heap.end(), HeapLater{});
}

void
EventQueue::heapPop()
{
    std::pop_heap(_heap.begin(), _heap.end(), HeapLater{});
    _heap.pop_back();
}

void
EventQueue::heapPrune()
{
    while (!_heap.empty()) {
        const HeapEntry &e = _heap.front();
        if (_nodes[e.node]->gen == e.gen)
            return;
        heapPop(); // stale: event was cancelled or re-armed
    }
}

Tick
EventQueue::heapTop() const
{
    return _heap.empty() ? noTick : _heap.front().when;
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
    const auto x = static_cast<std::uint64_t>(when) ^
                   static_cast<std::uint64_t>(_cursor);
    // Due now, behind the scan position (only possible after a
    // runUntil() peek advanced _cursor past _now), or beyond the
    // horizon: the heap keeps it.
    if (when == _now || when < _cursor || (x >> wheelHorizonBits) != 0) {
        n->state = NodeState::heap;
        heapPush(n);
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
            // (lazily re-armed nodes re-placed into the heap).
            SIM_INVARIANT(_wheelCount == 0,
                          "wheel scan must find every resident");
            return noTick;
        }
    }
}

void
EventQueue::pullTick(Tick t)
{
    SIM_INVARIANT(t >= _cursor, "wheel next tick is >= cursor");
    _cursor = t;
    const int s = static_cast<int>(t & (slots - 1));
    auto &lv = _wheel[0];
    EventNode *n = lv.head[static_cast<std::size_t>(s)];
    lv.head[static_cast<std::size_t>(s)] = nullptr;
    lv.bitmap[static_cast<std::size_t>(s >> 6)] &= ~(1ULL << (s & 63));
    while (n != nullptr) {
        EventNode *next = n->next;
        n->prev = n->next = nullptr;
        --_wheelCount;
        if (n->when == t) {
            n->state = NodeState::heap;
            heapPush(n);
        } else {
            // Lazily re-armed to a later tick: re-file now.
            SIM_INVARIANT(n->when > t,
                          "deferred node must be re-armed later");
            place(n);
        }
        n = next;
    }
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
    place(n);
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
    // below invalidates it and heapPrune() skips it.
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
    place(n);
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
        heapPrune();
        if (heapTop() == _now)
            return _now; // same-tick chain: nothing can precede it
        const Tick wheel = wheelNextTick();
        // Read after the wheel scan: a cascade can move lazily
        // re-armed nodes past the horizon into the heap.
        const Tick heap = heapTop();
        if (heap < wheel) {
            // Nothing filed: drag the cursor along so future
            // schedules land back in the wheel instead of the heap.
            if (_wheelCount == 0 && heap > _cursor)
                _cursor = heap;
            return heap;
        }
        if (wheel == noTick)
            return noTick;
        const int s = static_cast<int>(wheel & (slots - 1));
        auto &lv = _wheel[0];
        EventNode *n = lv.head[static_cast<std::size_t>(s)];
        if (heap != wheel && n->next == nullptr && n->when == wheel) {
            // Direct-fire fast path: the only candidate at this tick
            // is a single wheel node; skip the heap round trip.
            _cursor = wheel;
            lv.head[static_cast<std::size_t>(s)] = nullptr;
            lv.bitmap[static_cast<std::size_t>(s >> 6)] &=
                ~(1ULL << (s & 63));
            --_wheelCount;
            n->state = NodeState::heap;
            _ready = n;
            return wheel;
        }
        pullTick(wheel);
        if (heapTop() == wheel)
            return wheel;
        // The pulled slot held only deferred re-arms; scan again.
    }
}

void
EventQueue::fireTop()
{
    EventNode *n = _ready;
    if (n != nullptr) {
        _ready = nullptr;
    } else {
        n = _nodes[_heap.front().node].get();
        SIM_INVARIANT(n->gen == _heap.front().gen,
                      "fired entry must be fresh");
        heapPop();
    }
    SIM_INVARIANT(n->when >= _now,
                  "event-time monotonicity: popped event lies in "
                  "the past");
    _now = n->when;
    ++_executed;
    mixFingerprint(static_cast<std::uint64_t>(n->when));
    mixFingerprint(static_cast<std::uint64_t>(n->prio));
    mixFingerprint(n->seq);
    // Recycle the node before invoking, so a handler scheduling a new
    // event reuses it and cancel-self returns false (as in the seed
    // engine, where the live-set erase preceded the call).
    EventFn fn = std::move(n->fn);
    bumpGen(n);
    retire(n);
    --_pending;
    fn();
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t n = 0;
    while (n < limit && nextTick() != noTick) {
        fireTop();
        ++n;
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

    std::uint64_t n = 0;
    Tick t = noTick;
    while (true) {
        t = nextTick();
        if (t == noTick || t > until || n == limit)
            break;
        fireTop();
        ++n;
    }
    if (_ready != nullptr) {
        // The peeked tick is not fired: put the direct-fire candidate
        // into the heap.
        heapPush(_ready);
        _ready = nullptr;
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
