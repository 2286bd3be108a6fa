/**
 * @file
 * The reference loop: fixed event-loop-like work that does not use the
 * simulator's sources, timed before every repetition.
 *
 * On a shared host the simulator slows by up to 2x in phases that last
 * minutes, and CPU time slows with it, so raw host times of two runs
 * made minutes apart are not comparable.  The phases hit the
 * simulator's memory, allocator and branch behaviour; a pure ALU loop
 * barely notices them.  This loop does what the event loop does and
 * slows in step with it.  run.py scales a run's host times by
 * (nominal loop time / the run's mean loop time).
 *
 * It has two parts, because the workloads slow differently: the
 * fabric16 ones, with large working sets, track the first; the
 * cache-resident ping-pong tracks the second.
 */

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hh"

namespace nectarbench {

namespace {

/** Keeps the loop's results alive so the compiler cannot drop them. */
volatile std::uint64_t sink;

/** xorshift64: the loop's inputs are fixed, not seeded. */
struct Rng
{
    std::uint64_t x = 0x9E3779B97F4A7C15ull;

    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

/** Part 1: a binary heap of timestamps, a rolling set of small
 *  allocations and random hits on a 4 MiB table. */
std::uint64_t
heapAndTable(Rng &rng)
{
    constexpr std::uint32_t tableSize = 1u << 19;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
    std::vector<std::uint64_t> table(tableSize);
    std::vector<char *> live(1024, nullptr);
    for (std::uint32_t i = 0; i < 4096; ++i)
        heap.push_back({rng.next() % 1000, i});
    std::make_heap(heap.begin(), heap.end(), std::greater<>());

    std::uint64_t sum = 0;
    for (int n = 0; n < 120000; ++n) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const auto [at, id] = heap.back();
        heap.pop_back();
        char *&slot = live[static_cast<std::size_t>(n) & 1023];
        delete[] slot;
        slot = new char[48 + (id & 127)];
        slot[0] = static_cast<char>(at);
        sum += table[(at * 2654435761u ^ id) & (tableSize - 1)]++;
        heap.push_back({at + 1 + rng.next() % 1000, id});
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    for (char *p : live)
        delete[] p;
    return sum;
}

struct Event
{
    std::uint64_t at;
    std::uint32_t seq;
    std::uint32_t handler;
    char *payload;
};

struct Later
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
};

struct LoopState
{
    std::unordered_map<std::uint64_t, std::uint64_t> maps[4];
    std::deque<std::uint32_t> queues[8];
    std::vector<std::uint64_t> table = std::vector<std::uint64_t>(1u << 18);
    std::uint64_t acc = 0;
};

struct Handler
{
    virtual ~Handler() = default;
    /** @return the delay to the next event. */
    virtual std::uint64_t fire(const Event &e, LoopState &s) = 0;
};

/** One of many distinct handlers, so the loop has some of the
 *  simulator's spread of code and indirect-branch targets. */
template <int K>
struct KindHandler : Handler
{
    std::uint64_t
    fire(const Event &e, LoopState &s) override
    {
        auto &m = s.maps[K % 4];
        const std::uint64_t key = (e.at * (2 * K + 1) + e.seq) & 2047;
        if (auto it = m.find(key); it == m.end())
            m.emplace(key, e.at);
        else
            it->second += e.seq;
        auto &q = s.queues[K % 8];
        q.push_back(e.seq);
        if (q.size() > 32 + K)
            q.pop_front();
        const std::function<std::uint64_t(std::uint64_t)> f =
            [a = e.at, b = std::uint64_t{K}, c = e.seq,
             d = s.acc](std::uint64_t v) { return (v * a + b) ^ (c + d); };
        std::uint64_t v =
            f(s.table[(e.at * 2654435761u + K) & ((1u << 18) - 1)]++);
        for (int i = 0; i < (K & 3) + 1; ++i)
            v = v * 31 + static_cast<std::uint64_t>(e.payload[i]);
        return v % (97 + 13 * K) + 1;
    }
};

template <int... K>
std::vector<std::unique_ptr<Handler>>
makeHandlers(std::integer_sequence<int, K...>)
{
    std::vector<std::unique_ptr<Handler>> v;
    (v.push_back(std::make_unique<KindHandler<K>>()), ...);
    return v;
}

/** Part 2: a small event loop over 24 handler kinds. */
std::uint64_t
eventLoop(Rng &rng)
{
    LoopState s;
    const auto handlers =
        makeHandlers(std::make_integer_sequence<int, 24>());
    const auto pick = [&] {
        return static_cast<std::uint32_t>(rng.next() % handlers.size());
    };
    std::priority_queue<Event, std::vector<Event>, Later> pending;
    std::uint32_t seq = 0;
    for (int i = 0; i < 512; ++i)
        pending.push({rng.next() % 1000, seq++, pick(), new char[32]()});

    for (int n = 0; n < 80000; ++n) {
        const Event e = pending.top();
        pending.pop();
        const std::uint64_t delay = handlers[e.handler]->fire(e, s);
        s.acc += delay;
        delete[] e.payload;
        char *p = new char[32 + (rng.next() & 95)];
        std::fill(p, p + 4, static_cast<char>(delay));
        pending.push({e.at + delay, seq++, pick(), p});
    }
    for (; !pending.empty(); pending.pop())
        delete[] pending.top().payload;
    return s.acc;
}

} // namespace

double
referenceLoopSeconds()
{
    const Clock::time_point start = Clock::now();
    Rng rng;
    const std::uint64_t a = heapAndTable(rng);
    const std::uint64_t b = eventLoop(rng);
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    sink = a ^ b;
    return secs;
}

} // namespace nectarbench
