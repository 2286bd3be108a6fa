/**
 * @file
 * E16 — discrete-event engine throughput (events/sec, ns/event).
 *
 * Unlike E1-E15, this measures the *simulator*, not the simulated
 * system: the PR-5 engine overhaul (hierarchical timer wheel, pooled
 * event nodes, EventFn small-buffer callbacks, lazy re-arm) is a
 * wall-clock optimisation and must prove itself against the seed
 * engine, which is preserved verbatim in
 * tests/helpers/legacy_event_queue.hh.  Three synthetic workloads
 * bracket the shapes the real stack generates:
 *
 *  - pipeline: schedule-one/fire-one chains at HUB-cycle spacing —
 *    the packet pipeline's steady state (E9's engine-side profile),
 *  - mesh: many concurrent actors with mixed horizons — the
 *    mesh-scaling workloads' deep-queue profile (E10),
 *  - churn: retransmission timers re-armed on every ack and almost
 *    never firing — the transport RTO pattern, the motivating case
 *    for O(1) cancel/re-arm.
 *
 * Every row lands in BENCH_engine.json along with the wheel/seed
 * speedups and a steady-state allocation count: after warm-up, one
 * million schedule/fire cycles on the wheel engine must perform zero
 * heap allocations (global operator new is instrumented below).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "helpers/legacy_event_queue.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

// nectar-lint-file: capture-ok every scenario drives eq.run() to
// completion before any captured frame local leaves scope
// nectar-lint-file: wallclock-ok this harness measures real
// events-per-second throughput; steady_clock never feeds sim state

// ----- global allocation counter ------------------------------------
//
// Counts every operator-new in the process; scenario deltas isolate
// the engine's steady-state behaviour.  Counting is exact, not
// sampled, so "0 allocations per million events" is a hard claim.

namespace {
std::uint64_t g_newCalls = 0;

// Kept out of line: once a replaced delete inlines into its caller,
// GCC sees free() applied to a pointer that came from operator new
// and warns (-Wmismatched-new-delete).  Counting happens in operator
// new alone, so this changes no count.
[[gnu::noinline]] void
releaseBlock(void *p) noexcept
{
    std::free(p);
}
} // namespace

void *
operator new(std::size_t n)
{
    ++g_newCalls;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    releaseBlock(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    releaseBlock(p);
}

void
operator delete[](void *p) noexcept
{
    releaseBlock(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    releaseBlock(p);
}

namespace {

using namespace nectar;
using nectar::testutil::LegacyEventQueue;
using sim::EventPriority;
using sim::Tick;
using namespace sim::ticks;

// ----- scenarios, templated over the engine -------------------------
//
// Each scenario is a stable actor object whose events capture only
// [this] (or [this, smallInt]): 8-16 bytes, inside the inline buffer
// of *both* callback types, so the comparison isolates the engines'
// internals rather than closure allocation strategies.

/** Schedule-one/fire-one chains at HUB-cycle spacing. */
template <typename Queue>
struct PipelineActor
{
    Queue &eq;
    std::uint64_t budget;

    void
    fire()
    {
        if (budget == 0)
            return;
        --budget;
        eq.scheduleIn(70 * ns, [this] { fire(); },
                      EventPriority::hardware);
    }
};

template <typename Queue>
void
pipelineScenario(Queue &eq, std::uint64_t events)
{
    constexpr int chains = 4;
    PipelineActor<Queue> actor{eq, events};
    for (int i = 0; i < chains; ++i)
        eq.scheduleIn((i + 1) * 10 * ns, [&actor] { actor.fire(); },
                      EventPriority::hardware);
    eq.run();
}

/** Many actors, mixed horizons: deep queue, wheel levels exercised. */
template <typename Queue>
struct MeshActor
{
    Queue &eq;
    std::uint64_t budget;
    sim::Random rng{7, /*stream=*/16};

    static constexpr Tick deltas[] = {70 * ns,  110 * ns, 530 * ns,
                                      3 * us,   21 * us,  170 * us,
                                      900 * us, 2 * ms};

    void
    act()
    {
        if (budget == 0)
            return;
        --budget;
        eq.scheduleIn(deltas[rng.below(8)], [this] { act(); },
                      EventPriority::normal);
    }
};

template <typename Queue>
void
meshScenario(Queue &eq, std::uint64_t events)
{
    constexpr int actors = 64;
    MeshActor<Queue> shared{eq, events};
    for (int i = 0; i < actors; ++i)
        eq.scheduleIn((i + 1) * 100 * ns, [&shared] { shared.act(); },
                      EventPriority::normal);
    eq.run();
}

/** RTO churn: per-flow timers re-armed on every ack, rarely firing.
 *  The wheel engine takes its lazy re-arm path; the seed engine can
 *  only cancel+schedule, which is what the stack used to do. */
template <typename Queue>
struct ChurnActor
{
    Queue &eq;
    std::uint64_t budget;
    std::vector<typename Queue::EventId> timers;

    void
    ack(int f)
    {
        if (budget == 0)
            return;
        --budget;
        auto &timer = timers[static_cast<std::size_t>(f)];
        if constexpr (requires { eq.rearmIn(timer, 2 * ms); }) {
            auto fresh = eq.rearmIn(timer, 2 * ms);
            timer = fresh != sim::invalidEventId
                        ? fresh
                        : eq.scheduleIn(2 * ms, [] {},
                                        EventPriority::software);
        } else {
            if (eq.pending(timer))
                eq.cancel(timer);
            timer = eq.scheduleIn(2 * ms, [] {},
                                  EventPriority::software);
        }
        eq.scheduleIn(1 * us, [this, f] { ack(f); },
                      EventPriority::software);
    }
};

template <typename Queue>
void
churnScenario(Queue &eq, std::uint64_t events)
{
    constexpr int flows = 32;
    ChurnActor<Queue> actor{eq, events, {}};
    actor.timers.resize(flows);
    for (int f = 0; f < flows; ++f)
        eq.scheduleIn((f + 1) * 30 * ns,
                      [&actor, f] { actor.ack(f); },
                      EventPriority::software);
    eq.run();
}

// ----- measurement + JSON row collection ----------------------------

struct Row
{
    std::string scenario;
    std::string engine;
    std::uint64_t events = 0;
    double seconds = 0;
    double eventsPerSec = 0;
    double nsPerEvent = 0;
};

std::map<std::string, Row> &
rows()
{
    static std::map<std::string, Row> r;
    return r;
}

template <typename Queue, typename Scenario>
Row
measure(const std::string &scenario, const std::string &engine,
        Scenario &&body, std::uint64_t events)
{
    // Best of three: shave scheduler noise off both engines the same
    // way.
    Row row;
    for (int rep = 0; rep < 3; ++rep) {
        Queue eq;
        const auto t0 = std::chrono::steady_clock::now();
        body(eq, events);
        const auto t1 = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || secs < row.seconds) {
            row.scenario = scenario;
            row.engine = engine;
            row.events = eq.executedCount();
            row.seconds = secs;
            row.eventsPerSec =
                static_cast<double>(row.events) / secs;
            row.nsPerEvent =
                secs * 1e9 / static_cast<double>(row.events);
        }
    }
    rows()[scenario + "/" + engine] = row;
    return row;
}

/** Steady-state allocation probe: warm the pool, then demand zero
 *  operator-new calls across a further @p events schedule/fire
 *  cycles on the wheel engine. */
struct SteadyProbe
{
    sim::EventQueue &eq;
    std::uint64_t budget;
    std::uint64_t half;
    bool measuring = false;
    std::uint64_t baseline = 0;

    void
    fire()
    {
        if (budget == 0)
            return;
        --budget;
        if (!measuring && budget == half) {
            // Pool, wheel and due-heap capacities are warm; every
            // allocation from here on is a regression.
            measuring = true;
            baseline = g_newCalls;
        }
        eq.scheduleIn(70 * ns, [this] { fire(); },
                      EventPriority::hardware);
    }
};

std::uint64_t
steadyStateAllocs(std::uint64_t events)
{
    sim::EventQueue eq;
    constexpr int chains = 4;
    SteadyProbe probe{eq, events, events / 2};
    for (int i = 0; i < chains; ++i)
        eq.scheduleIn((i + 1) * 10 * ns, [&probe] { probe.fire(); },
                      EventPriority::hardware);
    eq.run();
    return g_newCalls - probe.baseline;
}

// ----- google-benchmark wrappers (console exploration) --------------

template <typename Queue, typename Scenario>
void
runBench(benchmark::State &state, Scenario &&body)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        Queue eq;
        body(eq, static_cast<std::uint64_t>(state.range(0)));
        events += eq.executedCount();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}

void
BM_Pipeline_Wheel(benchmark::State &state)
{
    runBench<sim::EventQueue>(state, [](auto &eq, std::uint64_t n) {
        pipelineScenario(eq, n);
    });
}

void
BM_Pipeline_Seed(benchmark::State &state)
{
    runBench<LegacyEventQueue>(state, [](auto &eq, std::uint64_t n) {
        pipelineScenario(eq, n);
    });
}

void
BM_Mesh_Wheel(benchmark::State &state)
{
    runBench<sim::EventQueue>(state, [](auto &eq, std::uint64_t n) {
        meshScenario(eq, n);
    });
}

void
BM_Mesh_Seed(benchmark::State &state)
{
    runBench<LegacyEventQueue>(state, [](auto &eq, std::uint64_t n) {
        meshScenario(eq, n);
    });
}

void
BM_TimerChurn_Wheel(benchmark::State &state)
{
    runBench<sim::EventQueue>(state, [](auto &eq, std::uint64_t n) {
        churnScenario(eq, n);
    });
}

void
BM_TimerChurn_Seed(benchmark::State &state)
{
    runBench<LegacyEventQueue>(state, [](auto &eq, std::uint64_t n) {
        churnScenario(eq, n);
    });
}

BENCHMARK(BM_Pipeline_Wheel)->Arg(200000);
BENCHMARK(BM_Pipeline_Seed)->Arg(200000);
BENCHMARK(BM_Mesh_Wheel)->Arg(200000);
BENCHMARK(BM_Mesh_Seed)->Arg(200000);
BENCHMARK(BM_TimerChurn_Wheel)->Arg(100000);
BENCHMARK(BM_TimerChurn_Seed)->Arg(100000);

// ----- JSON ---------------------------------------------------------

double
speedup(const std::string &scenario)
{
    const Row &wheel = rows().at(scenario + "/wheel");
    const Row &seed = rows().at(scenario + "/seed");
    return wheel.eventsPerSec / seed.eventsPerSec;
}

void
writeJson(const std::string &file, std::uint64_t steadyAllocs,
          std::uint64_t fnHeapAllocs)
{
    std::ofstream out(file);
    out << "{\n  \"bench\": \"engine\",\n";
    out << "  \"steady_state_heap_allocs_per_1M_events\": "
        << steadyAllocs << ",\n";
    out << "  \"eventfn_heap_allocs\": " << fnHeapAllocs << ",\n";
    for (const char *s : {"pipeline", "mesh", "churn"})
        out << "  \"speedup_" << s << "\": " << speedup(s) << ",\n";
    out << "  \"rows\": [\n";
    bool first = true;
    for (const auto &[key, row] : rows()) {
        if (!first)
            out << ",\n";
        first = false;
        out << "    {\"scenario\": \"" << row.scenario
            << "\", \"engine\": \"" << row.engine
            << "\", \"events\": " << row.events
            << ", \"seconds\": " << row.seconds
            << ", \"events_per_sec\": " << row.eventsPerSec
            << ", \"ns_per_event\": " << row.nsPerEvent << "}";
    }
    out << "\n  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // The comparison table is measured directly (independent of any
    // --benchmark_filter) so BENCH_engine.json is always complete.
    constexpr std::uint64_t big = 1'000'000;
    constexpr std::uint64_t churnN = 500'000;
    for (auto [name, fn] :
         {std::pair{"pipeline", &pipelineScenario<sim::EventQueue>},
          std::pair{"mesh", &meshScenario<sim::EventQueue>}})
        measure<sim::EventQueue>(name, "wheel", fn, big);
    for (auto [name, fn] :
         {std::pair{"pipeline", &pipelineScenario<LegacyEventQueue>},
          std::pair{"mesh", &meshScenario<LegacyEventQueue>}})
        measure<LegacyEventQueue>(name, "seed", fn, big);
    measure<sim::EventQueue>("churn", "wheel",
                             &churnScenario<sim::EventQueue>, churnN);
    measure<LegacyEventQueue>("churn", "seed",
                              &churnScenario<LegacyEventQueue>,
                              churnN);

    const std::uint64_t fnHeapBefore = sim::EventFn::heapAllocCount();
    const std::uint64_t steadyAllocs = steadyStateAllocs(2'000'000);
    const std::uint64_t fnHeapAllocs =
        sim::EventFn::heapAllocCount() - fnHeapBefore;
    writeJson("BENCH_engine.json", steadyAllocs, fnHeapAllocs);

    const double pipe = speedup("pipeline");
    const double churn = speedup("churn");
    std::printf("engine speedup: pipeline %.2fx, mesh %.2fx, "
                "churn %.2fx; steady-state allocs/1M events: %llu\n",
                pipe, speedup("mesh"), churn,
                static_cast<unsigned long long>(steadyAllocs));
    // Acceptance: deterministic facts only.  The steady-state path
    // must not allocate and no EventFn may spill to the heap; the
    // wall-clock speedups above vary with the host and are reported,
    // not gated.
    if (steadyAllocs != 0 || fnHeapAllocs != 0) {
        std::fprintf(stderr, "bench_engine: steady-state allocations "
                             "(%llu) or EventFn heap allocations (%llu)\n",
                     static_cast<unsigned long long>(steadyAllocs),
                     static_cast<unsigned long long>(fnHeapAllocs));
        return 1;
    }
    return 0;
}
