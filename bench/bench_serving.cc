/**
 * @file
 * E19 — serving at scale: open-loop RPC load swept across offered
 * load on the single-HUB star and the 16-HUB fabric, measured like a
 * service (p50/p99/p999, goodput, saturation knee).
 *
 *  - S1: the headline sweep — a geometric offered-load ladder on each
 *        fabric, one million logical client flows, Poisson arrivals;
 *        the knee is located by the latency-slope criterion,
 *  - S2: one point per arrival process (poisson / bursty / hotspot /
 *        closed) at a moderate load, single HUB,
 *  - S3: the bounded-memory check — two million logical flows, with
 *        the peak flow-table size asserted to track outstanding
 *        requests, not population size,
 *  - SMOKE: a tiny two-rung ladder per fabric for the tier-1 gate.
 *
 * Every S1 and SMOKE sweep lands in BENCH_serving.json, one row per
 * step (serving::writeServingJson); main() exits nonzero when a
 * recorded sweep failed to locate its knee (the acceptance gate).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serving/serving.hh"
#include "serving/sweep.hh"

using namespace nectar;
using namespace nectar::serving;

#ifndef NECTAR_FABRIC_DIR
#define NECTAR_FABRIC_DIR "examples/fabrics"
#endif

namespace {

// ----- result collection --------------------------------------------

std::map<std::string, SweepResult> sweeps;
bool boundedMemoryOk = true;

SystemBuilder
builderFor(bool fabric)
{
    if (fabric) {
        return [](sim::EventQueue &eq) {
            return nectarine::NectarSystem::fromTopoFile(
                eq,
                std::string(NECTAR_FABRIC_DIR) + "/fabric16.topo");
        };
    }
    return [](sim::EventQueue &eq) {
        return nectarine::NectarSystem::singleHub(eq, 8);
    };
}

/**
 * The sweep ladder for one fabric.  The single-HUB star saturates
 * below its 8-server compute ceiling (~400 k rps at 20 µs), on the
 * shared crossbar; the 16-HUB fabric saturates far below its
 * 208-server compute ceiling because uniform destinations put ~94% of
 * requests across trunk links — trunk contention caps it between
 * 151 k and 272 k rps.  Each ladder brackets its fabric's measured
 * ceiling so the knee lands on an interior rung.
 */
SweepConfig
ladderFor(bool fabric, bool smoke)
{
    SweepConfig cfg;
    cfg.fabric = fabric ? "fabric16" : "single_hub";
    cfg.serving.flows = 1'000'000;
    cfg.serving.seed = 42;
    if (fabric) {
        cfg.serving.serverCompute = 100 * sim::ticks::us;
        cfg.startRps = 8'000;
        cfg.growth = 1.8;
        cfg.steps = 7; // to 272k rps, past the trunk ceiling
    } else {
        cfg.serving.serverCompute = 20 * sim::ticks::us;
        cfg.startRps = 50'000;
        cfg.growth = 1.8;
        cfg.steps = 6; // to 944k rps, past the compute ceiling
    }
    if (smoke) {
        // Tier-1 gate: two rungs straddling the saturation point
        // (the fabric's top rung is 280 k rps, past its trunk
        // ceiling).
        cfg.serving.duration = 2 * sim::ticks::ms;
        cfg.startRps = fabric ? 20'000 : 150'000;
        cfg.growth = fabric ? 14.0 : 8.0;
        cfg.steps = 2;
    } else {
        cfg.serving.duration = 10 * sim::ticks::ms;
    }
    return cfg;
}

void
runSweepBench(benchmark::State &state, bool fabric, bool smoke)
{
    SweepConfig cfg = ladderFor(fabric, smoke);
    SweepResult result;
    for (auto _ : state)
        result = runSweep(builderFor(fabric), cfg);
    const SweepStep &last = result.steps.back();
    state.counters["steps"] = static_cast<double>(result.steps.size());
    state.counters["knee_rps"] = result.kneeRps;
    state.counters["p99_us_last"] = last.report.p99Ns / 1e3;
    state.counters["goodput_MBs_last"] = last.report.goodputMBs;
    sweeps[(smoke ? "smoke/" : "full/") + cfg.fabric] =
        std::move(result);
}

void
S1_Sweep(benchmark::State &state)
{
    runSweepBench(state, state.range(0) == 1, false);
}
BENCHMARK(S1_Sweep)->Arg(0)->Arg(1)->ArgName("fabric")
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void
SMOKE_Sweep(benchmark::State &state)
{
    runSweepBench(state, state.range(0) == 1, true);
}
BENCHMARK(SMOKE_Sweep)->Arg(0)->Arg(1)->ArgName("fabric")
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// ----- S2: arrival processes ----------------------------------------

void
S2_Arrivals(benchmark::State &state, Arrival arrival)
{
    ServingReport rep;
    for (auto _ : state) {
        sim::EventQueue eq;
        auto sys = builderFor(false)(eq);
        ServingConfig cfg;
        cfg.arrival = arrival;
        cfg.flows = 1'000'000;
        cfg.offeredRps = 150'000;
        cfg.serverCompute = 20 * sim::ticks::us;
        cfg.duration = 10 * sim::ticks::ms;
        cfg.seed = 42;
        ServingWorkload w(*sys, cfg);
        eq.run();
        rep = w.report();
    }
    state.counters["completed"] = static_cast<double>(rep.completed);
    state.counters["p50_us"] = rep.p50Ns / 1e3;
    state.counters["p99_us"] = rep.p99Ns / 1e3;
    state.counters["p999_us"] = rep.p999Ns / 1e3;
    state.counters["achieved_rps"] = rep.achievedRps;
    state.counters["goodput_MBs"] = rep.goodputMBs;
}
BENCHMARK_CAPTURE(S2_Arrivals, poisson, Arrival::poisson)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(S2_Arrivals, bursty, Arrival::bursty)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(S2_Arrivals, hotspot, Arrival::hotspot)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(S2_Arrivals, closed, Arrival::closed)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// ----- S3: bounded memory at two million flows ----------------------

void
S3_MillionFlows(benchmark::State &state)
{
    ServingReport rep;
    std::uint64_t bound = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        auto sys = builderFor(false)(eq);
        ServingConfig cfg;
        cfg.flows = 2'000'000;
        cfg.offeredRps = 200'000;
        cfg.serverCompute = 20 * sim::ticks::us;
        cfg.duration = 10 * sim::ticks::ms;
        cfg.seed = 7;
        ServingWorkload w(*sys, cfg);
        eq.run();
        rep = w.report();
        bound = cfg.maxOutstandingPerHost;
    }
    state.counters["flows"] = 2'000'000;
    state.counters["completed"] = static_cast<double>(rep.completed);
    state.counters["peak_flow_table"] =
        static_cast<double>(rep.peakFlowTable);
    // The whole point: memory tracks outstanding requests, never the
    // two-million-flow population.
    if (rep.peakFlowTable > bound) {
        std::fprintf(stderr,
                     "S3: flow table exceeded outstanding bound "
                     "(%llu > %llu)\n",
                     static_cast<unsigned long long>(
                         rep.peakFlowTable),
                     static_cast<unsigned long long>(bound));
        boundedMemoryOk = false;
    }
}
BENCHMARK(S3_MillionFlows)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// ----- acceptance + JSON --------------------------------------------

bool
writeJsonAndCheck(const std::string &file)
{
    bool ok = boundedMemoryOk;
    std::vector<SweepResult> all;
    for (const auto &[key, r] : sweeps) {
        all.push_back(r);
        if (r.kneeIndex < 0) {
            std::fprintf(stderr,
                         "bench_serving: no saturation knee in "
                         "sweep %s\n",
                         key.c_str());
            ok = false;
        }
        for (const SweepStep &st : r.steps) {
            if (st.report.completed == 0) {
                std::fprintf(stderr,
                             "bench_serving: step at %.0f rps "
                             "completed nothing (%s)\n",
                             st.offeredRps, key.c_str());
                ok = false;
            }
        }
    }
    if (!all.empty() && !writeServingJson(file, all)) {
        std::fprintf(stderr, "bench_serving: cannot write %s\n",
                     file.c_str());
        ok = false;
    }
    return ok;
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
    return writeJsonAndCheck("BENCH_serving.json") ? 0 : 1;
}
