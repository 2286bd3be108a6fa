/**
 * @file
 * Load-sweep harness over ServingWorkload: step offered load across a
 * geometric ladder, measure the latency/goodput curve, and locate the
 * saturation knee.
 *
 * The knee is the classic open-loop signature: below capacity, tail
 * latency is flat as load grows; at the knee, queues stop draining
 * between arrivals and p99 inflates much faster than load.  We flag
 * the first step whose relative p99 growth exceeds kneeSlope times
 * the relative load growth, or whose achieved/offered completion
 * ratio falls below minCompletion (the system visibly shedding or
 * failing is saturation even if latency has not yet exploded).
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serving/serving.hh"

namespace nectar::serving {

/** Builds a fresh system on a fresh event queue for one sweep step. */
using SystemBuilder =
    std::function<std::unique_ptr<nectarine::NectarSystem>(
        sim::EventQueue &)>;

/** Parameters for runSweep(). */
struct SweepConfig
{
    std::string fabric = "single_hub"; ///< Label for reports.

    /** Per-step serving parameters; offeredRps is overridden by the
     *  ladder below. */
    ServingConfig serving;

    double startRps = 20'000;  ///< First step's offered load.
    double growth = 1.6;       ///< Ratio between successive steps.
    int steps = 6;             ///< Ladder length.

    /** Knee: relative p99 growth > kneeSlope x relative load growth. */
    double kneeSlope = 3.0;
    /** Knee: achieved/offered below this is saturation outright. */
    double minCompletion = 0.9;
};

/** One step of the sweep: what was offered and what was measured. */
struct SweepStep
{
    double offeredRps = 0;
    ServingReport report;
};

/** A whole sweep over one fabric. */
struct SweepResult
{
    std::string fabric;
    Arrival arrival = Arrival::poisson;
    std::vector<SweepStep> steps;
    int kneeIndex = -1;   ///< First saturated step, -1 if none.
    double kneeRps = 0;   ///< Offered load at the knee.
};

/**
 * Find the saturation knee in @p steps.
 *
 * @return Index of the first step matching either criterion, or -1.
 */
int detectKnee(const std::vector<SweepStep> &steps, double kneeSlope,
               double minCompletion);

/**
 * Run the sweep: for each rung of the load ladder, build a fresh
 * system with @p build, run a ServingWorkload at that offered load to
 * completion, and record its report.  Deterministic: the serving seed
 * is reused per step, so the whole SweepResult is a pure function of
 * (builder, config).
 */
SweepResult runSweep(const SystemBuilder &build,
                     const SweepConfig &cfg);

/**
 * Write @p results as BENCH_serving-style JSON (sim::Report): a
 * top-level "knee_found_all" flag plus one row per sweep step, in
 * order.  A row names its sweep's fabric and arrival process, numbers
 * the sweep (its index in @p results) and the step, marks the knee
 * step with knee = 1, and carries the step's load, latency and
 * outcome counts.
 *
 * @return False if the file could not be written.
 */
bool writeServingJson(const std::string &path,
                      const std::vector<SweepResult> &results);

} // namespace nectar::serving
