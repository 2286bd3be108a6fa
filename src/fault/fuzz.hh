/**
 * @file
 * The chaos-fuzz harness: one generated plan against a standard
 * system and workload, judged by the DeliveryOracle.
 *
 * runCase() builds a mesh-of-HUBs system, attaches the oracle to
 * every transport and to the group directory, drives a mixed
 * workload — per-site reliable streams, datagrams, and a group of
 * Nectarine tasks running collective rounds — executes the fault
 * plan, runs the simulation to quiescence, and returns the oracle's
 * verdict plus the campaign report.  Everything derives from the
 * plan (and its seed), so the same plan always returns the same
 * verdict: the determinism that makes delta-debugging shrinking
 * sound.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/generate.hh"
#include "fault/plan.hh"
#include "fault/report.hh"
#include "topo/description.hh"

namespace nectar::fault {

/** Which fabric runCase builds (all via TopologyDescription). */
enum class FuzzFabric
{
    mesh,    ///< rows x cols 2-D mesh (the historical default).
    torus,   ///< rows x cols 2-D torus.
    fattree, ///< rows spines x cols leaves.
    file,    ///< Load FuzzConfig::topoFile.
};

/** Harness tuning (the fuzz "standard candle"). */
struct FuzzConfig
{
    /** Fabric kind; mesh with the defaults below reproduces the
     *  historical 2x2x2 harness bit-for-bit. */
    FuzzFabric fabric = FuzzFabric::mesh;

    /** .topo path for FuzzFabric::file. */
    std::string topoFile;

    // System shape: rows x cols HUB mesh (or spines x leaves for
    // fattree), cabsPerHub CABs each.  Ignored for file fabrics.
    int rows = 2;
    int cols = 2;
    int cabsPerHub = 2;

    // Workload.
    int reliablePerSite = 4;  ///< Reliable messages per site.
    int datagramsPerSite = 2; ///< Best-effort datagrams per site.
    std::size_t minBytes = 64;
    std::size_t maxBytes = 4096;
    int collectiveMembers = 4; ///< Group size (tasks on sites 0..k-1).
    int collectiveRounds = 2;  ///< allreduce+barrier rounds.

    /**
     * Serving-load scenario: when positive, each site also drives
     * this many open-loop RPC arrivals (src/serving) at the fault
     * plan, seeded from the plan's seed.  RPC traffic is
     * at-least-once and not ledgered by the oracle; what this buys
     * is the oracle's no-phantom / no-silent-loss verdict on the
     * reliable and datagram traffic — and the drain check — while
     * request/response load is in flight on the same fabric.
     */
    int servingArrivalsPerSite = 0;

    /** Logical client flows for the serving scenario. */
    std::uint64_t servingFlows = 1'000'000;

    /** Fail the case if the system is not quiescent by this tick
     *  (the grace period after the last fault heals). */
    sim::Tick drainDeadline = 400 * sim::ticks::ms;

    /**
     * Deliberate bug injection for shrinker/acceptance demos: report
     * every reliable delivery landing inside one of the plan's burst
     * windows twice, manufacturing a duplicate-delivery violation
     * whose minimal repro is a single burst window plus traffic.
     */
    bool injectDeliveryBug = false;
};

/** Verdict of one fuzz case. */
struct FuzzResult
{
    bool passed = false;
    std::vector<std::string> violations;
    std::string oracleSummary;
    CampaignReport report;
    sim::Tick quiescedAt = 0; ///< eq.now() after the run drained.

    // Oracle accounting (coverage assertions in tests).
    std::uint64_t reliableSends = 0;
    std::uint64_t reliableDeliveries = 0;
    std::uint64_t collectiveOps = 0;
    std::uint64_t collectiveFailures = 0;
    std::uint64_t groupEpochBumps = 0;

    // Serving-scenario accounting (FuzzConfig::servingArrivalsPerSite).
    std::uint64_t servingIssued = 0;
    std::uint64_t servingCompleted = 0;
    std::uint64_t servingFailed = 0;

    /**
     * Behaviour digest (sim::Digest) of quiescedAt, the oracle
     * summary, the formatted campaign report and the accounting
     * counters above.  A change that keeps it ran the same case.
     */
    std::uint64_t digest = 0;
};

/** Run one plan through the standard harness. */
FuzzResult runCase(const FaultPlan &plan, const FuzzConfig &cfg = {});

/** The fabric description runCase will build for @p cfg. */
topo::TopologyDescription
harnessDescription(const FuzzConfig &cfg = {});

/** The SystemShape runCase's system will have (for PlanGenerator). */
SystemShape harnessShape(const FuzzConfig &cfg = {});

} // namespace nectar::fault
