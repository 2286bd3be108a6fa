/**
 * @file
 * Chaos-fuzzing layer tests: plan generation, (de)serialization,
 * the delivery oracle, delta-debugging shrinking, and the repro
 * replay path (DESIGN.md "Chaos fuzzing").
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fault/chaos.hh"
#include "fault/fuzz.hh"
#include "fault/generate.hh"
#include "fault/planio.hh"
#include "fault/shrink.hh"
#include "nectarine/system.hh"
#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

using namespace nectar;
using namespace nectar::fault;
using sim::ticks::ms;
using sim::ticks::us;

namespace {

SystemShape
shape()
{
    static SystemShape s = harnessShape(FuzzConfig{});
    return s;
}

} // namespace

// ----- generator ----------------------------------------------------

TEST(PlanGenerator, IsDeterministic)
{
    PlanGenerator gen(shape());
    FaultPlan a = gen.generate(42);
    FaultPlan b = gen.generate(42);
    EXPECT_EQ(serializePlan(a), serializePlan(b));

    FaultPlan c = gen.generate(43);
    EXPECT_NE(serializePlan(a), serializePlan(c));
}

TEST(PlanGenerator, CoversEveryActionKindAcrossSeeds)
{
    GeneratorConfig gcfg;
    gcfg.intensity = 2.0; // more episodes per plan
    PlanGenerator gen(shape(), gcfg);

    std::set<int> seen;
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        for (const auto &e : gen.generate(seed).events)
            seen.insert(static_cast<int>(e.action));

    // All ten Action kinds (hub-link faults exist because the 2x2
    // harness mesh has inter-HUB links).
    EXPECT_EQ(seen.size(), 10u);
}

TEST(PlanGenerator, GeneratedPlansPassStrictValidation)
{
    PlanGenerator gen(shape());
    FuzzConfig fcfg;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        sim::EventQueue eq;
        auto sys = nectarine::NectarSystem::mesh2D(
            eq, fcfg.rows, fcfg.cols, fcfg.cabsPerHub);
        FaultPlan plan = gen.generate(seed);
        EXPECT_NO_THROW(
            ChaosController(*sys, plan, PlanPolicy::strict))
            << "seed " << seed;
    }
}

// ----- (de)serialization --------------------------------------------

TEST(PlanIo, RoundTripsBitExactly)
{
    PlanGenerator gen(shape());
    for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
        FaultPlan plan = gen.generate(seed);
        std::string text = serializePlan(plan);
        FaultPlan back = parsePlan(text);
        EXPECT_EQ(text, serializePlan(back)) << "seed " << seed;
        EXPECT_EQ(plan.name, back.name);
        EXPECT_EQ(plan.seed, back.seed);
        EXPECT_EQ(plan.events.size(), back.events.size());
    }
}

TEST(PlanIo, SaveLoadThroughFile)
{
    PlanGenerator gen(shape());
    FaultPlan plan = gen.generate(5);
    std::string path = testing::TempDir() + "chaos_fuzz_roundtrip.plan";
    savePlan(plan, path);
    FaultPlan back = loadPlan(path);
    EXPECT_EQ(serializePlan(plan), serializePlan(back));
}

TEST(PlanIo, MalformedInputIsFatal)
{
    EXPECT_THROW(parsePlan(""), sim::FatalError);
    EXPECT_THROW(parsePlan("nectar-fault-plan v2\nend\n"),
                 sim::FatalError);
    EXPECT_THROW(parsePlan("nectar-fault-plan v1\n"
                           "seed 1\n"
                           "event at=banana action=cabCrash\n"
                           "end\n"),
                 sim::FatalError);
    EXPECT_THROW(parsePlan("nectar-fault-plan v1\n"
                           "event at=0 action=notAnAction hub=-1 "
                           "port=-1 site=0 dir=both burst=0,0,0,0\n"
                           "end\n"),
                 sim::FatalError);
    EXPECT_THROW(loadPlan(testing::TempDir() +
                          "chaos_fuzz_does_not_exist.plan"),
                 sim::FatalError);

    auto expectFatalAt = [](const std::string &text,
                            const std::string &where) {
        try {
            parsePlan(text);
            ADD_FAILURE() << text << " parsed";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(where),
                      std::string::npos)
                << e.what();
        }
    };

    // Target fields must be whole integers: atoi would read these as
    // hub 0, port 1 and site 0 and fault the wrong target.
    for (const char *event :
         {"event at=5 action=hubLinkDown hub=two port=1 site=-1",
          "event at=5 action=hubLinkDown hub=2 port=1x site=-1",
          "event at=5 action=cabCrash hub=-1 port=-1 site=-"})
        expectFatalAt(std::string("nectar-fault-plan v1\nseed 1\n") +
                          event + "\nend\n",
                      "line 3");

    // So must the seed: operator>> read these as 12, 5 and 2^64-1.
    for (const char *seed : {"seed 12abc", "seed 5 7", "seed -1"})
        expectFatalAt(std::string("nectar-fault-plan v1\n") + seed +
                          "\nend\n",
                      "line 2");

    // Burst probabilities are four finite values in [0, 1]: a NaN
    // reached a float-to-int cast in the fiber's dwell sampler.
    for (const char *burst : {"nan,0.5,0,1", "7,-3,0,1", "0.5,inf,0,1"})
        expectFatalAt(std::string("nectar-fault-plan v1\nseed 1\n"
                                  "event at=5 action=burstStart hub=-1 "
                                  "port=-1 site=0 dir=both burst=") +
                          burst + "\nend\n",
                      "line 3");
}

// ----- plan validation policy ---------------------------------------

TEST(PlanPolicyCheck, StrictRejectsConflictingPlans)
{
    FuzzConfig fcfg;
    sim::EventQueue eq;
    auto sys = nectarine::NectarSystem::mesh2D(eq, fcfg.rows, fcfg.cols,
                                               fcfg.cabsPerHub);

    FaultPlan downTwice;
    downTwice.cabLinkDown(1 * ms, 0)
        .cabLinkDown(2 * ms, 0)
        .cabLinkUp(3 * ms, 0);
    EXPECT_THROW(ChaosController(*sys, downTwice, PlanPolicy::strict),
                 sim::FatalError);

    FaultPlan healOnly;
    healOnly.cabRestart(1 * ms, 0);
    EXPECT_THROW(ChaosController(*sys, healOnly, PlanPolicy::strict),
                 sim::FatalError);
}

TEST(PlanPolicyCheck, NormalizeDropsConflictsAndCountsThem)
{
    FuzzConfig fcfg;
    sim::EventQueue eq;
    auto sys = nectarine::NectarSystem::mesh2D(eq, fcfg.rows, fcfg.cols,
                                               fcfg.cabsPerHub);

    FaultPlan plan;
    plan.cabLinkDown(1 * ms, 0)
        .cabLinkDown(2 * ms, 0) // duplicate: dropped
        .cabLinkUp(3 * ms, 0)
        .cabRestart(4 * ms, 1); // restore-without-fault: dropped
    ChaosController chaos(*sys, plan, PlanPolicy::normalize);
    EXPECT_EQ(chaos.planEventsDropped(), 2u);
    eq.run();
    EXPECT_EQ(chaos.eventsExecuted(), 2u);
    EXPECT_EQ(chaos.report().planEventsDropped, 2u);
}

// ----- the fuzz harness ---------------------------------------------

TEST(ChaosFuzz, GeneratedSeedsRunOracleClean)
{
    PlanGenerator gen(shape());
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        FuzzResult res = runCase(gen.generate(seed));
        EXPECT_TRUE(res.passed)
            << "seed " << seed << ": " << res.oracleSummary
            << (res.violations.empty() ? ""
                                       : "\n  " + res.violations[0]);
        EXPECT_GT(res.reliableSends, 0u) << "seed " << seed;
    }
}

TEST(ChaosFuzz, RunCaseIsDeterministic)
{
    PlanGenerator gen(shape());
    FaultPlan plan = gen.generate(11);
    FuzzResult a = runCase(plan);
    FuzzResult b = runCase(plan);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.quiescedAt, b.quiescedAt);
    EXPECT_EQ(a.oracleSummary, b.oracleSummary);
    EXPECT_EQ(a.report.format(), b.report.format());
}

TEST(ChaosFuzz, GeneratedPlansExerciseRecoveryMachinery)
{
    // Campaigns with episodes that outlast the harness transport's
    // retransmit give-up horizon (~8 ms at runCase's tightened RTO
    // schedule) must drive the interesting recovery paths: reliable
    // sends abandoned after give-up, collective failures, and group
    // epoch bumps — all while staying oracle-clean.  Default-length
    // episodes (up to 2 ms) no longer suffice: since the HUB holds
    // an input stream until its open settles, a brief outage leaves
    // no wedged circuits behind and recovers by retransmission
    // without failing anything.  (Transport-level multicast member
    // fail-out is covered deterministically by
    // Collectives.MemberCrashMidAllreduceBumpsEpochNoHang.)
    GeneratorConfig harsh;
    harsh.minEpisode = 20 * ms;
    harsh.maxEpisode = 80 * ms;
    PlanGenerator gen(shape(), harsh);
    std::uint64_t sends = 0, deliveries = 0, epochBumps = 0,
                  collectiveFailures = 0;
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        FuzzResult res = runCase(gen.generate(seed));
        ASSERT_TRUE(res.passed) << "seed " << seed;
        sends += res.reliableSends;
        deliveries += res.reliableDeliveries;
        epochBumps += res.groupEpochBumps;
        collectiveFailures += res.collectiveFailures;
    }
    EXPECT_LT(deliveries, sends); // some sends were given up on
    EXPECT_GT(epochBumps, 0u);
    EXPECT_GT(collectiveFailures, 0u);
}

TEST(ChaosFuzz, DetachedFramesAreReapedAfterRuns)
{
    PlanGenerator gen(shape());
    (void)runCase(gen.generate(1));
    // runCase's EventQueue was the last one alive; its destructor
    // reaps every detached coroutine frame still parked on channels.
    EXPECT_EQ(sim::liveDetachedFrames(), 0u);
}

// ----- serving-load scenario ----------------------------------------

TEST(ChaosFuzzServing, OracleCleanWithRequestsInFlight)
{
    // The serving RPCs are at-least-once and deliberately outside
    // the delivery ledger; the point is that the no-phantom /
    // no-silent-loss verdict on the ledgered traffic — and the drain
    // check — hold while open-loop request load shares the fabric
    // with the fault plan.
    FuzzConfig fcfg;
    fcfg.servingArrivalsPerSite = 8;
    PlanGenerator gen(shape());
    std::uint64_t issued = 0, completed = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        FuzzResult res = runCase(gen.generate(seed), fcfg);
        EXPECT_TRUE(res.passed)
            << "seed " << seed << ": " << res.oracleSummary
            << (res.violations.empty() ? ""
                                       : "\n  " + res.violations[0]);
        EXPECT_GT(res.reliableSends, 0u) << "seed " << seed;
        issued += res.servingIssued;
        completed += res.servingCompleted;
    }
    EXPECT_GT(issued, 0u);
    EXPECT_GT(completed, 0u);
}

TEST(ChaosFuzzServing, RunCaseStaysDeterministic)
{
    FuzzConfig fcfg;
    fcfg.servingArrivalsPerSite = 8;
    PlanGenerator gen(shape());
    FaultPlan plan = gen.generate(11);
    FuzzResult a = runCase(plan, fcfg);
    FuzzResult b = runCase(plan, fcfg);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.quiescedAt, b.quiescedAt);
    EXPECT_EQ(a.servingIssued, b.servingIssued);
    EXPECT_EQ(a.servingCompleted, b.servingCompleted);
    EXPECT_EQ(a.servingFailed, b.servingFailed);
    EXPECT_EQ(a.report.format(), b.report.format());
}

// ----- multi-HUB fabrics through the same harness -------------------

TEST(ChaosFuzzFabric, ShapeMatchesTheLiveSystem)
{
    // harnessShape derives the shape from the description without
    // building anything; it must agree exactly with the shape
    // extracted from the system runCase actually builds.
    for (FuzzFabric fabric :
         {FuzzFabric::mesh, FuzzFabric::torus, FuzzFabric::fattree}) {
        FuzzConfig cfg;
        cfg.fabric = fabric;
        sim::EventQueue eq;
        auto sys = nectarine::NectarSystem::fromDescription(
            eq, harnessDescription(cfg));
        SystemShape fromDesc = harnessShape(cfg);
        SystemShape fromSys = SystemShape::of(*sys);
        EXPECT_EQ(fromDesc.numHubs, fromSys.numHubs);
        EXPECT_EQ(fromDesc.hubLinks, fromSys.hubLinks);
        EXPECT_EQ(fromDesc.cabPorts, fromSys.cabPorts);
    }
}

TEST(ChaosFuzzFabric, TorusAndFatTreeSeedsRunOracleClean)
{
    // The fabric lane: the unchanged harness on non-mesh fabrics.
    // Wrap links (torus) and multi-path spines (fat tree) exercise
    // the restricted up*-down* routes under faults.
    for (FuzzFabric fabric : {FuzzFabric::torus, FuzzFabric::fattree}) {
        FuzzConfig cfg;
        cfg.fabric = fabric;
        PlanGenerator gen(harnessShape(cfg));
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            FuzzResult res = runCase(gen.generate(seed), cfg);
            EXPECT_TRUE(res.passed)
                << "fabric " << static_cast<int>(fabric) << " seed "
                << seed << ": " << res.oracleSummary
                << (res.violations.empty()
                        ? ""
                        : "\n  " + res.violations[0]);
        }
    }
}

TEST(ChaosFuzzFabric, FileFabricIsDeterministic)
{
    FuzzConfig cfg;
    cfg.fabric = FuzzFabric::file;
    cfg.topoFile =
        std::string(NECTAR_FABRIC_DIR) + "/mesh4x4.topo";
    cfg.reliablePerSite = 2;
    cfg.datagramsPerSite = 1;

    PlanGenerator gen(harnessShape(cfg));
    FaultPlan plan = gen.generate(11);
    FuzzResult a = runCase(plan, cfg);
    FuzzResult b = runCase(plan, cfg);
    EXPECT_TRUE(a.passed) << a.oracleSummary;
    EXPECT_EQ(a.quiescedAt, b.quiescedAt);
    EXPECT_EQ(a.oracleSummary, b.oracleSummary);
}

// ----- oracle + shrinker end to end ---------------------------------

TEST(ChaosFuzz, InjectedDuplicateIsCaughtShrunkAndReplayable)
{
    PlanGenerator gen(shape());
    FuzzConfig bugged;
    bugged.injectDeliveryBug = true;

    // Find a failing seed (needs a burst window overlapping reliable
    // traffic; seed 3 is known-failing but don't depend on it).
    FaultPlan failing;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 10 && !found; ++seed) {
        failing = gen.generate(seed);
        found = !runCase(failing, bugged).passed;
    }
    ASSERT_TRUE(found) << "no seed in 1..10 tripped the injected bug";

    auto predicate = [&](const FaultPlan &p) {
        return !runCase(p, bugged).passed;
    };
    ShrinkResult shrunk = shrinkPlan(failing, predicate);
    EXPECT_LE(shrunk.plan.events.size(), failing.events.size());
    EXPECT_LE(shrunk.plan.events.size(), 2u); // one burst window
    EXPECT_GT(shrunk.runs, 0);

    // The minimized plan still fails, and survives a disk round trip:
    // the saved repro replays the identical verdict.
    std::string path = testing::TempDir() + "chaos_fuzz_min.plan";
    savePlan(shrunk.plan, path);
    FuzzResult direct = runCase(shrunk.plan, bugged);
    FuzzResult replay = runCase(loadPlan(path), bugged);
    EXPECT_FALSE(direct.passed);
    EXPECT_FALSE(replay.passed);
    EXPECT_EQ(direct.violations, replay.violations);
    EXPECT_EQ(direct.oracleSummary, replay.oracleSummary);
}

TEST(ChaosFuzz, CheckedInMinimizedReproStillFails)
{
    // Regression: the minimized repro produced by the shrinker from
    // the injected-duplicate demo is checked in; the oracle must keep
    // catching it.  The same plan without the injected bug runs
    // clean, pinning the blame on the injection, not the plan.
    FaultPlan repro = loadPlan(std::string(NECTAR_FAULT_DATA_DIR) +
                               "/repro-burst-duplicate.plan");
    EXPECT_EQ(repro.events.size(), 1u);

    FuzzConfig bugged;
    bugged.injectDeliveryBug = true;
    FuzzResult res = runCase(repro, bugged);
    ASSERT_FALSE(res.passed);
    bool sawDuplicate = false;
    for (const auto &v : res.violations)
        sawDuplicate |= v.find("duplicate delivery") != std::string::npos;
    EXPECT_TRUE(sawDuplicate);

    EXPECT_TRUE(runCase(repro).passed);
}
