/**
 * @file
 * The chaos controller: executes a FaultPlan against a live system.
 *
 * Fault events are scheduled on the simulation event queue at
 * EventPriority::first, so a fault lands before any protocol work at
 * the same tick — the adversary moves first.  Everything derives
 * deterministically from the plan (including burst-model seeds), so a
 * campaign is exactly reproducible.
 */

#pragma once

#include <cstddef>

#include "fault/plan.hh"
#include "fault/report.hh"
#include "nectarine/system.hh"

namespace nectar::fault {

/**
 * How the controller treats a plan whose events contradict the
 * per-target state machines (down-while-already-down, overlapping
 * burst windows on one fiber, restore-without-fault, ...).
 */
enum class PlanPolicy
{
    strict,    ///< Fatal error naming the offending event.
    normalize, ///< Drop the offending events (counted in the report).
};

/** Executes one FaultPlan against one NectarSystem. */
class ChaosController
{
  public:
    /**
     * Validates the plan's targets against the system (fatal on a
     * nonexistent hub, port, or site), checks its event sequence
     * against each target's state machine under @p policy, and
     * schedules every surviving event.
     */
    ChaosController(nectarine::NectarSystem &system,
                    const FaultPlan &plan,
                    PlanPolicy policy = PlanPolicy::strict);

    /** Fault events executed so far. */
    std::size_t eventsExecuted() const { return executed; }

    /** Events removed under PlanPolicy::normalize. */
    std::size_t planEventsDropped() const { return dropped; }

    /**
     * Aggregate a report over the whole system (callable at any
     * point; typically after eventq().run()).
     */
    CampaignReport report() const;

  private:
    void validate(const FaultEvent &e) const;
    void checkStateMachines(PlanPolicy policy);
    void execute(const FaultEvent &e, std::size_t index);

    /** Fibers a site-directed fiber fault applies to. */
    std::vector<phys::FiberLink *>
    siteFibers(int site, Direction dir) const;

    /** Deterministic per-event RNG seed. */
    std::uint64_t eventSeed(std::size_t index) const;

    nectarine::NectarSystem &sys;
    FaultPlan plan;
    std::size_t executed = 0;
    std::size_t dropped = 0;
    std::vector<CampaignReport::Entry> log;
};

} // namespace nectar::fault
