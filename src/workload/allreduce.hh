/**
 * @file
 * Allreduce workload: data-parallel reduction over a Nectar group.
 *
 * The collective analogue of the halo exchange: every member holds a
 * vector, and each round the group allreduces it (sum/min/max over
 * 32-bit lanes) through the collectives subsystem — HUB hardware
 * multicast where the fabric allows, unicast fan-out otherwise.  The
 * workload verifies every member's result against the host-computed
 * reduction and folds results and finish times into an
 * order-independent fingerprint, so two runs of the same
 * configuration can be compared bit-for-bit (determinism) and the
 * hardware and unicast paths can be compared value-for-value.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "collectives/communicator.hh"
#include "collectives/group.hh"
#include "nectarine/nectarine.hh"
#include "sim/stats.hh"

namespace nectar::workload {

/** Parameters for AllreduceWorkload. */
struct AllreduceConfig
{
    int members = 4;             ///< Group size (one task per site).
    std::uint32_t bytes = 1024;  ///< Vector size (multiple of 4).
    int rounds = 1;              ///< Allreduce operations per member.
    collective::ReduceOp op = collective::ReduceOp::sum;
    std::uint32_t seed = 1;      ///< Deterministic data seed.
    collective::CommunicatorConfig comm; ///< Path, timeout, cutoff.
};

/** Aggregate outcome, valid after the event queue has run. */
struct AllreduceReport
{
    int okMembers = 0;    ///< Members whose every round succeeded.
    int errorMembers = 0; ///< Members that saw a collective error.
    int wrongMembers = 0; ///< Members with a mismatched result.
    /** Order-independent digest of every member's results and finish
     *  times; identical across reruns and across fabric paths. */
    std::uint64_t fingerprint = 0;
    sim::Tick lastFinish = 0;    ///< When the slowest member finished.
    std::uint32_t finalEpoch = 0; ///< Highest epoch seen in results.
};

/**
 * Runs @c members tasks, one per site index given, each allreducing
 * @c rounds deterministic vectors through one shared group.
 */
class AllreduceWorkload
{
  public:
    using Config = AllreduceConfig;

    AllreduceWorkload(nectarine::Nectarine &api,
                      collective::GroupDirectory &groups,
                      std::vector<std::size_t> sites,
                      const Config &config = {});

    /** Aggregated from the per-member slots (valid after the run). */
    AllreduceReport report() const;
    collective::GroupId group() const { return *gid; }

    /** The member vector rank @p r contributes in round @p t. */
    static std::vector<std::uint8_t>
    memberData(const Config &cfg, int r, int t);

    /** Host-computed reduction of all members' round-@p t vectors.
     *  Folds byte-assembled lanes itself rather than calling
     *  collective::foldLanes, so the check stays independent of the
     *  code it checks. */
    static std::vector<std::uint8_t>
    expectedData(const Config &cfg, int t);

  private:
    /**
     * expectedData(cfg, @p t) from a one-round cache: the first
     * member to check round t computes it, the rest reuse it.  No
     * member can finish round t+1 before every member has checked
     * round t (each round needs every member's vector), so one slot
     * serves a whole run; a miss recomputes it.
     */
    const std::vector<std::uint8_t> &expectedFor(int t);

    /**
     * One member task's outcome.  Each task writes only its own slot;
     * report() folds the slots after the run.
     */
    struct MemberResult
    {
        bool ok = false;
        bool error = false;
        bool wrong = false;
        std::uint64_t fp = 0;
        sim::Tick finish = 0;
        std::uint32_t epoch = 0;
    };

    Config cfg;
    std::shared_ptr<collective::GroupId> gid =
        std::make_shared<collective::GroupId>(0);
    std::shared_ptr<std::vector<MemberResult>> _slots =
        std::make_shared<std::vector<MemberResult>>();
    int refRound = -1;             ///< Round held in ref (-1: none).
    std::vector<std::uint8_t> ref; ///< expectedData(cfg, refRound).
};

} // namespace nectar::workload
