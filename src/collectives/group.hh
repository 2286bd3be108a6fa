/**
 * @file
 * Process groups for collective communication.
 *
 * The HUB exposes hardware one-to-many connections (Section 4.2.2);
 * this layer gives them an addressable unit: a *group* of Nectarine
 * tasks with a deterministic id, a rank order, and an *epoch*.  The
 * epoch is the group's failure-detection generation: when any member
 * observes another member dead (a reliable send exhausted its
 * retransmissions, or a collective receive timed out), it bumps the
 * epoch exactly once, and every collective operation started under
 * the old epoch terminates with an epoch-bump error instead of
 * hanging on the dead member.
 *
 * Like the NetworkDirectory, the GroupDirectory is the simulation's
 * shared name service: in the prototype it would be replicated
 * CAB-resident state.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cabos/mailbox.hh"
#include "nectarine/nectarine.hh"
#include "sim/stats.hh"

namespace nectar::collective {

/** Deterministic group identity (creation order, starting at 1). */
using GroupId = std::uint32_t;

/**
 * Observation hooks for collective-operation accounting.  The chaos
 * oracle implements this to assert that every collective a member
 * starts terminates (completes, or fails with an error and a clean
 * epoch), and that epoch bumps are monotonic.  Hooks fire on the
 * deterministic event order; a null probe costs one pointer test.
 */
class CollectiveProbe
{
  public:
    virtual ~CollectiveProbe() = default;

    /** Rank @p rank entered a collective operation on @p gid. */
    virtual void onCollectiveStart(GroupId gid, int rank) = 0;

    /**
     * ... and left it.  @p error is the CollectiveError as uint8 (0
     * = none); @p startEpoch / @p endEpoch bracket the group epoch
     * over the operation.
     */
    virtual void onCollectiveEnd(GroupId gid, int rank, bool ok,
                                 std::uint8_t error,
                                 std::uint32_t startEpoch,
                                 std::uint32_t endEpoch) = 0;

    /** The directory bumped @p gid's epoch to @p newEpoch. */
    virtual void onEpochBump(GroupId gid, std::uint32_t newEpoch) = 0;
};

/** One group's membership and failure-detection state. */
struct GroupInfo
{
    GroupId id = 0;
    std::string name;
    /** Members in rank order (sorted by TaskId: deterministic). */
    std::vector<nectarine::TaskId> members;
    /** Failure-detection generation; starts at 1. */
    std::uint32_t epoch = 1;
    /** Members reported dead (one entry per epoch bump at most). */
    std::vector<nectarine::TaskId> suspects;
    bool alive = true; ///< False once destroyed.
};

/**
 * The shared group membership directory, keyed by Nectarine TaskId.
 */
class GroupDirectory
{
  public:
    /** Create an empty group.  Ids are sequential: deterministic. */
    GroupId create(const std::string &name);

    /**
     * Add a member.  Membership must be complete before the first
     * collective operation; ranks are the sorted-TaskId order.
     * Joining twice, joining a destroyed group, or placing two
     * members of one group on the same CAB (they would share the
     * group mailbox) is a programming error.
     */
    void join(GroupId gid, nectarine::TaskId member);

    /** Convenience: create and join every member. */
    GroupId create(const std::string &name,
                   const std::vector<nectarine::TaskId> &members);

    /** Tear a group down; later operations fail with `destroyed`. */
    void destroy(GroupId gid);

    const GroupInfo &info(GroupId gid) const;
    std::optional<GroupId> lookup(const std::string &name) const;

    /** Current epoch of @p gid. */
    std::uint32_t epoch(GroupId gid) const;

    /** Rank of @p member in @p gid, or -1. */
    int rankOf(GroupId gid, nectarine::TaskId member) const;

    /**
     * A member observed a peer dead during an operation started at
     * @p fromEpoch.  The first report per epoch bumps it (recording
     * @p suspect, when known); later reports from other survivors
     * find the epoch already advanced and change nothing.
     *
     * @return true when this call performed the bump.
     */
    bool reportFailure(GroupId gid, std::uint32_t fromEpoch,
                       std::optional<nectarine::TaskId> suspect);

    /** Epoch bumps across all groups (test/bench observability). */
    std::uint64_t epochBumps() const { return _epochBumps.value(); }

    /**
     * Attach an observation probe (nullptr detaches).  Shared by
     * every Communicator using this directory.
     */
    void setProbe(CollectiveProbe *p) { _probe = p; }
    CollectiveProbe *probe() const { return _probe; }

    /**
     * The per-CAB mailbox id a group's member listens on.  One id
     * per group, identical on every member CAB (mailbox namespaces
     * are per CAB) and disjoint from Nectarine task inboxes.
     */
    static cabos::MailboxId
    groupMailboxId(GroupId gid)
    {
        return static_cast<cabos::MailboxId>(groupMailboxBase + gid);
    }

    /** Group mailboxes live above the task-inbox space. */
    static constexpr std::uint16_t groupMailboxBase = 0x8000;

  private:
    GroupInfo &mutableInfo(GroupId gid);

    std::map<GroupId, GroupInfo> groups;
    GroupId nextId = 1;
    sim::Counter _epochBumps;
    CollectiveProbe *_probe = nullptr;
};

} // namespace nectar::collective
