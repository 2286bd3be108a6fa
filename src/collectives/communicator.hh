/**
 * @file
 * Tree-based collective operations over Nectar groups.
 *
 * Broadcast, reduce, allreduce, gather and barrier as CAB kernel
 * threads.  One-to-many steps ride the HUB hardware multicast tree
 * (with the transport's unicast fan-out fallback); many-to-one steps
 * climb a binomial tree rooted at the operation's root.  Reduction
 * arithmetic runs on the CAB CPU over fixed-width 32-bit big-endian
 * lanes, charged through the CAB CPU and memory cost models.
 *
 * Allreduce picks its schedule by message size: recursive doubling
 * for small vectors (latency-bound: log2(n) rounds of full-size
 * exchanges), reduce-scatter + slice allgather for large power-of-two
 * groups (bandwidth-bound: each member moves ~2.(n-1)/n of the
 * vector), and binomial reduce + hardware broadcast otherwise.
 *
 * Failure semantics: every operation runs under the group epoch it
 * started in.  A reliable send that exhausts retransmissions or a
 * receive that passes its deadline reports the failure, which bumps
 * the group epoch once; the operation then terminates with an error
 * instead of hanging, and so does every concurrent operation of the
 * surviving members (they observe the epoch change or their own
 * timeout).  Deadlines use a CAB hardware timer that posts a sentinel
 * message into the group mailbox, so a blocked receiver wakes without
 * polling.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "collectives/group.hh"
#include "collectives/multicast.hh"
#include "nectarine/nectarine.hh"
#include "sim/coro.hh"

namespace nectar::collective {

/** Reduction operator over unsigned 32-bit big-endian lanes. */
enum class ReduceOp : std::uint8_t {
    sum, ///< Wraparound addition mod 2^32.
    min, ///< Unsigned minimum.
    max, ///< Unsigned maximum.
};

/**
 * The host-side reduction kernel: fold @p in into @p acc (same size)
 * with @p op.  Whole 32-bit big-endian lanes combine a lane at a
 * time, straight out of each of the view's segments; a lane that
 * straddles a segment boundary is carried across it; the trailing
 * size % 4 bytes past the last whole lane combine byte-wise (sum
 * wraps mod 2^8).  Pure arithmetic: the simulated cost is charged by
 * the caller.
 */
void foldLanes(std::vector<std::uint8_t> &acc, const sim::PacketView &in,
               ReduceOp op);

/** Why a collective operation failed. */
enum class CollectiveError : std::uint8_t {
    none = 0,
    timeout,      ///< A receive deadline passed (peer unidentified).
    memberFailed, ///< A specific peer was observed dead.
    epochChanged, ///< Another survivor bumped the epoch first.
    destroyed,    ///< The group was destroyed.
};

/** Outcome of one collective operation. */
struct Result
{
    bool ok = false;
    CollectiveError error = CollectiveError::none;
    /** Group epoch when the operation finished (a bump past the
     *  start epoch is the failure signal the caller acts on). */
    std::uint32_t epoch = 0;
};

/** Per-communicator tuning. */
struct CommunicatorConfig
{
    /** Allreduce strategy cutoff: vectors up to this size use
     *  recursive doubling; larger ones a bandwidth-optimal plan. */
    std::size_t recursiveDoublingMaxBytes = 2048;

    /** Receive deadline per collective step. */
    sim::Tick opTimeout = 500 * sim::ticks::ms;

    /** Fabric policy for one-to-many steps. */
    McastPath path = McastPath::automatic;

    /** Group mailbox capacity on each member CAB. */
    std::uint32_t mailboxCapacity = 1u << 20;
};

/**
 * A task's handle on one group, created inside the task body.  All
 * members must call the same sequence of collective operations with
 * compatible arguments (the usual MPI-style contract); the internal
 * operation sequence number keeps concurrent traffic of successive
 * operations apart.
 */
class Communicator
{
  public:
    Communicator(nectarine::TaskContext &ctx, GroupDirectory &groups,
                 GroupId gid, CommunicatorConfig config = {});

    int rank() const { return _rank; }
    int size() const { return static_cast<int>(members.size()); }
    GroupId group() const { return gid; }

    /**
     * Broadcast @p data from @p root to every member.  On non-roots
     * @p data is replaced with the received bytes (one counted
     * materialization at the application boundary).
     */
    sim::Task<Result> broadcast(int root,
                                std::vector<std::uint8_t> &data);

    /**
     * Zero-copy broadcast: the root sends @p io; non-roots receive
     * into @p io as a PacketView sharing the delivered buffers.  No
     * byte of payload is materialized anywhere on the path.
     */
    sim::Task<Result> broadcastView(int root, sim::PacketView &io);

    /**
     * Reduce every member's @p data with @p op up a binomial tree.
     * On the root, @p data is replaced by the reduction; elsewhere it
     * is left untouched.  All members must pass equal-sized vectors.
     */
    sim::Task<Result> reduce(int root, ReduceOp op,
                             std::vector<std::uint8_t> &data);

    /**
     * Allreduce: @p data is replaced on every member by the
     * reduction of all members' vectors.
     */
    sim::Task<Result> allreduce(ReduceOp op,
                                std::vector<std::uint8_t> &data);

    /**
     * Gather every member's @p mine at @p root: there, @p out is
     * resized to the group size and slot r receives rank r's bytes.
     * On other members @p out is untouched (may be nullptr).
     */
    sim::Task<Result>
    gather(int root, const std::vector<std::uint8_t> &mine,
           std::vector<std::vector<std::uint8_t>> *out);

    /**
     * Barrier: arrivals climb the binomial tree to rank 0, whose
     * release multicasts back down.  No member returns before every
     * member has entered.
     */
    sim::Task<Result> barrier();

    const CommunicatorConfig &config() const { return cfg; }

  private:
    struct Incoming
    {
        WireHeader hdr;
        sim::PacketView payload;
    };

    // Tree helpers (vrank = rank rotated so the root is 0).
    int vrankOf(int rank, int root) const;
    int rankOf(int vrank, int root) const;
    int parentOf(int vrank) const;
    std::vector<int> childrenOf(int vrank) const;

    cabos::Mailbox &groupBox();

    /** Send one collective message to @p dstRank; false = peer dead. */
    sim::Task<bool> sendTo(int dstRank, MsgKind kind,
                           std::uint8_t param, std::uint32_t opSeq,
                           std::uint16_t epoch, sim::PacketView payload);

    /** Multicast one collective message to every rank but ours. */
    sim::Task<McastOutcome> mcastAll(MsgKind kind, std::uint8_t param,
                                     std::uint32_t opSeq,
                                     std::uint16_t epoch,
                                     sim::PacketView payload);

    /** Multicast to an explicit rank set. */
    sim::Task<McastOutcome> mcastTo(const std::vector<int> &ranks,
                                    MsgKind kind, std::uint8_t param,
                                    std::uint32_t opSeq,
                                    std::uint16_t epoch,
                                    sim::PacketView payload);

    /**
     * Receive the collective message matching (kind, param, src,
     * opSeq) under @p epoch, stashing mismatches for later steps.
     * @p srcRank < 0 matches any sender.  On failure (deadline,
     * epoch change, destroyed group) sets @p err and returns nullopt.
     */
    sim::Task<std::optional<Incoming>>
    recvMatch(MsgKind kind, std::uint8_t param, int srcRank,
              std::uint32_t opSeq, std::uint16_t epoch,
              CollectiveError &err);

    /**
     * Combine @p in into @p acc lane-wise with @p op, streaming the
     * view's segments (no materialization); charges the CAB CPU the
     * per-byte copy cost and the memory model the traffic.
     */
    sim::Task<void> combineInto(std::vector<std::uint8_t> &acc,
                                const sim::PacketView &in,
                                ReduceOp op);

    /** Report a peer failure and translate it into a Result. */
    Result fail(CollectiveError err, std::uint32_t startEpoch,
                std::optional<int> suspectRank);

    Result okResult() const;

    /**
     * Run @p inner bracketed by CollectiveProbe start/end hooks
     * (exactly one pair per application-visible operation; internal
     * delegation — broadcast→broadcastView, the allreduce fallback —
     * uses the Inner variants directly).
     */
    sim::Task<Result> traced(sim::Task<Result> inner);

    sim::Task<Result> broadcastInner(int root,
                                     std::vector<std::uint8_t> &data);
    sim::Task<Result> broadcastViewInner(int root, sim::PacketView &io);
    sim::Task<Result> reduceInner(int root, ReduceOp op,
                                  std::vector<std::uint8_t> &data);
    sim::Task<Result> allreduceInner(ReduceOp op,
                                     std::vector<std::uint8_t> &data);
    sim::Task<Result>
    gatherInner(int root, const std::vector<std::uint8_t> &mine,
                std::vector<std::vector<std::uint8_t>> *out);
    sim::Task<Result> barrierInner();

    sim::Task<Result> allreduceRecursiveDoubling(
        ReduceOp op, std::vector<std::uint8_t> &data,
        std::uint32_t opSeq, std::uint16_t epoch);
    sim::Task<Result> allreduceReduceScatter(
        ReduceOp op, std::vector<std::uint8_t> &data,
        std::uint32_t opSeq, std::uint16_t epoch);

    nectarine::TaskContext &ctx;
    GroupDirectory &groups;
    GroupId gid;
    CommunicatorConfig cfg;

    std::vector<nectarine::TaskId> members; ///< Rank-ordered snapshot.
    int _rank = -1;

    std::uint32_t nextOpSeq = 1;
    std::uint64_t waitNonce = 0;
    std::deque<Incoming> stash;
};

} // namespace nectar::collective
