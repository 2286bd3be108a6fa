#include "collectives/communicator.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace nectar::collective {

namespace {

/** Sentinel messages carry the deadline-timer tag space: the top 16
 *  tag bits are a marker no transport-assigned tag can produce
 *  (stream tags are 32-bit message ids; request tags top out at 48
 *  bits), the low bits a per-wait nonce so a stale sentinel from an
 *  earlier wait is recognized and dropped. */
constexpr std::uint64_t sentinelMark = 0xC0DEull;

constexpr std::uint64_t
sentinelTag(std::uint64_t nonce)
{
    return (sentinelMark << 48) | (nonce & 0xFFFF'FFFF'FFFFull);
}

constexpr bool
isSentinel(std::uint64_t tag)
{
    return (tag >> 48) == sentinelMark;
}

std::uint32_t
applyLane(ReduceOp op, std::uint32_t a, std::uint32_t b)
{
    switch (op) {
    case ReduceOp::sum:
        return a + b; // wraparound mod 2^32
    case ReduceOp::min:
        return std::min(a, b);
    case ReduceOp::max:
        return std::max(a, b);
    }
    return a;
}

std::uint32_t
loadLane(const std::uint8_t *p)
{
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) |
           static_cast<std::uint32_t>(p[3]);
}

void
storeLane(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

} // namespace

void
foldLanes(std::vector<std::uint8_t> &acc, const sim::PacketView &in,
          ReduceOp op)
{
    std::uint8_t *out = acc.data();
    const std::size_t whole = in.size() - in.size() % 4;
    std::size_t pos = 0;
    std::uint32_t lane = 0;
    // One byte at a time: a byte of a lane that straddles a segment
    // boundary, or a trailing byte past the last whole lane.
    auto step = [&](std::uint8_t b) {
        if (pos >= whole) {
            out[pos] =
                static_cast<std::uint8_t>(applyLane(op, out[pos], b));
        } else {
            lane = (lane << 8) | b;
            if (pos % 4 == 3)
                storeLane(out + pos - 3,
                          applyLane(op, loadLane(out + pos - 3), lane));
        }
        ++pos;
    };
    in.forEachSegment([&](const std::uint8_t *p, std::size_t n) {
        for (; n > 0 && pos % 4 != 0; --n)
            step(*p++);
        // Lane-aligned here, so pos < whole leaves a whole lane.
        for (; n >= 4 && pos < whole; n -= 4, p += 4, pos += 4)
            storeLane(out + pos, applyLane(op, loadLane(out + pos),
                                           loadLane(p)));
        for (; n > 0; --n)
            step(*p++);
    });
}

Communicator::Communicator(nectarine::TaskContext &ctx,
                           GroupDirectory &groups, GroupId gid,
                           CommunicatorConfig config)
    : ctx(ctx), groups(groups), gid(gid), cfg(config)
{
    members = groups.info(gid).members;
    _rank = groups.rankOf(gid, ctx.id());
    if (_rank < 0)
        sim::fatal("Communicator: task is not a member of group " +
                   std::to_string(gid));
    // Materialize the group mailbox now, before any peer's first
    // operation can deliver into it.
    groupBox();
}

cabos::Mailbox &
Communicator::groupBox()
{
    auto id = GroupDirectory::groupMailboxId(gid);
    if (auto *box = ctx.kernel().mailbox(id))
        return *box;
    return ctx.kernel().createMailbox("group" + std::to_string(gid),
                                      cfg.mailboxCapacity, id);
}

// ----- Tree helpers --------------------------------------------------

int
Communicator::vrankOf(int rank, int root) const
{
    return (rank - root + size()) % size();
}

int
Communicator::rankOf(int vrank, int root) const
{
    return (vrank + root) % size();
}

int
Communicator::parentOf(int vrank) const
{
    return vrank == 0 ? -1 : (vrank & (vrank - 1));
}

std::vector<int>
Communicator::childrenOf(int vrank) const
{
    std::vector<int> out;
    for (int m = 1; m < size(); m <<= 1) {
        if (vrank & m)
            break; // m reached vrank's lowest set bit
        if (vrank + m < size())
            out.push_back(vrank + m);
    }
    return out;
}

// ----- Messaging helpers ---------------------------------------------

sim::Task<bool>
Communicator::sendTo(int dstRank, MsgKind kind, std::uint8_t param,
                     std::uint32_t opSeq, std::uint16_t epoch,
                     sim::PacketView payload)
{
    WireHeader h;
    h.gid = gid;
    h.epoch = epoch;
    h.srcRank = static_cast<std::uint16_t>(_rank);
    h.opSeq = opSeq;
    h.kind = kind;
    h.param = param;
    co_return co_await ctx.home().transport->sendReliable(
        members[dstRank].cab, GroupDirectory::groupMailboxId(gid),
        makeCollectiveMessage(h, std::move(payload)));
}

sim::Task<McastOutcome>
Communicator::mcastTo(const std::vector<int> &ranks, MsgKind kind,
                      std::uint8_t param, std::uint32_t opSeq,
                      std::uint16_t epoch, sim::PacketView payload)
{
    std::vector<transport::CabAddress> dsts;
    dsts.reserve(ranks.size());
    for (int r : ranks)
        if (r != _rank)
            dsts.push_back(members[r].cab);
    if (dsts.empty())
        co_return McastOutcome{};
    WireHeader h;
    h.gid = gid;
    h.epoch = epoch;
    h.srcRank = static_cast<std::uint16_t>(_rank);
    h.opSeq = opSeq;
    h.kind = kind;
    h.param = param;
    co_return co_await reliableMulticast(
        *ctx.home().transport, std::move(dsts),
        GroupDirectory::groupMailboxId(gid),
        makeCollectiveMessage(h, std::move(payload)), cfg.path);
}

sim::Task<McastOutcome>
Communicator::mcastAll(MsgKind kind, std::uint8_t param,
                       std::uint32_t opSeq, std::uint16_t epoch,
                       sim::PacketView payload)
{
    std::vector<int> all(size());
    for (int r = 0; r < size(); ++r)
        all[r] = r;
    co_return co_await mcastTo(all, kind, param, opSeq, epoch,
                               std::move(payload));
}

sim::Task<std::optional<Communicator::Incoming>>
Communicator::recvMatch(MsgKind kind, std::uint8_t param, int srcRank,
                        std::uint32_t opSeq, std::uint16_t epoch,
                        CollectiveError &err)
{
    cabos::Mailbox &box = groupBox();
    const sim::Tick deadline = ctx.now() + cfg.opTimeout;
    for (;;) {
        if (!groups.info(gid).alive) {
            err = CollectiveError::destroyed;
            co_return std::nullopt;
        }
        if (groups.epoch(gid) != epoch) {
            err = CollectiveError::epochChanged;
            co_return std::nullopt;
        }
        // Scan the stash (pruning traffic from dead epochs).
        for (auto it = stash.begin(); it != stash.end();) {
            if (it->hdr.epoch < groups.epoch(gid)) {
                it = stash.erase(it);
                continue;
            }
            if (it->hdr.epoch == epoch && it->hdr.opSeq == opSeq &&
                it->hdr.kind == kind && it->hdr.param == param &&
                (srcRank < 0 ||
                 it->hdr.srcRank ==
                     static_cast<std::uint16_t>(srcRank))) {
                Incoming m = std::move(*it);
                stash.erase(it);
                co_return m;
            }
            ++it;
        }
        if (ctx.now() >= deadline) {
            err = CollectiveError::timeout;
            co_return std::nullopt;
        }
        // Block on the mailbox with a hardware-timer sentinel: if the
        // deadline fires first, the timer posts a sentinel message
        // that wakes us (no polling).  If tryPut finds the box full,
        // the box is nonempty, so we were not blocked anyway.
        std::uint64_t nonce = ++waitNonce;
        cabos::Mailbox *boxp = &box;
        ctx.kernel().board().cpu().charge(ctx.kernel().costs().timerOp);
        auto timer = ctx.kernel().board().timers().set(
            deadline - ctx.now(), [boxp, nonce] {
                boxp->tryPut(cabos::Message(sim::PacketView{},
                                            sentinelTag(nonce)));
            });
        auto msg = co_await box.get();
        if (ctx.kernel().board().timers().cancel(timer))
            ctx.kernel().board().cpu().charge(
                ctx.kernel().costs().timerOp);
        if (isSentinel(msg.tag))
            continue; // ours: the loop head sees the deadline; a
                      // stale one from an earlier wait is dropped
        auto view = msg.takeView();
        auto parsed = parseCollectiveMessage(view);
        if (!parsed)
            continue; // not collective traffic; drop
        WireHeader h = parsed->first;
        sim::PacketView payload = std::move(parsed->second);
        if (h.gid != gid)
            continue;
        if (h.epoch < epoch)
            continue; // stale-epoch traffic
        if (h.epoch == epoch && h.opSeq == opSeq && h.kind == kind &&
            h.param == param &&
            (srcRank < 0 ||
             h.srcRank == static_cast<std::uint16_t>(srcRank)))
            co_return Incoming{h, std::move(payload)};
        // A later step's (or later epoch's) message: keep for then.
        stash.push_back(Incoming{h, std::move(payload)});
    }
}

sim::Task<void>
Communicator::combineInto(std::vector<std::uint8_t> &acc,
                          const sim::PacketView &in, ReduceOp op)
{
    if (in.size() != acc.size())
        sim::fatal("Communicator: reduce payload size mismatch (" +
                   std::to_string(in.size()) + " vs " +
                   std::to_string(acc.size()) + ")");
    // Stream the incoming segments (no materialization).
    foldLanes(acc, in, op);
    // The SPARC touches both operands and writes the result: charge
    // the CPU the per-byte software cost and the memory system the
    // traffic.
    auto bytes = static_cast<std::uint64_t>(in.size());
    ctx.kernel().board().memory().account(cab::Accessor::cpu,
                                          2 * bytes);
    co_await ctx.compute(static_cast<sim::Tick>(
        static_cast<double>(bytes) *
        ctx.kernel().costs().copyPerByteNs));
}

Result
Communicator::fail(CollectiveError err, std::uint32_t startEpoch,
                   std::optional<int> suspectRank)
{
    if (err == CollectiveError::timeout ||
        err == CollectiveError::memberFailed) {
        std::optional<nectarine::TaskId> suspect;
        if (suspectRank && *suspectRank >= 0 &&
            *suspectRank < size()) {
            suspect = members[static_cast<std::size_t>(*suspectRank)];
            err = CollectiveError::memberFailed;
        }
        groups.reportFailure(gid, startEpoch, suspect);
    }
    return Result{false, err, groups.epoch(gid)};
}

Result
Communicator::okResult() const
{
    return Result{true, CollectiveError::none, groups.epoch(gid)};
}

// ----- Operations ----------------------------------------------------

sim::Task<Result>
Communicator::traced(sim::Task<Result> inner)
{
    std::uint32_t startEpoch = groups.epoch(gid);
    if (auto *p = groups.probe())
        p->onCollectiveStart(gid, _rank);
    Result r = co_await inner;
    if (auto *p = groups.probe())
        p->onCollectiveEnd(gid, _rank, r.ok,
                           static_cast<std::uint8_t>(r.error),
                           startEpoch, r.epoch);
    co_return r;
}

sim::Task<Result>
Communicator::broadcastView(int root, sim::PacketView &io)
{
    return traced(broadcastViewInner(root, io));
}

sim::Task<Result>
Communicator::broadcast(int root, std::vector<std::uint8_t> &data)
{
    return traced(broadcastInner(root, data));
}

sim::Task<Result>
Communicator::reduce(int root, ReduceOp op,
                     std::vector<std::uint8_t> &data)
{
    return traced(reduceInner(root, op, data));
}

sim::Task<Result>
Communicator::allreduce(ReduceOp op, std::vector<std::uint8_t> &data)
{
    return traced(allreduceInner(op, data));
}

sim::Task<Result>
Communicator::gather(int root, const std::vector<std::uint8_t> &mine,
                     std::vector<std::vector<std::uint8_t>> *out)
{
    return traced(gatherInner(root, mine, out));
}

sim::Task<Result>
Communicator::barrier()
{
    return traced(barrierInner());
}

sim::Task<Result>
Communicator::broadcastViewInner(int root, sim::PacketView &io)
{
    std::uint32_t opSeq = nextOpSeq++;
    if (!groups.info(gid).alive)
        co_return Result{false, CollectiveError::destroyed,
                         groups.epoch(gid)};
    auto epoch = static_cast<std::uint16_t>(groups.epoch(gid));
    if (size() == 1)
        co_return okResult();
    if (_rank == root) {
        auto out = co_await mcastAll(MsgKind::bcast, 0, opSeq, epoch,
                                     io);
        if (!out.ok) {
            int suspect = -1;
            if (!out.failed.empty())
                for (int r = 0; r < size(); ++r)
                    if (members[r].cab == out.failed.front())
                        suspect = r;
            co_return fail(CollectiveError::memberFailed, epoch,
                           suspect < 0 ? std::nullopt
                                       : std::optional<int>(suspect));
        }
        co_return okResult();
    }
    CollectiveError err = CollectiveError::none;
    auto in = co_await recvMatch(MsgKind::bcast, 0, root, opSeq,
                                 epoch, err);
    if (!in)
        co_return fail(err, epoch, root);
    io = std::move(in->payload);
    co_return okResult();
}

sim::Task<Result>
Communicator::broadcastInner(int root, std::vector<std::uint8_t> &data)
{
    if (_rank == root) {
        sim::PacketView v{std::vector<std::uint8_t>(data)};
        co_return co_await broadcastViewInner(root, v);
    }
    sim::PacketView v;
    Result r = co_await broadcastViewInner(root, v);
    if (r.ok)
        data = v.toVector(); // the one application-boundary copy
    co_return r;
}

sim::Task<Result>
Communicator::reduceInner(int root, ReduceOp op,
                          std::vector<std::uint8_t> &data)
{
    std::uint32_t opSeq = nextOpSeq++;
    if (!groups.info(gid).alive)
        co_return Result{false, CollectiveError::destroyed,
                         groups.epoch(gid)};
    auto epoch = static_cast<std::uint16_t>(groups.epoch(gid));
    if (size() == 1)
        co_return okResult();
    int vr = vrankOf(_rank, root);
    std::vector<std::uint8_t> acc = data;
    for (int childV : childrenOf(vr)) {
        int child = rankOf(childV, root);
        CollectiveError err = CollectiveError::none;
        auto in = co_await recvMatch(MsgKind::reduceUp, 0, child,
                                     opSeq, epoch, err);
        if (!in)
            co_return fail(err, epoch, child);
        co_await combineInto(acc, in->payload, op);
    }
    if (vr != 0) {
        int parent = rankOf(parentOf(vr), root);
        if (!co_await sendTo(parent, MsgKind::reduceUp, 0, opSeq,
                             epoch, sim::PacketView(std::move(acc))))
            co_return fail(CollectiveError::memberFailed, epoch,
                           parent);
    } else {
        data = std::move(acc);
    }
    co_return okResult();
}

sim::Task<Result>
Communicator::allreduceInner(ReduceOp op,
                             std::vector<std::uint8_t> &data)
{
    if (!groups.info(gid).alive)
        co_return Result{false, CollectiveError::destroyed,
                         groups.epoch(gid)};
    const int n = size();
    if (n == 1) {
        ++nextOpSeq;
        co_return okResult();
    }
    // All members see the same n and data size (the collective
    // contract), so they pick the same schedule and stay opSeq-
    // aligned.
    if (data.size() <= cfg.recursiveDoublingMaxBytes) {
        std::uint32_t opSeq = nextOpSeq++;
        auto epoch = static_cast<std::uint16_t>(groups.epoch(gid));
        co_return co_await allreduceRecursiveDoubling(op, data, opSeq,
                                                      epoch);
    }
    bool pow2 = (n & (n - 1)) == 0;
    if (pow2 && n <= 255 && data.size() % 4 == 0 &&
        data.size() / 4 >= static_cast<std::size_t>(n)) {
        std::uint32_t opSeq = nextOpSeq++;
        auto epoch = static_cast<std::uint16_t>(groups.epoch(gid));
        co_return co_await allreduceReduceScatter(op, data, opSeq,
                                                  epoch);
    }
    // Fallback: binomial reduce to rank 0, hardware broadcast back.
    Result r = co_await reduceInner(0, op, data);
    if (!r.ok)
        co_return r;
    co_return co_await broadcastInner(0, data);
}

sim::Task<Result>
Communicator::allreduceRecursiveDoubling(ReduceOp op,
                                         std::vector<std::uint8_t> &data,
                                         std::uint32_t opSeq,
                                         std::uint16_t epoch)
{
    const int n = size();
    int p = 1;
    while (p * 2 <= n)
        p *= 2;
    const int rem = n - p;
    std::vector<std::uint8_t> acc = data;
    // Phase A: the non-power-of-two remainder folds into the core.
    if (_rank >= p) {
        if (!co_await sendTo(_rank - p, MsgKind::rdExchange, 0xFD,
                             opSeq, epoch,
                             sim::PacketView(
                                 std::vector<std::uint8_t>(acc))))
            co_return fail(CollectiveError::memberFailed, epoch,
                           _rank - p);
    } else if (_rank < rem) {
        CollectiveError err = CollectiveError::none;
        auto in = co_await recvMatch(MsgKind::rdExchange, 0xFD,
                                     _rank + p, opSeq, epoch, err);
        if (!in)
            co_return fail(err, epoch, _rank + p);
        co_await combineInto(acc, in->payload, op);
    }
    // Phase B: log2(p) pairwise exchange rounds in the core.
    if (_rank < p) {
        std::uint8_t round = 0;
        for (int mask = 1; mask < p; mask <<= 1, ++round) {
            int partner = _rank ^ mask;
            if (!co_await sendTo(partner, MsgKind::rdExchange, round,
                                 opSeq, epoch,
                                 sim::PacketView(
                                     std::vector<std::uint8_t>(acc))))
                co_return fail(CollectiveError::memberFailed, epoch,
                               partner);
            CollectiveError err = CollectiveError::none;
            auto in = co_await recvMatch(MsgKind::rdExchange, round,
                                         partner, opSeq, epoch, err);
            if (!in)
                co_return fail(err, epoch, partner);
            co_await combineInto(acc, in->payload, op);
        }
    }
    // Phase C: results flow back out to the remainder.
    if (_rank < rem) {
        if (!co_await sendTo(_rank + p, MsgKind::rdExchange, 0xFE,
                             opSeq, epoch,
                             sim::PacketView(
                                 std::vector<std::uint8_t>(acc))))
            co_return fail(CollectiveError::memberFailed, epoch,
                           _rank + p);
    } else if (_rank >= p) {
        CollectiveError err = CollectiveError::none;
        auto in = co_await recvMatch(MsgKind::rdExchange, 0xFE,
                                     _rank - p, opSeq, epoch, err);
        if (!in)
            co_return fail(err, epoch, _rank - p);
        acc = in->payload.toVector();
    }
    data = std::move(acc);
    co_return okResult();
}

sim::Task<Result>
Communicator::allreduceReduceScatter(ReduceOp op,
                                     std::vector<std::uint8_t> &data,
                                     std::uint32_t opSeq,
                                     std::uint16_t epoch)
{
    const int n = size();
    const std::size_t lanes = data.size() / 4;
    // Slice i covers lanes [lanes*i/n, lanes*(i+1)/n): contiguous,
    // lane-aligned, and exhaustive for any size.
    auto sliceLo = [&](int i) {
        return (lanes * static_cast<std::size_t>(i) /
                static_cast<std::size_t>(n)) *
               4;
    };
    std::vector<std::uint8_t> acc = data;
    // Recursive halving: each round exchanges the half of the
    // current slice range the partner owns, combining the half we
    // keep.  After log2(n) rounds rank r owns slice r, fully reduced.
    int lo = 0, cnt = n;
    std::uint8_t round = 0;
    for (int mask = n >> 1; mask >= 1; mask >>= 1, ++round) {
        int partner = _rank ^ mask;
        int half = cnt / 2;
        bool lower = (_rank & mask) == 0;
        int sendLo = lower ? lo + half : lo;
        int keepLo = lower ? lo : lo + half;
        std::size_t sb = sliceLo(sendLo), se = sliceLo(sendLo + half);
        std::size_t kb = sliceLo(keepLo), ke = sliceLo(keepLo + half);
        std::vector<std::uint8_t> chunk(acc.begin() + sb,
                                        acc.begin() + se);
        if (!co_await sendTo(partner, MsgKind::rdExchange, round,
                             opSeq, epoch,
                             sim::PacketView(std::move(chunk))))
            co_return fail(CollectiveError::memberFailed, epoch,
                           partner);
        CollectiveError err = CollectiveError::none;
        auto in = co_await recvMatch(MsgKind::rdExchange, round,
                                     partner, opSeq, epoch, err);
        if (!in)
            co_return fail(err, epoch, partner);
        if (in->payload.size() != ke - kb)
            sim::fatal("Communicator: reduce-scatter chunk size "
                       "mismatch");
        std::vector<std::uint8_t> kept(acc.begin() + kb,
                                       acc.begin() + ke);
        co_await combineInto(kept, in->payload, op);
        std::copy(kept.begin(), kept.end(), acc.begin() + kb);
        lo = keepLo;
        cnt = half;
    }
    // Allgather: every rank multicasts its owned slice; the HUB
    // hardware tree turns each into a single packet when routable.
    for (int owner = 0; owner < n; ++owner) {
        std::size_t ob = sliceLo(owner), oe = sliceLo(owner + 1);
        if (owner == _rank) {
            std::vector<std::uint8_t> mine(acc.begin() + ob,
                                           acc.begin() + oe);
            auto out = co_await mcastAll(
                MsgKind::slice, static_cast<std::uint8_t>(owner),
                opSeq, epoch, sim::PacketView(std::move(mine)));
            if (!out.ok)
                co_return fail(CollectiveError::memberFailed, epoch,
                               std::nullopt);
            continue;
        }
        CollectiveError err = CollectiveError::none;
        auto in = co_await recvMatch(
            MsgKind::slice, static_cast<std::uint8_t>(owner), owner,
            opSeq, epoch, err);
        if (!in)
            co_return fail(err, epoch, owner);
        if (in->payload.size() != oe - ob)
            sim::fatal("Communicator: allgather slice size mismatch");
        in->payload.copyTo(acc.data() + ob);
    }
    data = std::move(acc);
    co_return okResult();
}

sim::Task<Result>
Communicator::gatherInner(int root,
                          const std::vector<std::uint8_t> &mine,
                          std::vector<std::vector<std::uint8_t>> *out)
{
    std::uint32_t opSeq = nextOpSeq++;
    if (!groups.info(gid).alive)
        co_return Result{false, CollectiveError::destroyed,
                         groups.epoch(gid)};
    auto epoch = static_cast<std::uint16_t>(groups.epoch(gid));
    if (size() == 1) {
        if (out)
            out->assign(1, mine);
        co_return okResult();
    }
    if (_rank != root) {
        if (!co_await sendTo(root, MsgKind::gatherUp, 0, opSeq, epoch,
                             sim::PacketView(
                                 std::vector<std::uint8_t>(mine))))
            co_return fail(CollectiveError::memberFailed, epoch,
                           root);
        co_return okResult();
    }
    out->resize(static_cast<std::size_t>(size()));
    (*out)[static_cast<std::size_t>(root)] = mine;
    for (int r = 0; r < size(); ++r) {
        if (r == root)
            continue;
        CollectiveError err = CollectiveError::none;
        auto in = co_await recvMatch(MsgKind::gatherUp, 0, r, opSeq,
                                     epoch, err);
        if (!in)
            co_return fail(err, epoch, r);
        (*out)[static_cast<std::size_t>(r)] = in->payload.toVector();
    }
    co_return okResult();
}

sim::Task<Result>
Communicator::barrierInner()
{
    std::uint32_t opSeq = nextOpSeq++;
    if (!groups.info(gid).alive)
        co_return Result{false, CollectiveError::destroyed,
                         groups.epoch(gid)};
    auto epoch = static_cast<std::uint16_t>(groups.epoch(gid));
    if (size() == 1)
        co_return okResult();
    // One byte of payload: keeps every path off the zero-length
    // message edge.
    auto token = [] {
        return sim::PacketView(std::vector<std::uint8_t>{1});
    };
    int vr = vrankOf(_rank, 0);
    for (int childV : childrenOf(vr)) {
        int child = rankOf(childV, 0);
        CollectiveError err = CollectiveError::none;
        auto in = co_await recvMatch(MsgKind::barrierUp, 0, child,
                                     opSeq, epoch, err);
        if (!in)
            co_return fail(err, epoch, child);
    }
    if (vr != 0) {
        int parent = rankOf(parentOf(vr), 0);
        if (!co_await sendTo(parent, MsgKind::barrierUp, 0, opSeq,
                             epoch, token()))
            co_return fail(CollectiveError::memberFailed, epoch,
                           parent);
        CollectiveError err = CollectiveError::none;
        auto in = co_await recvMatch(MsgKind::release, 0, 0, opSeq,
                                     epoch, err);
        if (!in)
            co_return fail(err, epoch, 0);
    } else {
        auto out = co_await mcastAll(MsgKind::release, 0, opSeq,
                                     epoch, token());
        if (!out.ok)
            co_return fail(CollectiveError::memberFailed, epoch,
                           std::nullopt);
    }
    co_return okResult();
}

} // namespace nectar::collective
