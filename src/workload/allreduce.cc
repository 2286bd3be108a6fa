#include "allreduce.hh"

#include <algorithm>
#include <string>

#include "sim/logging.hh"

namespace nectar::workload {

using nectarine::TaskContext;
using nectarine::TaskId;
using sim::Task;

namespace {

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (auto b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint32_t
laneAt(const std::vector<std::uint8_t> &v, std::size_t at)
{
    return (static_cast<std::uint32_t>(v[at]) << 24) |
           (static_cast<std::uint32_t>(v[at + 1]) << 16) |
           (static_cast<std::uint32_t>(v[at + 2]) << 8) |
           static_cast<std::uint32_t>(v[at + 3]);
}

void
laneSet(std::vector<std::uint8_t> &v, std::size_t at, std::uint32_t x)
{
    v[at] = static_cast<std::uint8_t>(x >> 24);
    v[at + 1] = static_cast<std::uint8_t>(x >> 16);
    v[at + 2] = static_cast<std::uint8_t>(x >> 8);
    v[at + 3] = static_cast<std::uint8_t>(x);
}

} // namespace

std::vector<std::uint8_t>
AllreduceWorkload::memberData(const Config &cfg, int r, int t)
{
    std::vector<std::uint8_t> data(cfg.bytes);
    for (std::size_t j = 0; j < data.size(); ++j)
        data[j] = static_cast<std::uint8_t>(
            cfg.seed * 131u + static_cast<std::uint32_t>(r) * 31u +
            static_cast<std::uint32_t>(j) * 7u +
            static_cast<std::uint32_t>(t) * 13u);
    return data;
}

std::vector<std::uint8_t>
AllreduceWorkload::expectedData(const Config &cfg, int t)
{
    auto acc = memberData(cfg, 0, t);
    for (int r = 1; r < cfg.members; ++r) {
        auto in = memberData(cfg, r, t);
        for (std::size_t at = 0; at + 4 <= acc.size(); at += 4) {
            std::uint32_t a = laneAt(acc, at), b = laneAt(in, at);
            std::uint32_t v = 0;
            switch (cfg.op) {
            case collective::ReduceOp::sum: v = a + b; break;
            case collective::ReduceOp::min: v = std::min(a, b); break;
            case collective::ReduceOp::max: v = std::max(a, b); break;
            }
            laneSet(acc, at, v);
        }
    }
    return acc;
}

const std::vector<std::uint8_t> &
AllreduceWorkload::expectedFor(int t)
{
    if (refRound != t) {
        ref = expectedData(cfg, t);
        refRound = t;
    }
    return ref;
}

AllreduceWorkload::AllreduceWorkload(
    nectarine::Nectarine &api, collective::GroupDirectory &groups,
    std::vector<std::size_t> sites, const Config &config)
    : cfg(config)
{
    if (sites.size() != static_cast<std::size_t>(cfg.members))
        sim::fatal("AllreduceWorkload: one site per member required");
    if (cfg.bytes == 0 || cfg.bytes % 4 != 0)
        sim::fatal("AllreduceWorkload: bytes must be a positive "
                   "multiple of 4 (32-bit lanes)");

    const std::string run = std::to_string(api.taskCount());
    auto groupsp = &groups;
    _slots->resize(static_cast<std::size_t>(cfg.members));
    std::vector<TaskId> ids;
    for (int r = 0; r < cfg.members; ++r) {
        TaskId id = api.createTask(
            sites[static_cast<std::size_t>(r)],
            "allreduce" + run + "_" + std::to_string(r),
            [this, groupsp, r](TaskContext &ctx) -> Task<void> {
                collective::Communicator comm(ctx, *groupsp, *gid,
                                              cfg.comm);
                // Each member writes only its own result slot; the
                // shared reference is a host-side cache, not state.
                MemberResult &slot =
                    (*_slots)[static_cast<std::size_t>(r)];
                std::uint64_t fp = 0;
                for (int t = 0; t < cfg.rounds; ++t) {
                    auto data = memberData(cfg, comm.rank(), t);
                    auto res = co_await comm.allreduce(cfg.op, data);
                    slot.epoch = std::max(slot.epoch, res.epoch);
                    if (!res.ok) {
                        slot.error = true;
                        co_return;
                    }
                    if (data != expectedFor(t)) {
                        slot.wrong = true;
                        co_return;
                    }
                    fp ^= fnv1a(data) + 0x9e3779b97f4a7c15ull +
                          (fp << 6) + (fp >> 2);
                }
                slot.ok = true;
                slot.finish = ctx.now();
                // Order-independent: each member's term depends only
                // on its own rank, results and finish time.
                slot.fp =
                    (fp ^ static_cast<std::uint64_t>(ctx.now())) *
                    (static_cast<std::uint64_t>(comm.rank()) * 2u +
                     1u);
                co_return;
            });
        ids.push_back(id);
    }
    *gid = groups.create("allreduce" + run, ids);
}

AllreduceReport
AllreduceWorkload::report() const
{
    AllreduceReport r;
    for (const MemberResult &m : *_slots) {
        if (m.ok)
            ++r.okMembers;
        if (m.error)
            ++r.errorMembers;
        if (m.wrong)
            ++r.wrongMembers;
        r.fingerprint += m.fp;
        r.lastFinish = std::max(r.lastFinish, m.finish);
        r.finalEpoch = std::max(r.finalEpoch, m.epoch);
    }
    return r;
}

} // namespace nectar::workload
