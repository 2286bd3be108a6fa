#include "production.hh"

#include "sim/logging.hh"

namespace nectar::workload {

using nectarine::TaskContext;
using nectarine::TaskId;
using sim::Task;

namespace {

void
putTick(std::vector<std::uint8_t> &v, std::size_t off, Tick t)
{
    for (int i = 0; i < 8; ++i)
        v[off + i] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(t) >> (56 - 8 * i));
}

Tick
getTick(const sim::PacketView &v, std::size_t off)
{
    std::uint64_t t = 0;
    for (int i = 0; i < 8; ++i)
        t = (t << 8) | v[off + i];
    return static_cast<Tick>(t);
}

} // namespace

ProductionWorkload::ProductionWorkload(
    nectarine::Nectarine &api, std::vector<std::size_t> workerSites,
    const Config &config)
    : cfg(config)
{
    if (workerSites.empty())
        sim::fatal("ProductionWorkload: need at least one worker");

    const std::string run = std::to_string(api.taskCount());
    auto workers = std::make_shared<std::vector<TaskId>>();

    for (std::size_t w = 0; w < workerSites.size(); ++w) {
        TaskId id = api.createTask(
            workerSites[w], "rete" + run + "_" + std::to_string(w),
            [this, w, workers](TaskContext &ctx) -> Task<void> {
                sim::Random rng(cfg.seed * 97 + w);
                for (;;) {
                    auto token = co_await ctx.receive();
                    if (token.size() < 8)
                        continue;
                    if (*processed >= cfg.maxTokens)
                        continue; // drain silently after cutoff
                    _tokenLat.record(static_cast<double>(
                        ctx.now() - getTick(token.view(), 0)));
                    // Match: evaluate this partition of the RETE
                    // network against the token.
                    co_await ctx.compute(cfg.matchCompute);
                    ++*processed;
                    _lastMatch = ctx.now();
                    if (*processed >= cfg.maxTokens)
                        continue;
                    // Propagate follow-on tokens through the
                    // distributed task queue.
                    if (rng.chance(cfg.fanoutProbability)) {
                        for (int f = 0; f < cfg.fanout; ++f) {
                            auto dst = (*workers)[rng.below(
                                static_cast<std::uint32_t>(
                                    workers->size()))];
                            std::vector<std::uint8_t> next(
                                std::max<std::uint32_t>(
                                    cfg.tokenBytes, 8),
                                0);
                            putTick(next, 0, ctx.now());
                            co_await ctx.send(
                                dst, std::move(next),
                                nectarine::Delivery::reliable);
                        }
                    }
                }
            });
        workers->push_back(id);
    }

    // Root: seed the initial working memory changes.
    api.createTask(
        workerSites[0], "root" + run,
        [this, workers](TaskContext &ctx) -> Task<void> {
            sim::Random rng(cfg.seed);
            for (int t = 0; t < cfg.seedTokens; ++t) {
                auto dst = (*workers)[rng.below(
                    static_cast<std::uint32_t>(workers->size()))];
                std::vector<std::uint8_t> token(
                    std::max<std::uint32_t>(cfg.tokenBytes, 8), 0);
                putTick(token, 0, ctx.now());
                co_await ctx.send(dst, std::move(token),
                                  nectarine::Delivery::reliable);
            }
        });
}

} // namespace nectar::workload
