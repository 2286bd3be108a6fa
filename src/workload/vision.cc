#include "vision.hh"

#include "sim/logging.hh"
#include "sim/random.hh"

namespace nectar::workload {

using nectarine::TaskContext;
using nectarine::TaskId;
using sim::Task;

namespace {

constexpr std::uint8_t kindFeature = 0xF0;
constexpr std::uint8_t kindQuery = 0x0A;

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

VisionWorkload::VisionWorkload(nectarine::Nectarine &api,
                               std::size_t cameraSite,
                               std::size_t warpSite,
                               std::vector<std::size_t> dbSites,
                               std::vector<std::size_t> clientSites,
                               const Config &config)
    : cfg(config), clientCount(static_cast<int>(clientSites.size()))
{
    if (dbSites.empty())
        sim::fatal("VisionWorkload: need at least one database shard");

    const std::string run = std::to_string(api.taskCount());

    // --- Database shards: store features, answer spatial queries.
    std::vector<TaskId> shards;
    for (std::size_t s = 0; s < dbSites.size(); ++s) {
        shards.push_back(api.createTask(
            dbSites[s], "db" + run + "_" + std::to_string(s),
            [this](TaskContext &ctx) -> Task<void> {
                for (;;) {
                    auto m = co_await ctx.receive();
                    if (m.view().empty())
                        continue;
                    if (m.view()[0] == kindFeature) {
                        // A frame's features are now stored: the
                        // pipeline latency ends here.
                        _frameLat.record(static_cast<double>(
                            ctx.now() - getTick(m.view(), 1)));
                        ++_frames;
                    } else if (m.view()[0] == kindQuery) {
                        co_await ctx.compute(cfg.dbComputePerQuery);
                        std::vector<std::uint8_t> answer(
                            cfg.answerBytes, 0xA5);
                        ctx.reply(m, std::move(answer));
                        ++_queries;
                    }
                }
            }));
    }

    // --- The Warp machine: low-level vision per frame, then feature
    //     scatter (Section 7: Warp for low-level analysis).
    TaskId warp = api.createTask(
        warpSite, "warp" + run,
        [this, shards](TaskContext &ctx) -> Task<void> {
            for (int f = 0; f < cfg.frames; ++f) {
                auto frame = co_await ctx.receive();
                co_await ctx.compute(cfg.warpComputePerFrame);
                std::vector<std::uint8_t> features(cfg.featureBytes,
                                                   0);
                features[0] = kindFeature;
                // Propagate the camera timestamp end to end.
                putTick(features, 1, getTick(frame.view(), 1));
                co_await ctx.send(
                    shards[f % shards.size()], std::move(features),
                    nectarine::Delivery::reliable);
            }
        });

    // --- The camera: frames at video rate.
    api.createTask(
        cameraSite, "camera" + run,
        [this, warp](TaskContext &ctx) -> Task<void> {
            for (int f = 0; f < cfg.frames; ++f) {
                co_await ctx.sleepFor(cfg.frameInterval);
                std::vector<std::uint8_t> frame(cfg.frameBytes, 0);
                frame[0] = kindFeature;
                putTick(frame, 1, ctx.now());
                co_await ctx.send(warp, std::move(frame),
                                  nectarine::Delivery::reliable);
            }
        });

    // --- Query clients against the distributed spatial database.
    for (std::size_t c = 0; c < clientSites.size(); ++c) {
        api.createTask(
            clientSites[c], "vq" + run + "_" + std::to_string(c),
            [this, shards, c](TaskContext &ctx) -> Task<void> {
                sim::Random rng(cfg.seed + c);
                for (int q = 0; q < cfg.queriesPerClient; ++q) {
                    co_await ctx.sleepFor(static_cast<Tick>(
                        rng.exponential(200.0 * us)));
                    std::vector<std::uint8_t> query(cfg.queryBytes,
                                                    0);
                    query[0] = kindQuery;
                    Tick t0 = ctx.now();
                    auto shard = shards[rng.below(
                        static_cast<std::uint32_t>(shards.size()))];
                    auto answer =
                        co_await ctx.call(shard, std::move(query));
                    if (answer) {
                        _queryLat.record(
                            static_cast<double>(ctx.now() - t0));
                    }
                }
                ++clientsDone;
            });
    }
}

} // namespace nectar::workload
