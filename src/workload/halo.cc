#include "halo.hh"

#include <map>

#include "sim/logging.hh"

namespace nectar::workload {

using nectarine::TaskContext;
using nectarine::TaskId;
using sim::Task;

HaloExchange::HaloExchange(nectarine::Nectarine &api,
                           std::vector<std::size_t> sites,
                           const Config &config)
    : cfg(config)
{
    if (sites.size() !=
        static_cast<std::size_t>(cfg.rows) * cfg.cols)
        sim::fatal("HaloExchange: sites must cover the grid");

    const std::string run = std::to_string(api.taskCount());
    auto cells = std::make_shared<std::vector<TaskId>>();

    for (int r = 0; r < cfg.rows; ++r) {
        for (int c = 0; c < cfg.cols; ++c) {
            int cell = r * cfg.cols + c;
            TaskId id = api.createTask(
                sites[cell],
                "halo" + run + "_" + std::to_string(cell),
                [this, r, c, cells](TaskContext &ctx) -> Task<void> {
                    // 4-neighbourhood with boundary clipping.
                    std::vector<int> neighbors;
                    if (r > 0)
                        neighbors.push_back((r - 1) * cfg.cols + c);
                    if (r + 1 < cfg.rows)
                        neighbors.push_back((r + 1) * cfg.cols + c);
                    if (c > 0)
                        neighbors.push_back(r * cfg.cols + c - 1);
                    if (c + 1 < cfg.cols)
                        neighbors.push_back(r * cfg.cols + c + 1);

                    std::map<std::uint32_t, int> arrived;
                    for (int it = 0; it < cfg.iterations; ++it) {
                        Tick t0 = ctx.now();
                        for (int n : neighbors) {
                            std::vector<std::uint8_t> halo(
                                std::max<std::uint32_t>(
                                    cfg.haloBytes, 4),
                                0);
                            halo[0] = static_cast<std::uint8_t>(
                                it >> 8);
                            halo[1] = static_cast<std::uint8_t>(it);
                            co_await ctx.send(
                                (*cells)[n], std::move(halo),
                                nectarine::Delivery::reliable);
                        }
                        // Wait for this iteration's halos; a fast
                        // neighbour may already be one iteration
                        // ahead, so credit arrivals per iteration.
                        auto want =
                            static_cast<std::uint32_t>(it);
                        while (arrived[want] <
                               static_cast<int>(neighbors.size())) {
                            auto m = co_await ctx.receive();
                            std::uint32_t msg_it =
                                (static_cast<std::uint32_t>(
                                     m.view()[0])
                                 << 8) |
                                m.view()[1];
                            ++arrived[msg_it];
                        }
                        arrived.erase(want);
                        co_await ctx.compute(
                            cfg.computePerIteration);
                        _iterTime.record(
                            static_cast<double>(ctx.now() - t0));
                    }
                    ++*done;
                });
            cells->push_back(id);
        }
    }
}

} // namespace nectar::workload
