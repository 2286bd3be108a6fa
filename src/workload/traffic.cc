#include "traffic.hh"

#include <cstdint>

namespace nectar::workload {

using nectarine::TaskContext;
using sim::Task;

namespace {

/** splitmix64, to whiten adjacent per-site seeds apart. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

void
putTick(std::vector<std::uint8_t> &v, Tick t)
{
    for (int i = 0; i < 8; ++i)
        v[i] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(t) >> (56 - 8 * i));
}

Tick
getTick(const sim::PacketView &v)
{
    std::uint64_t t = 0;
    for (int i = 0; i < 8; ++i)
        t = (t << 8) | v[i];
    return static_cast<Tick>(t);
}

} // namespace

RandomTraffic::RandomTraffic(nectarine::Nectarine &api,
                             const Config &config)
    : cfg(config)
{
    const std::size_t n = api.system().siteCount();
    const std::string run = std::to_string(api.taskCount());
    auto senders_left = std::make_shared<int>(static_cast<int>(n));

    receivers.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        receivers.push_back(api.createTask(
            i, "trx" + run + "_" + std::to_string(i),
            [this](TaskContext &ctx) -> Task<void> {
                for (;;) {
                    auto m = co_await ctx.receive();
                    if (m.size() < 8)
                        break; // poison: traffic over
                    ++_delivered;
                    _latency.record(static_cast<double>(
                        ctx.now() - getTick(m.view())));
                }
            }));
    }

    for (std::size_t i = 0; i < n; ++i) {
        api.createTask(
            i, "ttx" + run + "_" + std::to_string(i),
            [this, i, n, senders_left](TaskContext &ctx) -> Task<void> {
                // An independent stream per site: seed+i alone leaves
                // PCG states a fixed stride apart (gap draws
                // correlate across sites); whitening the seed and
                // picking a distinct stream decorrelates them.
                sim::Random rng(mix64(cfg.seed ^ (i + 1)),
                                0x74726166ull + 2 * i + 1);
                for (int k = 0; k < cfg.messagesPerSite; ++k) {
                    co_await ctx.sleepFor(static_cast<Tick>(
                        rng.exponential(static_cast<double>(
                            cfg.meanGap))));
                    std::size_t dst =
                        (i + 1 + rng.below(static_cast<std::uint32_t>(
                             n - 1))) % n;
                    std::vector<std::uint8_t> msg(
                        std::max<std::uint32_t>(cfg.messageBytes, 8),
                        0);
                    putTick(msg, ctx.now());
                    ++_sent;
                    co_await ctx.send(receivers[dst], std::move(msg),
                                      nectarine::Delivery::datagram);
                }
                if (--*senders_left == 0) {
                    // Let stragglers drain, then poison the receivers.
                    co_await ctx.sleepFor(5 * ms);
                    for (auto rx : receivers) {
                        std::vector<std::uint8_t> poison(1, 0);
                        co_await ctx.send(rx, std::move(poison),
                                          nectarine::Delivery::reliable);
                    }
                }
            });
    }
}

} // namespace nectar::workload
