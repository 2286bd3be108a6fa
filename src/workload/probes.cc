#include "probes.hh"

namespace nectar::workload {

using nectarine::TaskContext;
using sim::Task;

PingPong::PingPong(nectarine::Nectarine &api, std::size_t siteA,
                   std::size_t siteB, const Config &config)
    : cfg(config)
{
    std::string suffix =
        cfg.label + "_" + std::to_string(api.taskCount());

    nectarine::TaskId echo = api.createTask(
        siteB, "echo_" + suffix,
        [this](TaskContext &ctx) -> Task<void> {
            for (int i = 0; i < cfg.iterations; ++i) {
                auto m = co_await ctx.receive();
                // Echo the payload straight back to the initiator.
                nectarine::TaskId back{
                    static_cast<transport::CabAddress>(
                        (m.view()[0] << 8) | m.view()[1]),
                    static_cast<std::uint16_t>(
                        (m.view()[2] << 8) | m.view()[3])};
                co_await ctx.send(back, m.takeView(),
                                  cfg.delivery);
            }
        });

    api.createTask(
        siteA, "ping_" + suffix,
        [this, echo](TaskContext &ctx) -> Task<void> {
            for (int i = 0; i < cfg.iterations; ++i) {
                std::vector<std::uint8_t> msg(
                    std::max<std::uint32_t>(cfg.messageBytes, 4), 0);
                msg[0] = static_cast<std::uint8_t>(ctx.id().cab >> 8);
                msg[1] = static_cast<std::uint8_t>(ctx.id().cab);
                msg[2] = static_cast<std::uint8_t>(ctx.id().index >> 8);
                msg[3] = static_cast<std::uint8_t>(ctx.id().index);
                Tick t0 = ctx.now();
                co_await ctx.send(echo, std::move(msg), cfg.delivery);
                co_await ctx.receive();
                _rtt.record(static_cast<double>(ctx.now() - t0));
            }
            _finished = true;
        });
}

StreamMeter::StreamMeter(nectarine::Nectarine &api, std::size_t siteA,
                         std::size_t siteB, const Config &config)
    : cfg(config)
{
    std::string suffix =
        cfg.label + "_" + std::to_string(api.taskCount());

    std::uint64_t messages =
        (cfg.totalBytes + cfg.messageBytes - 1) / cfg.messageBytes;

    nectarine::TaskId sink = api.createTask(
        siteB, "sink_" + suffix,
        [this, messages](TaskContext &ctx) -> Task<void> {
            for (std::uint64_t i = 0; i < messages; ++i) {
                auto m = co_await ctx.receive();
                delivered += m.size();
            }
            _end = ctx.now();
            _finished = true;
        });

    api.createTask(
        siteA, "src_" + suffix,
        [this, sink, messages](TaskContext &ctx) -> Task<void> {
            _start = ctx.now();
            std::uint64_t remaining = cfg.totalBytes;
            for (std::uint64_t i = 0; i < messages; ++i) {
                auto len = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(cfg.messageBytes,
                                            remaining));
                remaining -= len;
                std::vector<std::uint8_t> msg(len,
                                              std::uint8_t(i));
                co_await ctx.send(sink, std::move(msg),
                                  nectarine::Delivery::reliable);
            }
        });
}

} // namespace nectar::workload
