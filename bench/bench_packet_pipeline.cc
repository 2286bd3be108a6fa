/**
 * @file
 * E9 — the packet pipeline for large messages (Section 6.2.2).
 *
 * Paper: "When sending large messages between nodes, it is important
 * to overlap packet transfers over the Nectar-net and over the VME
 * bus at each end, in order to reduce latency and increase
 * throughput.  The CABs at the sender and receiver sides are well
 * suited for setting up this 'packet pipeline'."
 *
 * Method: move a large message node -> CAB -> net -> CAB -> node two
 * ways: (a) store-and-forward (the full message crosses VME before
 * any network send) and (b) pipelined (per-packet overlap of the VME
 * and fiber stages).
 */

#include <benchmark/benchmark.h>

#include "nectarine/system.hh"
#include "node/node.hh"
#include "sim/coro.hh"
#include "sim/stats.hh"

using namespace nectar;
using nectarine::NectarSystem;
using sim::Task;
using sim::Tick;
using namespace sim::ticks;

namespace {

struct TransferResult
{
    double ns = 0;              ///< Total latency.
    std::uint64_t copiedBytes = 0; ///< Payload bytes deep-copied.
    std::uint64_t allocs = 0;   ///< Payload buffer allocations.
    std::uint64_t messages = 0; ///< Messages delivered at the sink.
};

/** Node-to-node large transfer; returns latency + copy accounting. */
TransferResult
transferNs(std::uint32_t totalBytes, bool pipelined)
{
    sim::copyStats().reset();
    sim::EventQueue eq;
    auto sys = NectarSystem::singleHub(eq, 2);
    node::Node src(eq, "src"), dst(eq, "dst");
    auto &mb = sys->site(1).kernel->createMailbox("in", 2 << 20, 10);

    const std::uint32_t chunk = 896; // one MTU per pipeline stage
    Tick done = -1;

    // Receiver: drain packets from the mailbox and move them over the
    // destination VME; with pipelining this overlaps the network.
    sim::spawn([](sim::EventQueue &eq, cabos::Mailbox &mb,
                  node::Node &dst, std::uint32_t total,
                  Tick &done) -> Task<void> {
        std::uint32_t got = 0;
        while (got < total) {
            auto m = co_await mb.get();
            got += static_cast<std::uint32_t>(m.size());
            co_await dst.vme().transferAwait(
                static_cast<std::uint32_t>(m.size()));
        }
        done = eq.now();
    }(eq, mb, dst, totalBytes, done));

    sim::spawn([](sim::EventQueue &eq, node::Node &src,
                  transport::Transport &tp, std::uint32_t total,
                  std::uint32_t chunk, bool pipelined) -> Task<void> {
        if (!pipelined) {
            // Store-and-forward: whole message over VME first, then
            // one big reliable send.
            co_await src.vme().transferAwait(total);
            co_await tp.sendReliable(
                2, 10, std::vector<std::uint8_t>(total, 1));
            co_return;
        }
        // Pipelined: VME transfer of chunk k+1 overlaps the network
        // send of chunk k ("select an optimal packet size,
        // synchronize the various DMAs").
        std::uint32_t sent = 0;
        sim::Channel<bool> window(eq);
        int inflight = 0;
        while (sent < total) {
            std::uint32_t n = std::min(chunk, total - sent);
            sent += n;
            co_await src.vme().transferAwait(n);
            // Launch the network send without waiting for its acks.
            ++inflight;
            sim::spawn([](transport::Transport &tp, std::uint32_t n,
                          sim::Channel<bool> &window,
                          int &inflight) -> Task<void> {
                co_await tp.sendReliable(
                    2, 10, std::vector<std::uint8_t>(n, 1));
                --inflight;
                window.push(true);
            }(tp, n, window, inflight));
            // Bound the pipeline depth to the CAB buffer budget.
            while (inflight >= 8)
                co_await window.pop();
        }
        while (inflight > 0)
            co_await window.pop();
    }(eq, src, *sys->site(0).transport, totalBytes, chunk, pipelined));

    eq.run();
    TransferResult r;
    r.ns = static_cast<double>(done);
    r.copiedBytes = sim::copyStats().bytesCopied;
    r.allocs = sim::copyStats().bufferAllocs;
    r.messages =
        sys->site(1).transport->stats().messagesDelivered.value();
    return r;
}

} // namespace

static void
E9_LargeMessage(benchmark::State &state)
{
    auto bytes = static_cast<std::uint32_t>(state.range(0));
    bool pipelined = state.range(1) != 0;
    TransferResult r;
    for (auto _ : state)
        r = transferNs(bytes, pipelined);
    state.counters["latency_ms"] = r.ns / 1e6;
    state.counters["throughput_MBs"] =
        static_cast<double>(bytes) * 1000.0 / r.ns;
    double msgs = r.messages ? static_cast<double>(r.messages) : 1.0;
    state.counters["copied_bytes_per_msg"] =
        static_cast<double>(r.copiedBytes) / msgs;
    state.counters["allocs_per_msg"] =
        static_cast<double>(r.allocs) / msgs;
}
BENCHMARK(E9_LargeMessage)
    ->ArgsProduct({{64 * 1024, 256 * 1024, 1024 * 1024}, {0, 1}})
    ->ArgNames({"bytes", "pipelined"});

BENCHMARK_MAIN();
