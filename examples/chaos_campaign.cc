/**
 * @file
 * Chaos campaign demo: a scripted adversary — burst loss on the
 * sender's uplink, a mid-stream inter-HUB link flap, and a receiver
 * CAB crash with restart — against a stream of reliable messages on
 * a two-HUB system with redundant links.
 *
 * The run is fully deterministic: rerunning with the same seed prints
 * a byte-identical campaign report.
 *
 *   $ ./chaos_campaign [seed]
 *
 * The seed is a decimal integer; anything else exits with status 2.
 */

#include <cstdio>
#include <cstdlib>

#include "fault/chaos.hh"
#include "nectarine/system.hh"
#include "sim/coro.hh"
#include "sim/parse.hh"

using namespace nectar;
using namespace nectar::fault;
using nectarine::NectarSystem;
using sim::Task;
using namespace sim::ticks;

int
main(int argc, char **argv)
{
    std::uint64_t seed = 1234;
    if (argc > 1 && !sim::parseWhole(argv[1], seed)) {
        std::fprintf(stderr, "%s: bad seed: '%s'\n", argv[0], argv[1]);
        return 2;
    }

    // Two HUBs joined by parallel links on ports 10 and 11 — the
    // redundancy gives the router somewhere to go when a link dies.
    sim::EventQueue eq;
    auto topo = std::make_unique<topo::Topology>(eq);
    topo->addHub();
    topo->addHub();
    topo->linkHubs(0, 10, 1, 10);
    topo->linkHubs(0, 11, 1, 11);
    auto sys = std::make_unique<NectarSystem>(eq, std::move(topo));
    sys->addCab(0, 0);
    sys->addCab(1, 0);
    auto &mb = sys->site(1).kernel->createMailbox("in", 1 << 20, 20);

    // The adversary's script.
    FaultPlan plan;
    plan.name = "demo";
    plan.seed = seed;
    plan.burstWindow(200 * us, 1200 * us, 0, Direction::toHub,
                     phys::GilbertElliott::forLossRate(0.05, 8.0));
    plan.hubLinkDown(2 * ms, 0, 10);
    plan.hubLinkUp(2 * ms + 600 * us, 0, 10);
    plan.cabCrash(5 * ms, 1);
    plan.cabRestart(7 * ms, 1);
    ChaosController chaos(*sys, plan);

    // The victim workload: 30 reliable 4 KB messages on one flow.
    const int n = 30;
    int okCount = 0;
    sim::spawn([](transport::Transport &tp, int n,
                  int &okCount) -> Task<void> {
        for (int i = 0; i < n; ++i) {
            std::vector<std::uint8_t> msg(4096,
                                          static_cast<std::uint8_t>(i));
            if (co_await tp.sendReliable(2, 20, std::move(msg)))
                ++okCount;
        }
    }(*sys->site(0).transport, n, okCount));
    eq.run();

    std::printf("%s", chaos.report().format().c_str());
    std::printf("sender outcome     %d/%d reported delivered\n",
                okCount, n);
    std::printf("receiver mailbox   %zu messages\n", mb.count());
    return 0;
}
