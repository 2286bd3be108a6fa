/**
 * @file
 * chaos_fuzz: randomized fault-plan fuzzing driver.
 *
 * Runs N generated seeds through the standard fuzz harness
 * (fault::runCase), checking every campaign against the
 * DeliveryOracle.  On a failing seed the plan is minimized with the
 * delta-debugging shrinker and written to a repro file that replays
 * the failure deterministically (`--replay` reruns such a file).
 *
 * Usage:
 *   chaos_fuzz [--seeds N] [--seed0 S] [--out DIR]
 *              [--intensity X] [--inject-bug] [--replay FILE]
 *              [--fabric mesh|torus|fattree|FILE.topo]
 *              [--serving N]
 *
 * --fabric picks the harness system: the named generator at the
 * standard 2x2x2 size, or any .topo fabric file (a path ending in
 * .topo), so the same seed sweep can exercise inter-HUB trunk faults
 * on irregular multi-HUB fabrics.
 *
 * --serving N adds the serving-load scenario: N open-loop RPC
 * arrivals per site (src/serving) in flight while the oracle judges
 * the ledgered traffic and the drain.
 *
 * The summary line ends with a digest of every seed's behaviour
 * (fault::FuzzResult::digest, folded in seed order): two builds that
 * print the same digest ran the same simulations, fault for fault.
 *
 * Exit status: 0 when every seed passed, 1 on any oracle failure,
 * 2 on usage errors (a numeric flag must parse whole).
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/fuzz.hh"
#include "fault/generate.hh"
#include "fault/planio.hh"
#include "fault/shrink.hh"
#include "sim/digest.hh"
#include "sim/parse.hh"

using namespace nectar;

namespace {

struct Options
{
    int seeds = 20;
    std::uint64_t seed0 = 1;
    std::string outDir = ".";
    double intensity = 1.0;
    bool injectBug = false;
    std::string replayFile;
    std::string fabric = "mesh";
    int serving = 0;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--seeds N] [--seed0 S] [--out DIR] "
                 "[--intensity X] [--inject-bug] [--replay FILE] "
                 "[--fabric mesh|torus|fattree|FILE.topo] "
                 "[--serving N]\n",
                 argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto number = [&](auto &out) {
            const char *text = value();
            if (!sim::parseWhole(text, out)) {
                std::fprintf(stderr, "%s: bad value for %s: '%s'\n",
                             argv[0], a.c_str(), text);
                std::exit(2);
            }
        };
        if (a == "--seeds")
            number(opt.seeds);
        else if (a == "--seed0")
            number(opt.seed0);
        else if (a == "--out")
            opt.outDir = value();
        else if (a == "--intensity")
            number(opt.intensity);
        else if (a == "--inject-bug")
            opt.injectBug = true;
        else if (a == "--replay")
            opt.replayFile = value();
        else if (a == "--fabric")
            opt.fabric = value();
        else if (a == "--serving")
            number(opt.serving);
        else
            usage(argv[0]);
    }
    if (opt.seeds < 1 && opt.replayFile.empty())
        usage(argv[0]);
    return opt;
}

void
printViolations(const fault::FuzzResult &res)
{
    for (const auto &v : res.violations)
        std::printf("    violation: %s\n", v.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    fault::FuzzConfig fcfg;
    fcfg.injectDeliveryBug = opt.injectBug;
    fcfg.servingArrivalsPerSite = opt.serving;
    if (opt.fabric == "mesh")
        fcfg.fabric = fault::FuzzFabric::mesh;
    else if (opt.fabric == "torus")
        fcfg.fabric = fault::FuzzFabric::torus;
    else if (opt.fabric == "fattree")
        fcfg.fabric = fault::FuzzFabric::fattree;
    else if (opt.fabric.size() > 5 &&
             opt.fabric.substr(opt.fabric.size() - 5) == ".topo") {
        fcfg.fabric = fault::FuzzFabric::file;
        fcfg.topoFile = opt.fabric;
    } else {
        usage(argv[0]);
    }

    if (!opt.replayFile.empty()) {
        // Replay a saved repro file end to end.
        fault::FaultPlan plan = fault::loadPlan(opt.replayFile);
        auto res = fault::runCase(plan, fcfg);
        std::printf("replay %s: %s\n  %s\n", opt.replayFile.c_str(),
                    res.passed ? "PASS" : "FAIL",
                    res.oracleSummary.c_str());
        printViolations(res);
        return res.passed ? 0 : 1;
    }

    fault::GeneratorConfig gcfg;
    gcfg.intensity = opt.intensity;
    fault::PlanGenerator gen(fault::harnessShape(fcfg), gcfg);

    int failures = 0;
    std::uint64_t shrunkEvents = 0, shrinkRuns = 0;
    sim::Digest digest;
    for (int i = 0; i < opt.seeds; ++i) {
        std::uint64_t seed = opt.seed0 + static_cast<std::uint64_t>(i);
        fault::FaultPlan plan = gen.generate(seed);
        auto res = fault::runCase(plan, fcfg);
        digest.mix(res.digest);
        if (res.passed)
            continue;

        ++failures;
        // Repro files must be writable even on a fresh checkout (CI
        // points --out at a directory that does not exist yet).
        std::error_code ec;
        std::filesystem::create_directories(opt.outDir, ec);
        std::printf("seed %llu FAILED (%zu violations, plan %zu "
                    "events)\n",
                    static_cast<unsigned long long>(seed),
                    res.violations.size(), plan.events.size());
        printViolations(res);

        auto shrunk = fault::shrinkPlan(plan, [&](const auto &p) {
            return !fault::runCase(p, fcfg).passed;
        });
        shrunkEvents += shrunk.plan.events.size();
        shrinkRuns += static_cast<std::uint64_t>(shrunk.runs);

        std::string path = opt.outDir + "/repro-seed" +
                           std::to_string(seed) + ".plan";
        fault::savePlan(shrunk.plan, path);
        std::printf("  shrunk to %zu events in %d runs%s -> %s\n",
                    shrunk.plan.events.size(), shrunk.runs,
                    shrunk.oneMinimal ? " (1-minimal)" : "",
                    path.c_str());
    }

    std::printf("chaos_fuzz: %d seeds, %d failures", opt.seeds,
                failures);
    if (failures)
        std::printf(", mean shrunk plan %.1f events, %llu shrink runs",
                    static_cast<double>(shrunkEvents) / failures,
                    static_cast<unsigned long long>(shrinkRuns));
    std::printf(", digest %016llx\n",
                static_cast<unsigned long long>(digest.value()));
    return failures ? 1 : 0;
}
