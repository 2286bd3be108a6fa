/**
 * @file
 * serving_sweep: standalone load-sweep driver for the serving
 * subsystem (src/serving), the command-line face of E19.
 *
 * Steps offered load up a geometric ladder on a chosen fabric, runs
 * the open-loop RPC workload at each rung, prints the per-step
 * latency/goodput table, locates the saturation knee, and writes the
 * whole curve to a JSON file (BENCH_serving.json schema; default
 * serving_sweep.json).
 *
 * Usage:
 *   serving_sweep [--fabric single|FILE.topo] [--cabs N]
 *                 [--arrival poisson|bursty|hotspot|closed]
 *                 [--flows N] [--start RPS] [--growth X] [--steps N]
 *                 [--duration-ms MS] [--compute-us US] [--seed S]
 *                 [--out FILE.json]
 *
 * Exit status: 0 when the knee was located, 1 when the ladder never
 * saturated (raise --steps or --growth) or the JSON could not be
 * written, 2 on usage errors (a numeric flag must parse whole).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "serving/serving.hh"
#include "serving/sweep.hh"
#include "sim/parse.hh"

using namespace nectar;
using namespace nectar::serving;

namespace {

struct Options
{
    std::string fabric = "single";
    int cabs = 8;
    std::string arrival = "poisson";
    std::uint64_t flows = 1'000'000;
    double startRps = 50'000;
    double growth = 1.8;
    int steps = 6;
    double durationMs = 10;
    double computeUs = 20;
    std::uint64_t seed = 42;
    // Not BENCH_serving.json: a run from the repo root must not
    // overwrite the committed bench_serving result.
    std::string out = "serving_sweep.json";
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--fabric single|FILE.topo] [--cabs N]\n"
        "          [--arrival poisson|bursty|hotspot|closed]\n"
        "          [--flows N] [--start RPS] [--growth X] "
        "[--steps N]\n"
        "          [--duration-ms MS] [--compute-us US] [--seed S]\n"
        "          [--out FILE.json]\n",
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
        if (a == "--fabric")
            opt.fabric = value();
        else if (a == "--cabs")
            number(opt.cabs);
        else if (a == "--arrival")
            opt.arrival = value();
        else if (a == "--flows")
            number(opt.flows);
        else if (a == "--start")
            number(opt.startRps);
        else if (a == "--growth")
            number(opt.growth);
        else if (a == "--steps")
            number(opt.steps);
        else if (a == "--duration-ms")
            number(opt.durationMs);
        else if (a == "--compute-us")
            number(opt.computeUs);
        else if (a == "--seed")
            number(opt.seed);
        else if (a == "--out")
            opt.out = value();
        else
            usage(argv[0]);
    }
    if (opt.cabs < 2 || opt.steps < 1 || opt.growth <= 1.0)
        usage(argv[0]);
    return opt;
}

Arrival
arrivalOf(const std::string &name, const char *argv0)
{
    if (name == "poisson")
        return Arrival::poisson;
    if (name == "bursty")
        return Arrival::bursty;
    if (name == "hotspot")
        return Arrival::hotspot;
    if (name == "closed")
        return Arrival::closed;
    usage(argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    bool topoFile = opt.fabric.size() > 5 &&
                    opt.fabric.substr(opt.fabric.size() - 5) ==
                        ".topo";
    if (!topoFile && opt.fabric != "single")
        usage(argv[0]);

    SweepConfig cfg;
    cfg.fabric = topoFile ? opt.fabric : "single_hub";
    cfg.serving.arrival = arrivalOf(opt.arrival, argv[0]);
    cfg.serving.flows = opt.flows;
    cfg.serving.duration = static_cast<sim::Tick>(
        opt.durationMs * static_cast<double>(sim::ticks::ms));
    cfg.serving.serverCompute = static_cast<sim::Tick>(
        opt.computeUs * static_cast<double>(sim::ticks::us));
    cfg.serving.seed = opt.seed;
    cfg.startRps = opt.startRps;
    cfg.growth = opt.growth;
    cfg.steps = opt.steps;

    SystemBuilder build;
    if (topoFile) {
        build = [&opt](sim::EventQueue &eq) {
            return nectarine::NectarSystem::fromTopoFile(eq,
                                                         opt.fabric);
        };
    } else {
        build = [&opt](sim::EventQueue &eq) {
            return nectarine::NectarSystem::singleHub(eq, opt.cabs);
        };
    }

    SweepResult result = runSweep(build, cfg);

    std::printf("# serving sweep: fabric=%s arrival=%s flows=%llu "
                "seed=%llu\n",
                cfg.fabric.c_str(), opt.arrival.c_str(),
                static_cast<unsigned long long>(opt.flows),
                static_cast<unsigned long long>(opt.seed));
    std::printf("%12s %12s %10s %10s %10s %10s %8s\n", "offered_rps",
                "achieved", "p50_us", "p99_us", "p999_us", "MB/s",
                "shed");
    for (const SweepStep &st : result.steps) {
        const ServingReport &r = st.report;
        std::printf("%12.0f %12.0f %10.1f %10.1f %10.1f %10.2f "
                    "%8llu\n",
                    st.offeredRps, r.achievedRps, r.p50Ns / 1e3,
                    r.p99Ns / 1e3, r.p999Ns / 1e3, r.goodputMBs,
                    static_cast<unsigned long long>(r.shed));
    }
    if (result.kneeIndex >= 0)
        std::printf("saturation knee at step %d (%.0f rps offered)\n",
                    result.kneeIndex, result.kneeRps);
    else
        std::printf("no saturation knee found; raise --steps or "
                    "--growth\n");

    if (!writeServingJson(opt.out, {result})) {
        std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
        return 1;
    }
    std::printf("wrote %s\n", opt.out.c_str());
    return result.kneeIndex >= 0 ? 0 : 1;
}
