#include "sweep.hh"

#include <cstdio>

#include "sim/logging.hh"
#include "sim/report.hh"

namespace nectar::serving {

int
detectKnee(const std::vector<SweepStep> &steps, double kneeSlope,
           double minCompletion)
{
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const SweepStep &s = steps[i];
        if (s.offeredRps > 0 &&
            s.report.achievedRps / s.offeredRps < minCompletion)
            return static_cast<int>(i);
        if (i == 0)
            continue;
        const SweepStep &prev = steps[i - 1];
        if (prev.report.p99Ns <= 0 || prev.offeredRps <= 0)
            continue;
        double latGrowth =
            (s.report.p99Ns - prev.report.p99Ns) / prev.report.p99Ns;
        double loadGrowth =
            (s.offeredRps - prev.offeredRps) / prev.offeredRps;
        if (loadGrowth > 0 && latGrowth > kneeSlope * loadGrowth)
            return static_cast<int>(i);
    }
    return -1;
}

SweepResult
runSweep(const SystemBuilder &build, const SweepConfig &cfg)
{
    if (cfg.steps < 1)
        sim::fatal("runSweep: need at least one step");
    if (cfg.growth <= 1.0)
        sim::fatal("runSweep: growth must exceed 1");

    SweepResult result;
    result.fabric = cfg.fabric;
    result.arrival = cfg.serving.arrival;

    double offered = cfg.startRps;
    for (int i = 0; i < cfg.steps; ++i, offered *= cfg.growth) {
        sim::EventQueue eq;
        auto sys = build(eq);
        ServingConfig sc = cfg.serving;
        sc.offeredRps = offered;
        ServingWorkload w(*sys, sc);
        eq.run();
        result.steps.push_back(SweepStep{offered, w.report()});
    }
    result.kneeIndex =
        detectKnee(result.steps, cfg.kneeSlope, cfg.minCompletion);
    if (result.kneeIndex >= 0)
        result.kneeRps =
            result.steps[static_cast<std::size_t>(result.kneeIndex)]
                .offeredRps;
    return result;
}

bool
writeServingJson(const std::string &path,
                 const std::vector<SweepResult> &results)
{
    sim::Report report("serving");
    bool kneeAll = !results.empty();
    for (std::size_t s = 0; s < results.size(); ++s) {
        const SweepResult &r = results[s];
        kneeAll = kneeAll && r.kneeIndex >= 0;
        for (std::size_t i = 0; i < r.steps.size(); ++i) {
            const SweepStep &st = r.steps[i];
            const ServingReport &rep = st.report;
            char key[48];
            std::snprintf(key, sizeof key, "%06zu/%06zu", s, i);
            auto &row = report.record(
                key, {{"fabric", r.fabric},
                      {"arrival", arrivalName(r.arrival)}});
            row.metrics = {
                {"sweep", s},
                {"step", i},
                {"knee", static_cast<int>(i) == r.kneeIndex},
                {"offered_rps", st.offeredRps},
                {"achieved_rps", rep.achievedRps},
                {"goodput_MBs", rep.goodputMBs},
                {"p50_us", rep.p50Ns / 1e3},
                {"p99_us", rep.p99Ns / 1e3},
                {"p999_us", rep.p999Ns / 1e3},
                {"completed", rep.completed},
                {"failed", rep.failed},
                {"shed", rep.shed},
            };
        }
    }
    report.setFlag("knee_found_all", kneeAll);
    return report.write(path);
}

} // namespace nectar::serving
