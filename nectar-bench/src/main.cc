/**
 * @file
 * nectar_bench: runs one workload repeatedly for a fixed host time and
 * prints one JSON line per repetition (host phase times, simulated
 * outcome, per-layer counters).  run.py builds this program, reduces the
 * repetitions to metrics and checks the outcomes; see README.md.
 *
 *   nectar_bench --workload <name> --seed <n> --seconds <s>
 *                --trace <0|1> --fabric <fabric16.topo>
 *                [--trace-out <file.json>]
 *
 * Each repetition is preceded by one timed pass of the reference loop
 * (refloop.cc), which run.py uses to scale the repetition's host times.
 * With --trace 1 the repetitions alternate untraced and traced.  The
 * traced repetitions' host spans, and the first one's message spans,
 * are written to --trace-out in Chrome trace-event JSON.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench.hh"

using namespace nectarbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string fabric;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "nectar_bench: %s\nusage: nectar_bench --workload "
                 "<name> --seed <n> --seconds <s> --trace <0|1> "
                 "--fabric <file.topo> [--trace-out <file.json>]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0' || v.empty())
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || v.empty() || o.seconds <= 0)
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (flag == "--fabric") {
            o.fabric = v;
        } else if (flag == "--trace-out") {
            o.traceOut = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (o.fabric.empty())
        usage("--fabric is required");
    return o;
}

/** Minimal JSON object writer: keys in insertion order. */
class Json
{
  public:
    Json &
    num(const std::string &k, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(k, buf);
    }

    Json &
    u64(const std::string &k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }

    Json &
    str(const std::string &k, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c;
        }
        return raw(k, q + "\"");
    }

    Json &
    raw(const std::string &k, const std::string &v)
    {
        out += (out.empty() ? "{\"" : ", \"") + k + "\": " + v;
        return *this;
    }

    std::string text() const { return out.empty() ? "{}" : out + "}"; }

  private:
    std::string out;
};

std::string
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
repLine(int index, bool traced, double refLoop, const Recorder &rec,
        const RepResult &r)
{
    Json host;
    host.num("ref_loop", refLoop);
    for (const auto &[name, secs] : rec.phases())
        host.num(name, secs);

    Json sim;
    sim.num("p50_us", r.p50Us)
        .num("p95_us", r.p95Us)
        .u64("latency_samples", r.latencySamples)
        .num("rate_per_s", r.ratePerS)
        .num("makespan_ms", r.makespanMs)
        .u64("ops_attempted", r.opsAttempted)
        .u64("ops_ok", r.opsOk)
        .u64("events", r.events)
        .str("report_fp", std::to_string(r.reportFp))
        .str("latency_fp", std::to_string(r.latencyFp));
    if (!r.steps.empty()) {
        std::string rungs = "[";
        for (const auto &st : r.steps) {
            Json rung;
            rung.num("offered_rps", st.offeredRps)
                .num("achieved_rps", st.report.achievedRps)
                .num("p50_us", st.report.p50Ns / 1e3)
                .num("p99_us", st.report.p99Ns / 1e3)
                .u64("completed", st.report.completed)
                .u64("failed", st.report.failed)
                .u64("shed", st.report.shed);
            rungs += (rungs.size() > 1 ? ", " : "") + rung.text();
        }
        sim.raw("rungs", rungs + "]").num("knee_index", r.kneeIndex);
    }

    Json layers;
    for (const auto &[name, v] : r.layers.all())
        layers.num(name, v);

    Json line;
    line.str("kind", "rep")
        .u64("index", static_cast<std::uint64_t>(index))
        .raw("traced", traced ? "true" : "false")
        .raw("host", host.text())
        .raw("sim", sim.text())
        .raw("layers", layers.text())
        .str("error", r.error);
    if (traced) {
        std::vector<nectar::sim::Tick> oneWay;
        for (const MessageSpan &m : r.messages)
            oneWay.push_back(m.delivered - m.sent);
        std::sort(oneWay.begin(), oneWay.end());
        const double p50 =
            oneWay.empty()
                ? 0.0
                : static_cast<double>(oneWay[(oneWay.size() - 1) / 2]);
        Json trace;
        trace.u64("spans", rec.spans().size())
            .u64("message_spans", r.messages.size())
            .num("deliver_p50_us", p50 / 1e3);
        line.raw("trace", trace.text());
    }
    return line.text();
}

/** Chrome trace-event JSON: host spans on pid 1 (wall microseconds),
 *  message spans on pid 2 (simulated microseconds, one row per
 *  sending CAB). */
void
writeTrace(const std::string &file, const Options &o,
           const std::vector<std::vector<Span>> &hostSpans,
           const std::vector<MessageSpan> &messages)
{
    std::ofstream out(file);
    out << "{\"otherData\": {\"workload\": \"" << o.workload
        << "\", \"seed\": " << o.seed << "},\n\"traceEvents\": [\n";
    bool first = true;
    const auto sep = [&] {
        out << (first ? "" : ",\n");
        first = false;
    };
    for (std::size_t rep = 0; rep < hostSpans.size(); ++rep) {
        const std::vector<Span> &spans = hostSpans[rep];
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            sep();
            char buf[96];
            std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f",
                          s.startUs, s.endUs - s.startUs);
            out << "{\"name\": \"" << s.name
                << "\", \"cat\": \"host\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": "
                << rep << ", \"ts\": " << buf
                << ", \"args\": {\"id\": " << i
                << ", \"parent\": " << s.parent << "}}";
        }
    }
    for (const MessageSpan &m : messages) {
        sep();
        char buf[96];
        std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f",
                      static_cast<double>(m.sent) / 1e3,
                      static_cast<double>(m.delivered - m.sent) / 1e3);
        out << "{\"name\": \"msg\", \"cat\": \"sim\", \"ph\": \"X\", "
               "\"pid\": 2, \"tid\": "
            << m.src << ", \"ts\": " << buf
            << ", \"args\": {\"dst\": " << m.dst
            << ", \"msg_id\": " << m.msgId << "}}";
    }
    out << "\n]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);

    // Keep every freed page in the process: no mmap'd blocks, no heap
    // trimming.  The untimed warm-up faults in the heap once and the
    // timed builds reuse it.  Left to glibc, large arrays are mapped
    // afresh per build, and on a VM the cost of faulting them in fell
    // 5x over minutes of one process (fabric16 build 1.5 s -> 0.3 s),
    // which measured the host's memory, not the simulator.
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

    auto workload = makeWorkload(o.workload, o.seed, o.fabric);
    if (!workload)
        usage(("unknown workload '" + o.workload + "'").c_str());

    Json host;
    host.str("kind", "host")
        .str("compiler", compilerName())
        .str("build_type", NECTAR_BENCH_BUILD_TYPE)
        .str("workload", o.workload)
        .u64("seed", o.seed);
    std::printf("%s\n", host.text().c_str());
    std::fflush(stdout);

    int failures = 0;
    try {
        workload->warmUp();
        referenceLoopSeconds();

        // Both kinds of repetition get at least three samples.
        const int minReps = o.trace ? 6 : 3;
        const Clock::time_point origin = Clock::now();
        std::vector<std::vector<Span>> keptSpans;
        std::vector<MessageSpan> keptMessages;
        for (int i = 0;
             i < minReps ||
             std::chrono::duration<double>(Clock::now() - origin)
                     .count() < o.seconds;
             ++i) {
            const bool traced = o.trace && i % 2 == 1;
            // The host's speed just before this repetition.
            const double refLoop = referenceLoopSeconds();
            Recorder rec(traced, origin);
            RepResult r = workload->run(rec);
            std::printf("%s\n",
                        repLine(i, traced, refLoop, rec, r).c_str());
            std::fflush(stdout);
            if (!r.error.empty())
                ++failures;
            if (traced) {
                keptSpans.push_back(rec.spans());
                if (keptMessages.empty())
                    keptMessages = std::move(r.messages);
            }
        }
        if (o.trace && !o.traceOut.empty())
            writeTrace(o.traceOut, o, keptSpans, keptMessages);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nectar_bench: %s\n", e.what());
        return 1;
    }

    Json end;
    end.str("kind", "end").num("peak_rss_mb", peakRssMb());
    std::printf("%s\n", end.text().c_str());
    return failures ? 1 : 0;
}
