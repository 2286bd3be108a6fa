/**
 * @file
 * Shared types of the nectar_bench program: host-time spans around the
 * public calls the benchmark makes, per-layer counter totals, and the
 * outcome of one repetition of a workload.
 *
 * The benchmark measures every layer from outside.  It times the
 * public calls (topo::loadTopologyFile, NectarSystem::fromDescription,
 * workload constructors, EventQueue::run, destructors) and reads each
 * layer's public counters once a run has drained.  Host time spent
 * inside EventQueue::run is not split by layer.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serving/sweep.hh"
#include "sim/types.hh"
#include "transport/header.hh"

namespace nectarbench {

using Clock = std::chrono::steady_clock;

/** One host-time span: a public call the benchmark made. */
struct Span
{
    std::string name;
    double startUs = 0; ///< Microseconds since the process origin.
    double endUs = 0;
    int parent = -1;    ///< Index into the same span list, or -1.
};

/**
 * Host-time accounting for one repetition.  Seconds per phase name are
 * always summed (they feed setup_s and the per-layer host times); the
 * span list is kept only on a traced repetition.
 */
class Recorder
{
  public:
    Recorder(bool tracing, Clock::time_point origin)
        : _tracing(tracing), origin(origin)
    {}

    bool tracing() const { return _tracing; }

    /** Seconds summed per phase name over the repetition. */
    const std::map<std::string, double> &phases() const
    {
        return _phases;
    }

    const std::vector<Span> &spans() const { return _spans; }

  private:
    friend class Scope;

    bool _tracing;
    Clock::time_point origin;
    std::map<std::string, double> _phases;
    std::vector<Span> _spans;
    std::vector<int> open; ///< Spans not yet closed, innermost last.
};

/** Times the enclosing block as phase @p name of a Recorder. */
class Scope
{
  public:
    Scope(Recorder &rec, const char *name);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Recorder &rec;
    const char *name;
    Clock::time_point start;
    int index = -1;
};

/** A simulated-time send -> deliver span of one message. */
struct MessageSpan
{
    nectar::transport::CabAddress src = 0;
    nectar::transport::CabAddress dst = 0;
    std::uint32_t msgId = 0;
    nectar::sim::Tick sent = 0;
    nectar::sim::Tick delivered = 0;
};

/**
 * Per-layer counters of one repetition, keyed by metric name.  Counts
 * are summed over sites, HUBs and the sweep's rungs; busy fractions
 * take the maximum over rungs.
 */
class Layers
{
  public:
    void add(const std::string &name, double v) { values[name] += v; }
    void max(const std::string &name, double v);

    const std::map<std::string, double> &all() const { return values; }

  private:
    std::map<std::string, double> values;
};

/**
 * Add the per-layer counters of @p sys, whose run drained at simulated
 * time @p end, into @p out.
 */
void collectLayers(nectar::nectarine::NectarSystem &sys,
                   nectar::sim::Tick end, Layers &out);

/** Heap bytes this process has allocated and not freed, in MiB. */
double heapInUseMb();

/**
 * Run the fixed reference loop once (see refloop.cc).
 * @return its host time in seconds: the host's speed right now.
 */
double referenceLoopSeconds();

/** What one repetition of a workload produced. */
struct RepResult
{
    // Simulated outcome: a pure function of the seed, so every
    // repetition (traced or not) must reproduce it bit-for-bit.
    double p50Us = 0;
    double p95Us = 0; ///< The tail: steady across seeds, unlike p99.
    std::uint64_t latencySamples = 0;
    double ratePerS = 0;
    double makespanMs = 0;
    std::uint64_t opsAttempted = 0;
    std::uint64_t opsOk = 0;
    std::uint64_t events = 0;
    std::uint64_t reportFp = 0;   ///< Workload report fingerprint.
    std::uint64_t latencyFp = 0;  ///< Latency-histogram digest.

    /** Non-empty when a correctness gate failed. */
    std::string error;

    Layers layers;
    /** Send -> deliver spans (traced pingpong / allreduce reps). */
    std::vector<MessageSpan> messages;
    /** The sweep's measured ladder (empty for other workloads). */
    std::vector<nectar::serving::SweepStep> steps;
    int kneeIndex = -1;
};

/** A benchmark workload, built once per process from its seed. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Untimed first pass that lets caches fill and lazy set-up finish.
     * The sweep also runs serving::runSweep here, to check later that
     * the benchmark's own rung loop reproduces it.
     */
    virtual void warmUp() = 0;

    /** One measured repetition: build, run, read counters, tear down. */
    virtual RepResult run(Recorder &rec) = 0;
};

/**
 * @param name sweep-fabric16, pingpong-star or allreduce-fabric16.
 * @param fabricPath The fabric16 .topo file.
 * @return nullptr for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &fabricPath);

} // namespace nectarbench
