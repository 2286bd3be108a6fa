/**
 * @file
 * Statistics collection: counters, sample statistics, histograms.
 *
 * These mirror what the Nectar prototype's instrumentation board
 * (Section 4.1) records in hardware: event counts and latency
 * distributions for crossbar and controller activity.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "types.hh"

namespace nectar::sim {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    /** Increment by @p n. */
    void add(std::uint64_t n = 1) { _value += n; }
    /** Current count. */
    std::uint64_t value() const { return _value; }
    /** Reset to zero. */
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * Running sample statistics (count/mean/min/max/stddev) using
 * Welford's online algorithm; O(1) memory.
 */
class SampleStats
{
  public:
    /** Record one sample. */
    void record(double x);

    std::uint64_t count() const { return n; }
    double mean() const { return n ? _mean : 0.0; }
    double min() const { return n ? _min : 0.0; }
    double max() const { return n ? _max : 0.0; }
    /** Population variance. */
    double variance() const;
    double stddev() const;
    double sum() const { return _sum; }

    void reset() { *this = SampleStats(); }

  private:
    std::uint64_t n = 0;
    double _mean = 0.0;
    double m2 = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    double _sum = 0.0;
};

/**
 * An HDR-style log-bucketed histogram: fixed memory regardless of
 * sample count, mergeable, with bounded relative quantile error.
 *
 * Values below 2^sigBits land in exact unit-width buckets; above
 * that, each power-of-two range splits into 2^sigBits linear
 * sub-buckets, so a bucket's width never exceeds 2^-sigBits of its
 * values and a quantile's midpoint representative is within
 * relativeError() = 2^-(sigBits+1) of the true sample.  Exact min,
 * max, and sum are tracked on the side, so mean() is exact and the
 * 0th/100th percentiles return the true extremes.  Negative samples
 * count in an underflow bucket, samples beyond maxTrackable in an
 * overflow bucket; both are represented by the exact min/max in
 * quantile queries.
 *
 * Bucket counts grow lazily toward a hard cap of about
 * (63 - sigBits) * 2^sigBits entries (~56 KB at the default
 * resolution) — recording a million samples costs the same memory
 * as recording ten.
 */
class Histogram
{
  public:
    /** @param sigBits Sub-bucket resolution bits, in [0, 16]. */
    explicit Histogram(int sigBits = 7);

    /** Record one sample (nearest-integer bucketing). */
    void record(double x);

    std::uint64_t count() const { return n; }

    /**
     * Quantile by nearest-rank over the bucket counts; the answer is
     * within relativeError() of the exact nearest-rank sample.
     * @param p In [0, 100].
     */
    double percentile(double p) const;

    double median() const { return percentile(50.0); }

    /** Exact mean (sum and count are tracked exactly). */
    double mean() const;

    double min() const { return n ? _min : 0.0; }
    double max() const { return n ? _max : 0.0; }
    double sum() const { return _sum; }

    /** Samples recorded below zero. */
    std::uint64_t underflow() const { return nUnder; }
    /** Samples recorded beyond maxTrackable. */
    std::uint64_t overflow() const { return nOver; }

    /** Largest value stored in a regular bucket. */
    static constexpr double maxTrackable =
        static_cast<double>(std::uint64_t{1} << 62);

    /** Bound on |percentile(p) - exact| / exact for tracked values. */
    double
    relativeError() const
    {
        return 1.0 / static_cast<double>(std::uint64_t{2} << sig);
    }

    /**
     * Fold another histogram's counts into this one.  Bucket-exact:
     * merging is associative and commutative, and any merge order
     * reports identical quantiles.  Both sides must share sigBits.
     */
    void merge(const Histogram &other);

    int sigBits() const { return sig; }

    /** Buckets allocated so far (memory audit; structurally capped). */
    std::size_t bucketCount() const { return buckets.size(); }

    void reset();

  private:
    std::size_t indexOf(std::uint64_t v) const;
    double representative(std::size_t index) const;

    int sig;
    std::vector<std::uint64_t> buckets; ///< Grown lazily, bounded.
    std::uint64_t n = 0;
    std::uint64_t nUnder = 0;
    std::uint64_t nOver = 0;
    double _min = 0.0;
    double _max = 0.0;
    double _sum = 0.0;
};

/**
 * Deterministic accounting of deep copies on the packet path.
 *
 * The Nectar hardware exists to keep payload bytes from being copied
 * between protocol layers (DMA, hardware checksum, mailbox delivery);
 * these counters make the simulator's own copy behaviour measurable.
 * Byte reads of header fields are "register reads" and are not
 * counted; bulk materialization of payload bytes (PacketView::
 * toVector / copyTo, or explicitly instrumented vector copies) is.
 *
 * The counters are global and advance in simulation order, so two
 * same-seed runs produce identical values.
 */
struct CopyStats
{
    std::uint64_t bytesCopied = 0;  ///< Payload bytes deep-copied.
    std::uint64_t copyOps = 0;      ///< Individual copy operations.
    std::uint64_t bufferAllocs = 0; ///< Payload buffer allocations.

    void
    reset()
    {
        *this = CopyStats{};
    }
};

/** The process-wide copy-accounting counters. */
CopyStats &copyStats();

/** Record one deep copy of @p bytes payload bytes. */
inline void
accountCopy(std::size_t bytes)
{
    copyStats().bytesCopied += bytes;
    copyStats().copyOps += 1;
}

/** Record one payload-buffer allocation. */
inline void
accountAlloc()
{
    copyStats().bufferAllocs += 1;
}

} // namespace nectar::sim
