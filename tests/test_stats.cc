/**
 * @file
 * Unit tests for statistics primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

using namespace nectar::sim;

TEST(Counter, StartsAtZeroAndAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(9);
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SampleStats, EmptyIsZero)
{
    SampleStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleStats, SingleSample)
{
    SampleStats s;
    s.record(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 42.0);
    EXPECT_EQ(s.min(), 42.0);
    EXPECT_EQ(s.max(), 42.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleStats, KnownMoments)
{
    SampleStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.record(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SampleStats, NegativeValuesTrackMin)
{
    SampleStats s;
    s.record(-5.0);
    s.record(3.0);
    EXPECT_EQ(s.min(), -5.0);
    EXPECT_EQ(s.max(), 3.0);
}

TEST(Histogram, PercentilesNearestRank)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.record(i);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
    EXPECT_DOUBLE_EQ(h.median(), 50.0);
}

TEST(Histogram, EmptyReturnsZero)
{
    Histogram h;
    EXPECT_EQ(h.percentile(50.0), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, OutOfRangePercentilePanics)
{
    Histogram h;
    h.record(1.0);
    EXPECT_THROW(h.percentile(-1.0), PanicError);
    EXPECT_THROW(h.percentile(101.0), PanicError);
}

TEST(Histogram, RecordAfterQueryStillSorts)
{
    Histogram h;
    h.record(10.0);
    EXPECT_EQ(h.median(), 10.0);
    h.record(5.0);
    h.record(1.0);
    EXPECT_EQ(h.median(), 5.0);
}

TEST(Histogram, MeanOfSamples)
{
    Histogram h;
    h.record(1.0);
    h.record(2.0);
    h.record(3.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

// ----- HDR log-bucketed behaviour -----------------------------------

TEST(Histogram, QuantileWithinRelativeErrorOfExactSort)
{
    // Samples spanning six decades, checked against the exact
    // nearest-rank value from a full sort: the histogram's answer
    // must land within its advertised relative error bound.
    Histogram h;
    Random rng(7);
    std::vector<double> exact;
    for (int i = 0; i < 20000; ++i) {
        double x = std::floor(rng.exponential(50'000.0)) +
                   rng.below(1000);
        h.record(x);
        exact.push_back(x);
    }
    std::sort(exact.begin(), exact.end());

    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(exact.size())));
        double want = exact[rank - 1];
        double got = h.percentile(p);
        EXPECT_LE(std::abs(got - want),
                  h.relativeError() * want + 0.5)
            << "p" << p;
    }
}

TEST(Histogram, MergeIsAssociativeAndBucketExact)
{
    Histogram a, b, c;
    Random rng(3);
    for (int i = 0; i < 3000; ++i) {
        a.record(rng.below(100'000));
        b.record(std::floor(rng.exponential(1e6)));
        c.record(rng.below(64)); // exact unit buckets
    }

    Histogram ab = a;
    ab.merge(b);
    Histogram abThenC = ab;
    abThenC.merge(c);

    Histogram bc = b;
    bc.merge(c);
    Histogram aThenBc = a;
    aThenBc.merge(bc);

    EXPECT_EQ(abThenC.count(), aThenBc.count());
    EXPECT_DOUBLE_EQ(abThenC.min(), aThenBc.min());
    EXPECT_DOUBLE_EQ(abThenC.max(), aThenBc.max());
    EXPECT_DOUBLE_EQ(abThenC.sum(), aThenBc.sum());
    for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0})
        EXPECT_DOUBLE_EQ(abThenC.percentile(p), aThenBc.percentile(p))
            << "p" << p;
}

TEST(Histogram, MergeIntoEmptyMatchesOriginal)
{
    Histogram a;
    for (int i = 1; i <= 500; ++i)
        a.record(i * 37);
    Histogram b;
    b.merge(a);
    EXPECT_EQ(b.count(), a.count());
    for (double p : {0.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(b.percentile(p), a.percentile(p));
}

TEST(Histogram, MergeMismatchedResolutionPanics)
{
    Histogram a(7), b(8);
    b.record(1.0);
    EXPECT_THROW(a.merge(b), PanicError);
}

TEST(Histogram, UnderflowAndOverflowBuckets)
{
    Histogram h;
    h.record(-5.0);
    h.record(10.0);
    h.record(2.0 * Histogram::maxTrackable);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    // Extremes are exact: the out-of-range samples are represented
    // by the tracked min/max in quantile queries.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), -5.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0),
                     2.0 * Histogram::maxTrackable);
    EXPECT_DOUBLE_EQ(h.median(), 10.0);
}

TEST(Histogram, FixedMemoryAcrossMagnitudes)
{
    // A million samples across nine decades must not grow the bucket
    // vector past its structural cap (~(63-sig+1)*2^sig entries).
    Histogram h;
    Random rng(11);
    for (int i = 0; i < 1'000'000; ++i)
        h.record(std::pow(10.0, 1.0 + 8.0 * rng.uniform()));
    EXPECT_EQ(h.count(), 1'000'000u);
    EXPECT_GT(h.percentile(99.0), h.percentile(50.0));
    const std::size_t sub = std::size_t{1} << h.sigBits();
    EXPECT_LE(h.bucketCount(), (63 - h.sigBits() + 1) * sub);
}

TEST(Histogram, BadSigBitsIsFatal)
{
    EXPECT_THROW(Histogram(-1), PanicError);
    EXPECT_THROW(Histogram(17), PanicError);
}
