#include "stats.hh"

#include <bit>
#include <cmath>

#include "logging.hh"

namespace nectar::sim {

CopyStats &
copyStats()
{
    // nectar-lint: global-ok process-wide copy-accounting counters
    static CopyStats stats;
    return stats;
}

void
SampleStats::record(double x)
{
    ++n;
    _sum += x;
    if (n == 1) {
        _min = _max = x;
    } else {
        _min = std::min(_min, x);
        _max = std::max(_max, x);
    }
    double delta = x - _mean;
    _mean += delta / static_cast<double>(n);
    m2 += delta * (x - _mean);
}

double
SampleStats::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n);
}

double
SampleStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(int sigBits) : sig(sigBits)
{
    if (sigBits < 0 || sigBits > 16)
        panic("Histogram: sigBits out of [0, 16]");
}

std::size_t
Histogram::indexOf(std::uint64_t v) const
{
    const std::uint64_t sub = std::uint64_t{1} << sig;
    if (v < sub)
        return static_cast<std::size_t>(v);
    int octave = std::bit_width(v) - 1; // floor(log2 v) >= sig
    int shift = octave - sig;
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(shift + 1) << sig) +
        ((v >> shift) - sub));
}

double
Histogram::representative(std::size_t index) const
{
    const std::uint64_t sub = std::uint64_t{1} << sig;
    if (index < sub)
        return static_cast<double>(index);
    std::size_t block = index >> sig; // >= 1
    std::uint64_t pos = index & (sub - 1);
    int shift = static_cast<int>(block) - 1;
    std::uint64_t lower = (sub + pos) << shift;
    std::uint64_t width = std::uint64_t{1} << shift;
    return static_cast<double>(lower) +
           static_cast<double>(width - 1) / 2.0;
}

void
Histogram::record(double x)
{
    ++n;
    _sum += x;
    if (n == 1) {
        _min = _max = x;
    } else {
        _min = std::min(_min, x);
        _max = std::max(_max, x);
    }
    if (x < 0.0) {
        ++nUnder;
        return;
    }
    double rounded = std::floor(x + 0.5);
    if (rounded > maxTrackable) {
        ++nOver;
        return;
    }
    std::size_t i = indexOf(static_cast<std::uint64_t>(rounded));
    if (buckets.size() <= i)
        buckets.resize(i + 1, 0);
    ++buckets[i];
}

double
Histogram::percentile(double p) const
{
    if (n == 0)
        return 0.0;
    if (p < 0.0 || p > 100.0)
        panic("Histogram::percentile: p out of [0, 100]");
    if (p <= 0.0)
        return _min;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::max<std::uint64_t>(rank, 1);

    std::uint64_t cum = nUnder;
    if (rank <= cum)
        return _min;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        cum += buckets[i];
        if (rank <= cum)
            return std::clamp(representative(i), _min, _max);
    }
    return _max; // overflow bucket (or rounding slack)
}

double
Histogram::mean() const
{
    if (n == 0)
        return 0.0;
    return _sum / static_cast<double>(n);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.n == 0)
        return;
    if (other.sig != sig)
        panic("Histogram::merge: resolution (sigBits) mismatch");
    if (buckets.size() < other.buckets.size())
        buckets.resize(other.buckets.size(), 0);
    for (std::size_t i = 0; i < other.buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    if (n == 0) {
        _min = other._min;
        _max = other._max;
    } else {
        _min = std::min(_min, other._min);
        _max = std::max(_max, other._max);
    }
    n += other.n;
    nUnder += other.nUnder;
    nOver += other.nOver;
    _sum += other._sum;
}

void
Histogram::reset()
{
    buckets.clear();
    n = nUnder = nOver = 0;
    _min = _max = _sum = 0.0;
}

} // namespace nectar::sim
