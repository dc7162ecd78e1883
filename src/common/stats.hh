/**
 * @file
 * Lightweight statistics primitives — the one histogram class, means
 * and number formatting — and the text table formatter the benchmark
 * harnesses print paper-style result tables with.
 */

#ifndef LBP_COMMON_STATS_HH
#define LBP_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace lbp {

/**
 * Power-of-two bucketed histogram with a fixed, compile-time bucket
 * count, plus count, sum, min, max and mean. sample() is a shift-free
 * loop over at most numBuckets compares and a few adds, and the
 * footprint is constant, so repair schemes and tracers can own one per
 * metric without heap traffic on the hot path.
 *
 * Bucket b counts samples v with 2^(b-1) < v <= 2^b (bucket 0 holds
 * v <= 1).
 */
class FixedHistogram
{
  public:
    /** Buckets cover values up to 2^23; larger samples clamp to the
     *  last bucket (resolve latencies and walk lengths sit far below). */
    static constexpr unsigned numBuckets = 24;

    /** Record one sample. */
    void
    sample(std::uint64_t v)
    {
        ++count_;
        sum_ += v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
        unsigned b = 0;
        while ((1ull << b) < v && b + 1 < numBuckets)
            ++b;
        ++buckets_[b];
    }

    /** Total samples recorded. */
    std::uint64_t count() const { return count_; }
    /** Sum of all sample values. */
    std::uint64_t sum() const { return sum_; }
    /** Smallest sample seen (0 when empty). */
    std::uint64_t min() const { return count_ ? min_ : 0; }
    /** Largest sample seen (0 when empty). */
    std::uint64_t max() const { return max_; }
    /** Arithmetic mean (0.0 when empty). */
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }
    /** Count in bucket @p b (see class comment for the bucket bounds). */
    std::uint64_t bucket(unsigned b) const { return buckets_[b]; }

    /** Sum of all bucket counts; equals count() by construction — the
     *  histogram/counter reconciliation tests assert exactly this. */
    std::uint64_t
    bucketTotal() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t n : buckets_)
            total += n;
        return total;
    }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
    std::uint64_t buckets_[numBuckets] = {};
};

/**
 * Geometric mean of a list of strictly positive ratios. Returns 0.0
 * for an empty list — that is "no data", not a ratio, so gain
 * computations must guard for emptiness before turning the result
 * into a percentage (0.0 would read as a -100% gain).
 */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; 0 for an empty list. */
double mean(const std::vector<double> &values);

/** Format a double with the given precision into a std::string. */
std::string fmtDouble(double v, int precision = 2);

/** Format a percentage (0.031 -> "3.10%"). */
std::string fmtPercent(double fraction, int precision = 2);

/**
 * Fixed-width text table builder. Benches use this to print rows shaped
 * like the paper's tables and figure series.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> row);

    /** Render with aligned columns. */
    std::string render() const;

  private:
    std::vector<std::vector<std::string>> rows_;
};

} // namespace lbp

#endif // LBP_COMMON_STATS_HH
