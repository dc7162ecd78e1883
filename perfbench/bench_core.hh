/**
 * @file
 * The benchmark's own arithmetic, kept free of simulator types so it
 * can be tested on hand-built inputs (test_bench_core.cc): quantiles
 * with their sample counts, in-memory spans with self time and child
 * coverage, output digests, the per-op consistency checks, and the
 * result line that ends every benchmark run.
 */

#ifndef PERFBENCH_BENCH_CORE_HH
#define PERFBENCH_BENCH_CORE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/** A quantile together with how many samples it rests on. */
struct Quantile
{
    double value = 0.0;
    std::size_t samples = 0;  ///< samples the quantile was taken over
    std::size_t beyond = 0;   ///< samples strictly above its rank
};

/**
 * Nearest-rank quantile: the smallest sample such that at least
 * @p q of all samples are at or below it. Zero samples give a zero
 * Quantile; @p q is clamped to (0, 1].
 */
Quantile quantile(std::vector<double> samples, double q);

/** Median with the midpoint rule for even counts (0 when empty). */
double median(std::vector<double> samples);

/**
 * Wall time of each round of a loop that rotates through op kinds:
 * round r is op r of every kind in @p perKind, and its time is their
 * sum. Rounds that lack an op of some kind are left out.
 */
std::vector<double>
roundSums(const std::vector<std::vector<double>> &perKind);

/**
 * One traced call: `layer.function` name, start/end in microseconds
 * since the recorder's origin, the enclosing span (-1 for a root),
 * and the op id every span of one op shares.
 */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
    std::uint64_t op = 0;

    double durUs() const { return endUs - startUs; }
};

/**
 * In-memory span recorder for one thread. Disabled recorders return
 * -1 from begin() and record nothing, so untraced runs pay one branch
 * per call site. Spans nest by call order: begin() parents the new
 * span to the innermost open one.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id, or -1 when disabled. */
    int begin(std::string name, std::uint64_t op);

    /** Close span @p id (ignored for -1); must be the innermost. */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Microseconds since construction. */
    double nowUs() const;

    /**
     * Chrome trace_event JSON ("X" complete events, one process and
     * thread), loadable in Perfetto; args carry op id, parent index
     * and self time.
     */
    void writeChromeTrace(std::ostream &os,
                          const std::string &processName) const;

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::uint64_t op)
        : rec_(rec), id_(rec.begin(std::move(name), op))
    {}
    ~ScopedSpan() { rec_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

/** Total length of the union of @p intervals clipped to [lo, hi). */
double coveredUs(std::vector<std::pair<double, double>> intervals,
                 double lo, double hi);

/** Per span (index-aligned): duration minus what its children cover. */
std::vector<double> selfTimesUs(const std::vector<Span> &spans);

/** Share of span @p id's duration its direct children cover. */
double childCoverage(const std::vector<Span> &spans, int id);

/** Calls, total and self time of every span name. */
struct SpanSummary
{
    std::size_t calls = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;
};
std::map<std::string, SpanSummary>
summarizeSpans(const std::vector<Span> &spans);

/** FNV-1a 64-bit digest of @p bytes as 16 lowercase hex digits. */
std::string digestHex(std::string_view bytes);

/** Exact work counts of one op, in a fixed order per op kind. */
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/** What one op produced, reduced to what the checks compare. */
struct OpOutput
{
    std::string kind;    ///< op kind; checks compare within a kind
    std::string digest;  ///< digest of the op's output bytes
    Counters counters;   ///< exact work counts
    std::string error;   ///< non-empty when the call itself failed
};

/** What every op of one kind must match. */
struct OpExpectation
{
    std::string digest;  ///< reference output digest
    Counters required;   ///< counts that must hold exactly
};

/** Ops attempted and failed, with one line per failure. */
struct CheckResult
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
};

/**
 * An op fails when it reported an error, when its kind has no
 * expectation, when its digest differs from the reference, when a
 * required count differs, or when its counters differ from the first
 * op of the same kind (work must repeat exactly within a run).
 */
CheckResult checkOps(const std::vector<OpOutput> &ops,
                     const std::map<std::string, OpExpectation> &expect);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  ///< measurements the value aggregates
    bool integral = false;    ///< print as an exact integer
};

/** Number text: integers exactly, others with all 17 digits. */
std::string formatNumber(double value, bool integral);

/**
 * The benchmark's result line: one JSON object with exactly
 * correct, attempted, failed and metrics ({name: {value, unit}}).
 */
std::string resultLine(bool correct, std::size_t attempted,
                       std::size_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_BENCH_CORE_HH
