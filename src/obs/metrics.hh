/**
 * @file
 * Metrics registry: the single naming authority for every counter and
 * histogram the simulator exports.
 *
 * Three consumers used to hand-roll their own counter plumbing — the
 * lbpsim CSV writer, the bench telemetry JSON, and ad-hoc printf
 * summaries — and their column lists drifted independently. This header
 * centralizes the mapping from RunResult fields to (name, unit, help)
 * descriptors so every exporter iterates one table, and adds the
 * fixed-bucket histograms (resolve latency, ROB occupancy at squash,
 * repair-walk length) the aggregate counters cannot express.
 *
 * Everything here is observational: nothing in src/obs/ feeds back into
 * simulation state, which is what keeps trace-on runs bit-identical to
 * trace-off runs (tests/test_trace.cc pins that).
 */

#ifndef LBP_OBS_METRICS_HH
#define LBP_OBS_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"

namespace lbp {

struct RunResult;
struct SweepStats;
struct ServeStats;
struct StoreStats;

/** One exported scalar metric: a named, unit-annotated value. */
struct Metric
{
    std::string name;   ///< stable export name (CSV column / JSON key)
    std::string unit;   ///< "count", "cycles", "ratio", "KB", ...
    std::string help;   ///< one-line description
    double value = 0.0;
    bool integral = false;  ///< print as integer (counter semantics)
};

/** A FixedHistogram paired with its export name and unit. */
struct NamedHistogram
{
    std::string name;
    std::string unit;
    std::string help;
    FixedHistogram hist;
};

/**
 * Ordered collection of metrics and histograms for one run (or one
 * aggregated suite). Exporters iterate scalars()/histograms() so the
 * set of reported metrics is defined in exactly one place.
 */
class MetricsRegistry
{
  public:
    /** Append a scalar counter (integral, printed without decimals). */
    void counter(std::string name, std::string unit, std::string help,
                 std::uint64_t value);

    /** Append a scalar gauge (floating point). */
    void gauge(std::string name, std::string unit, std::string help,
               double value);

    /** Append a histogram by value. */
    void histogram(std::string name, std::string unit, std::string help,
                   const FixedHistogram &hist);

    /** All scalars, in registration order. */
    const std::vector<Metric> &scalars() const { return scalars_; }
    /** All histograms, in registration order. */
    const std::vector<NamedHistogram> &histograms() const
    {
        return hists_;
    }

    /**
     * Serialize as a JSON object:
     * {"scalars": [{name, unit, help, value}...],
     *  "histograms": [{name, unit, help, count, sum, max, buckets}...]}
     */
    void writeJson(std::ostream &os) const;

  private:
    std::vector<Metric> scalars_;
    std::vector<NamedHistogram> hists_;
};

/**
 * Descriptor tying one exported metric to a field of its source struct
 * @p T. Each table of these is the single authority for its surface:
 * runMetrics() (RunResult) names lbpsim's CSV columns and the
 * --metrics-json export, sweepMetrics() (SweepStats, sim/sweep.hh) the
 * sweep manifest's "counters", serveMetrics() (ServeStats,
 * serve/protocol.hh) the lbp-serve-v1 `stats` frame and lbpserved's exit
 * summary, storeMetrics() (StoreStats, sim/result_store.hh) the
 * manifest's "store" section — and all four the scrape and
 * docs/METRICS.md. Adding a field means adding a row, and every
 * consumer picks it up.
 */
template <typename T>
struct MetricDesc
{
    const char *name;  ///< CSV column / JSON key / counter name
    const char *unit;
    const char *help;
    bool integral;             ///< counter (true) vs gauge (false)
    double (*get)(const T &);  ///< field accessor
};

/**
 * The per-run metric table, in CSV column order (stable: existing
 * columns keep their historical names and positions).
 */
const std::vector<MetricDesc<RunResult>> &runMetrics();

/** The sweep-counter table, in manifest order (append, never reorder). */
const std::vector<MetricDesc<SweepStats>> &sweepMetrics();

/** The daemon-counter table, in wire order (append, never reorder). */
const std::vector<MetricDesc<ServeStats>> &serveMetrics();

/** The store-counter table (append, never reorder). */
const std::vector<MetricDesc<StoreStats>> &storeMetrics();

/**
 * Register every row of @p table, read from @p src, into @p reg:
 * integral rows as counters, the rest as gauges.
 */
template <typename T>
void
registerMetrics(MetricsRegistry &reg,
                const std::vector<MetricDesc<T>> &table, const T &src)
{
    for (const MetricDesc<T> &d : table) {
        if (d.integral)
            reg.counter(d.name, d.unit, d.help,
                        static_cast<std::uint64_t>(d.get(src)));
        else
            reg.gauge(d.name, d.unit, d.help, d.get(src));
    }
}

/**
 * Table-driven aggregate over many RunResults — what a resident daemon
 * exposes for the run layer, where individual results are transient.
 * add() folds one run through the runMetrics() descriptors (so the
 * aggregate can never name a metric the table does not); addTo()
 * registers counters as lifetime sums and gauges as run-weighted
 * means, under the table's own names.
 */
class RunAggregate
{
  public:
    /** Fold one run's metrics into the aggregate. */
    void add(const RunResult &r);

    /** Runs folded in so far. */
    std::uint64_t runs() const { return runs_; }

    /** Register the aggregated runMetrics() rows into @p reg. */
    void addTo(MetricsRegistry &reg) const;

  private:
    std::vector<double> sums_;
    std::uint64_t runs_ = 0;
};

/**
 * Render @p reg in the Prometheus text exposition format (one
 * HELP/TYPE comment pair per family, counters as integers, gauges in
 * full precision, FixedHistograms as cumulative `_bucket{le=...}`
 * series with `_sum`/`_count`). Deterministic for a given registry:
 * the scrape tests diff successive renders byte for byte.
 */
void writePrometheus(std::ostream &os, const MetricsRegistry &reg);

/**
 * Render one labeled counter family: a HELP/TYPE pair for @p family
 * followed by `family{labelKey="value"} sample` lines in the given
 * order, label values escaped per the exposition format. Used for the
 * per-fingerprint result-store series, whose label set is dynamic.
 */
void writePrometheusLabeled(
    std::ostream &os, const char *family, const char *help,
    const char *labelKey,
    const std::vector<std::pair<std::string, std::uint64_t>> &samples);

} // namespace lbp

#endif // LBP_OBS_METRICS_HH
