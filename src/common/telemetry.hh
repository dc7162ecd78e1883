/**
 * @file
 * Throughput telemetry for the experiment harness: a wall-clock
 * stopwatch, per-suite throughput records, and a process-wide registry
 * the benches and lbpsim dump as a machine-readable JSON file.
 *
 * This file (and telemetry.cc) is the only place in src/ allowed to
 * touch wall-clock time — tools/lbp_analyze.py's no-raw-time rule
 * allows clock reads inside the Stopwatch class only. Telemetry is
 * observational only: nothing simulated may ever depend on a
 * Stopwatch reading, or run-to-run determinism dies. Keep clock reads
 * out of every other translation unit.
 */

#ifndef LBP_COMMON_TELEMETRY_HH
#define LBP_COMMON_TELEMETRY_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace lbp {

/** Monotonic wall-clock stopwatch (observational use only). */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    void reset() { start_ = std::chrono::steady_clock::now(); }

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Throughput record for one suite execution (or memoization hit). */
struct SuiteTelemetry
{
    std::string label;            ///< short configuration description
    std::size_t workloads = 0;
    std::uint64_t simInstrs = 0;  ///< true-path instructions simulated
    double wallSeconds = 0.0;
    unsigned jobs = 1;            ///< workers the suite actually used
    bool memoHit = false;         ///< served from the suite cache
    /** Busy seconds per worker (empty for serial / memoized runs). */
    std::vector<double> workerBusySeconds;

    /** Millions of simulated instructions per wall-clock second. */
    double minstrPerSec() const;

    /** Mean fraction of wall time the workers spent simulating. */
    double avgWorkerUtilization() const;
};

/**
 * Process-wide collection of suite telemetry. runSuite() records into
 * it; benches print a summary and dump it as BENCH_throughput.json so
 * the repo accumulates a performance trajectory in CI artifacts.
 */
class TelemetryRegistry
{
  public:
    /** The process-wide registry instance. */
    static TelemetryRegistry &process();

    void record(SuiteTelemetry t);
    std::vector<SuiteTelemetry> snapshot() const;
    void clear();

    /** Aggregate over all records (memo hits contribute no instrs). */
    struct Totals
    {
        std::size_t suites = 0;
        std::size_t memoHits = 0;
        std::uint64_t simInstrs = 0;
        double wallSeconds = 0.0;
    };
    Totals totals() const;

    /** Machine-readable dump, one object per recorded suite. */
    std::string toJson(const std::string &bench) const;

    /** Write toJson() to @p path; false (with a warning) on I/O error. */
    bool writeJson(const std::string &path,
                   const std::string &bench) const;

    /** Human-readable per-suite throughput table. */
    void printSummary(std::FILE *out) const;

  private:
    mutable std::mutex mu_;
    std::vector<SuiteTelemetry> records_;
};

/** REPRO_THROUGHPUT_JSON env override, or "BENCH_throughput.json". */
std::string throughputJsonPath();

} // namespace lbp

#endif // LBP_COMMON_TELEMETRY_HH
