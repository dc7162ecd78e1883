/**
 * @file
 * Throughput telemetry for the experiment harness: a wall-clock
 * stopwatch, per-suite throughput records, and the table the benches
 * print from the records of the suites they ran.
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
 * Print the per-suite throughput table (label, workloads, wall,
 * Minstr/s, jobs, worker utilisation; memo hits as one-word rows)
 * and its total line for @p records, in order.
 */
void printThroughputSummary(std::FILE *out,
                            const std::vector<SuiteTelemetry> &records);

} // namespace lbp

#endif // LBP_COMMON_TELEMETRY_HH
