#include "common/telemetry.hh"

namespace lbp {

double
SuiteTelemetry::minstrPerSec() const
{
    return wallSeconds > 0.0
               ? static_cast<double>(simInstrs) / wallSeconds / 1e6
               : 0.0;
}

double
SuiteTelemetry::avgWorkerUtilization() const
{
    if (workerBusySeconds.empty() || wallSeconds <= 0.0)
        return 0.0;
    double busy = 0.0;
    for (double b : workerBusySeconds)
        busy += b;
    return busy /
           (wallSeconds *
            static_cast<double>(workerBusySeconds.size()));
}

void
printThroughputSummary(std::FILE *out,
                       const std::vector<SuiteTelemetry> &records)
{
    std::size_t memoHits = 0;
    std::uint64_t simInstrs = 0;
    double wallSeconds = 0.0;
    std::fprintf(out, "--- throughput telemetry ---\n");
    for (const SuiteTelemetry &r : records) {
        simInstrs += r.simInstrs;
        wallSeconds += r.wallSeconds;
        if (r.memoHit) {
            ++memoHits;
            std::fprintf(out, "  %-34s memo hit\n", r.label.c_str());
            continue;
        }
        std::fprintf(out,
                     "  %-34s %4zu workloads  %7.3fs  %7.2f "
                     "Minstr/s  jobs=%u  util=%.0f%%\n",
                     r.label.c_str(), r.workloads, r.wallSeconds,
                     r.minstrPerSec(), r.jobs,
                     100.0 * r.avgWorkerUtilization());
    }
    std::fprintf(out,
                 "  total: %zu suites (%zu memoized), %.1f Minstr in "
                 "%.3fs wall = %.2f Minstr/s\n",
                 records.size(), memoHits,
                 static_cast<double>(simInstrs) / 1e6, wallSeconds,
                 wallSeconds > 0.0
                     ? static_cast<double>(simInstrs) / wallSeconds / 1e6
                     : 0.0);
}

} // namespace lbp
