/**
 * @file
 * Shared scaffolding for the figure/table benches. A figure is a list
 * of named SweepConfigs that runs as one runSweep():
 *
 *  1. Figure's constructor reads the suite cap and the budgets from
 *     REPRO_WORKLOADS, REPRO_WARMUP and REPRO_INSTR into a SweepSpec
 *     (strictly: a malformed value stops the bench), builds the suite
 *     that spec selects, prints the header and, unless the bench never
 *     reads it, declares the TAGE-only baseline.
 *  2. The bench declares every configuration it needs with add().
 *  3. run() simulates them as one sweep on REPRO_JOBS workers, into
 *     the figure's own SuiteCache and, when REPRO_RESULT_STORE names a
 *     directory, through that ResultStore, opened as lbpsweep opens
 *     it. A configuration declared twice is simulated once, and one
 *     that an earlier bench stored is loaded, not simulated, so a full
 *     regeneration against one store simulates each configuration
 *     once. Results are bit-identical to per-config runSuite() calls.
 *  4. The bench renders its tables from result() and ends with
 *     finish(), which prints the sweep's cell, store and wall lines.
 */

#ifndef LBP_BENCH_BENCH_COMMON_HH
#define LBP_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/count.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "sim/suite_cache.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"

namespace lbp::bench {

/** Percent of perfect-repair IPC gains a scheme retains. */
inline double
retainedPct(double scheme_gain, double perfect_gain)
{
    return perfect_gain > 0.0 ? 100.0 * scheme_gain / perfect_gain : 0.0;
}

/** One figure: its suite, its declared configurations and their sweep. */
class Figure
{
  public:
    /** Read the environment, build the suite, print the header and,
     *  with @p withBaseline, declare the baseline (config 0). */
    explicit Figure(const char *title, bool withBaseline = true)
        : jobs_(resolveJobs(0)), store_(storeDirFromEnvironment())
    {
        spec_.suite = static_cast<unsigned>(envCount(
            "REPRO_WORKLOADS", 0, std::numeric_limits<unsigned>::max()));
        spec_.fullSuite = spec_.suite == 0;
        spec_.warmupInstrs = envCount(
            "REPRO_WARMUP", spec_.warmupInstrs,
            std::numeric_limits<std::uint64_t>::max());
        spec_.measureInstrs = envCount(
            "REPRO_INSTR", spec_.measureInstrs,
            std::numeric_limits<std::uint64_t>::max());
        base_.warmupInstrs = spec_.warmupInstrs;
        base_.measureInstrs = spec_.measureInstrs;
        suite_ = buildSpecSuite(spec_, jobs_);

        std::printf("=== %s ===\n", title);
        std::printf("suite: %zu workloads | %llu warm-up + %llu measured "
                    "instructions each\n",
                    suite_.size(),
                    static_cast<unsigned long long>(spec_.warmupInstrs),
                    static_cast<unsigned long long>(spec_.measureInstrs));
        std::printf("core: 4-wide OOO, 224 ROB, TAGE %.1fKB baseline "
                    "(Table 2)\n",
                    base_.tage.storageKB());
        std::printf("jobs: %u worker(s) (REPRO_JOBS; default = hardware "
                    "concurrency)\n\n",
                    jobs_);

        if (withBaseline)
            baselineId_ = add("baseline", base_);
    }

    const std::vector<Program> &suite() const { return suite_; }

    /** The TAGE-only baseline configuration at the figure's budgets. */
    const SimConfig &base() const { return base_; }

    /** base() with CBPw-Loop128 and the given repair scheme. */
    SimConfig
    withScheme(RepairKind kind) const
    {
        SimConfig cfg = base_;
        cfg.useLocal = true;
        cfg.repair.kind = kind;
        return cfg;
    }

    /** Declare a configuration before run(); returns its id. */
    std::size_t
    add(std::string name, const SimConfig &cfg)
    {
        spec_.configs.push_back({std::move(name), cfg});
        return spec_.configs.size() - 1;
    }

    /** Simulate every declared configuration as one sweep. */
    void
    run()
    {
        SweepOptions opts;
        opts.jobs = jobs_;
        opts.cache = &cache_;
        opts.store = store_.dir().empty() ? nullptr : &store_;
        result_ = runSweep(suite_, spec_.configs, opts);
    }

    /** Results of config @p id; throws before run(). */
    const SuiteResult &
    result(std::size_t id) const
    {
        return *result_.configResults.at(id);
    }

    /** Results of the baseline; throws when it was not declared. */
    const SuiteResult &
    baseline() const
    {
        return result(baselineId_.value());
    }

    /**
     * @p lead followed by the "MPKI redn", "IPC gain" and "% of
     * perfect" cells of config @p id against the baseline, with config
     * @p perfect as the 100% reference: the row every repair
     * comparison prints.
     */
    std::vector<std::string>
    gainRow(std::vector<std::string> lead, std::size_t id,
            std::size_t perfect) const
    {
        const SuiteResult &res = result(id);
        const double ipc = ipcGainPct(baseline(), res);
        const double perfect_ipc = ipcGainPct(baseline(), result(perfect));
        lead.push_back(
            fmtPercent(mpkiReductionPct(baseline(), res) / 100.0, 1));
        lead.push_back(fmtPercent(ipc / 100.0, 2));
        lead.push_back(
            fmtPercent(retainedPct(ipc, perfect_ipc) / 100.0, 0));
        return lead;
    }

    /** Print the sweep's summary lines; returns 0 for main(). */
    int
    finish() const
    {
        std::printf("\n");
        printSweepSummary(stdout, result_.stats,
                          result_.storeUsed ? &store_ : nullptr);
        return 0;
    }

  private:
    static std::string
    storeDirFromEnvironment()
    {
        const char *dir = std::getenv("REPRO_RESULT_STORE");
        return dir ? dir : "";
    }

    unsigned jobs_;
    SweepSpec spec_;
    std::vector<Program> suite_;
    SimConfig base_;  ///< TAGE-only baseline
    std::optional<std::size_t> baselineId_;  ///< its config, if declared
    SuiteCache cache_;
    ResultStore store_;
    SweepResult result_;
};

} // namespace lbp::bench

#endif // LBP_BENCH_BENCH_COMMON_HH
