/**
 * @file
 * Shared scaffolding for the figure/table benches: suite construction,
 * baseline/perfect caching, scheme config shortcuts, headers, and
 * throughput reporting.
 *
 * Suite executions go through the process-wide SuiteCache, so the
 * TAGE-only baseline and the perfect-repair reference — which nearly
 * every figure needs — are simulated exactly once per bench process no
 * matter how many tables ask for them, and repeated sweep
 * configurations cost one simulation each. Simulations fan out across
 * a ThreadPool (REPRO_JOBS workers, default = hardware concurrency)
 * with bit-identical results to a serial run. Every run goes through
 * Context, which keeps the throughput record of each suite it ran
 * (memo hits included) for the table reportThroughput() prints.
 */

#ifndef LBP_BENCH_BENCH_COMMON_HH
#define LBP_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "common/telemetry.hh"
#include "common/thread_pool.hh"
#include "sim/runner.hh"
#include "sim/suite_cache.hh"
#include "workload/suite.hh"

namespace lbp::bench {

/** Everything a figure bench needs to get going. */
struct Context
{
    BenchEnv env;
    std::vector<Program> suite;
    SimConfig base;  ///< TAGE-only baseline configuration

    SuiteResult baseline;  ///< TAGE-only results (computed in make())

    /** Throughput record of every suite run() and runUncached() ran,
     *  in order; a memo hit is a one-word row. */
    mutable std::vector<SuiteTelemetry> ran;

    static Context
    make(const char *title)
    {
        Context ctx;
        ctx.env = BenchEnv::fromEnvironment();
        SuiteOptions opts;
        opts.maxWorkloads = ctx.env.maxWorkloads;
        ctx.suite = buildSuite(opts);
        ctx.env.apply(ctx.base);

        std::printf("=== %s ===\n", title);
        std::printf("suite: %zu workloads | %llu warm-up + %llu measured "
                    "instructions each\n",
                    ctx.suite.size(),
                    static_cast<unsigned long long>(ctx.env.warmupInstrs),
                    static_cast<unsigned long long>(
                        ctx.env.measureInstrs));
        std::printf("core: 4-wide OOO, 224 ROB, TAGE %.1fKB baseline "
                    "(Table 2)\n",
                    ctx.base.tage.storageKB());
        std::printf("jobs: %u worker(s) (REPRO_JOBS; default = hardware "
                    "concurrency)\n\n",
                    resolveJobs(ctx.env.jobs));

        ctx.baseline = ctx.run(ctx.base);
        return ctx;
    }

    /** Config with CBPw-Loop128 and the given repair scheme. */
    SimConfig
    withScheme(RepairKind kind) const
    {
        SimConfig cfg = base;
        cfg.useLocal = true;
        cfg.repair.kind = kind;
        return cfg;
    }

    /**
     * Simulate the suite under @p cfg through the process-wide
     * memoization cache; repeated configurations are free. The
     * reference stays valid for the bench's lifetime.
     */
    const SuiteResult &
    run(const SimConfig &cfg) const
    {
        SuiteCache &cache = SuiteCache::process();
        const std::uint64_t simulated = cache.stats().misses;
        const SuiteResult &res = cache.run(suite, cfg, env.jobs);
        if (cache.stats().misses != simulated) {
            ran.push_back(res.telemetry);
        } else {
            SuiteTelemetry hit;
            hit.label = configLabel(cfg);
            hit.workloads = suite.size();
            hit.jobs = res.telemetry.jobs;
            hit.memoHit = true;
            ran.push_back(std::move(hit));
        }
        return res;
    }

    /**
     * Simulate the suite under @p cfg outside the cache: for passes
     * whose results carry observability records, which the cache key
     * (and so a memoized result) leaves out.
     */
    SuiteResult
    runUncached(const SimConfig &cfg) const
    {
        SuiteResult res = runSuite(suite, cfg, env.jobs);
        ran.push_back(res.telemetry);
        return res;
    }

    /**
     * The perfect-repair reference suite. Cached like every run();
     * kept as a named helper because almost every figure normalizes
     * against it.
     */
    const SuiteResult &
    perfect() const
    {
        return run(withScheme(RepairKind::Perfect));
    }
};

/** Percent of perfect-repair IPC gains a scheme retains. */
inline double
retainedPct(double scheme_gain, double perfect_gain)
{
    return perfect_gain > 0.0 ? 100.0 * scheme_gain / perfect_gain : 0.0;
}

/**
 * Print the throughput table of every suite @p ctx ran and the suite
 * cache's simulated/memoized counts. Returns 0 so benches can end with
 * `return reportThroughput(ctx);`.
 */
inline int
reportThroughput(const Context &ctx)
{
    std::printf("\n");
    printThroughputSummary(stdout, ctx.ran);
    const SuiteCache::CacheStats cs = SuiteCache::process().stats();
    std::printf("  suite cache: %llu simulated, %llu memoized\n",
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.hits));
    return 0;
}

} // namespace lbp::bench

#endif // LBP_BENCH_BENCH_COMMON_HH
