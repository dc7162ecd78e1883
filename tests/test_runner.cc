/**
 * @file
 * Tests for the sim harness: run accounting, config keying and
 * memoization, and TAGE-configuration property sweeps through the full
 * runner path.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "sim/suite_cache.hh"
#include "sim/sweep.hh"
#include "workload/suite.hh"

using namespace lbp;

TEST(Runner, RunOneFillsEveryField)
{
    const Program prog =
        buildWorkload(categoryProfiles()[0], 3, SuiteOptions{}.seed);
    SimConfig cfg;
    cfg.warmupInstrs = 10000;
    cfg.measureInstrs = 20000;
    cfg.useLocal = true;
    cfg.repair.kind = RepairKind::ForwardWalk;
    const RunResult r = runOne(prog, cfg);
    EXPECT_EQ(r.workload, prog.name);
    EXPECT_EQ(r.category, "Server");
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GE(r.stats.retiredInstrs, 20000u);
    EXPECT_GT(r.tageKB, 5.0);
    EXPECT_GT(r.localKB, 0.3);
    EXPECT_GT(r.repairKB, 0.2);
}

TEST(Runner, RunOneIsDeterministic)
{
    const Program prog =
        buildWorkload(categoryProfiles()[4], 0, SuiteOptions{}.seed);
    SimConfig cfg;
    cfg.warmupInstrs = 10000;
    cfg.measureInstrs = 20000;
    const RunResult a = runOne(prog, cfg);
    const RunResult b = runOne(prog, cfg);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.mispredicts, b.stats.mispredicts);
}

// A TAGE-configuration property: bigger configurations never do
// meaningfully worse, end to end through the pipeline.
class TageConfigs : public ::testing::TestWithParam<int>
{
};

TEST_P(TageConfigs, LargerIsNotWorse)
{
    const Program prog = buildWorkload(
        categoryProfiles()[static_cast<unsigned>(GetParam())], 0,
        SuiteOptions{}.seed);
    SimConfig small;
    small.warmupInstrs = 15000;
    small.measureInstrs = 30000;
    SimConfig big = small;
    big.tage = TageConfig::kb57();
    const RunResult rs = runOne(prog, small);
    const RunResult rb = runOne(prog, big);
    EXPECT_LE(rb.mpki, rs.mpki * 1.1)
        << "57KB TAGE must not lose to 7KB";
}

INSTANTIATE_TEST_SUITE_P(Categories, TageConfigs,
                         ::testing::Values(0, 2, 4, 6));

TEST(Runner, SCurveIsSortedAscending)
{
    SuiteOptions opts;
    opts.maxWorkloads = 7;
    const auto suite = buildSuite(opts);
    SimConfig base;
    base.warmupInstrs = 8000;
    base.measureInstrs = 15000;
    SimConfig test = base;
    test.useLocal = true;
    test.repair.kind = RepairKind::Perfect;
    const auto curve =
        ipcSCurve(runSuite(suite, base), runSuite(suite, test));
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_LE(curve[i - 1].second, curve[i].second);
}

namespace {

/** A suite whose runs all have the given IPC (zero = degenerate). */
SuiteResult
syntheticSuite(double ipc)
{
    SuiteResult s;
    for (const char *name : {"w0", "w1", "w2"}) {
        RunResult r;
        r.workload = std::string(name);
        r.category = std::string(s.runs.size() < 2 ? "A" : "B");
        r.ipc = ipc;
        s.runs.push_back(r);
    }
    return s;
}

} // namespace

TEST(Runner, IpcGainGuardsEmptyRatioList)
{
    // All-zero-IPC suites produce no comparable pairs. geomean of an
    // empty list is 0, which naively reads as a -100% "gain"; the
    // aggregation must report 0 (no data) instead.
    const SuiteResult dead = syntheticSuite(0.0);
    EXPECT_EQ(ipcGainPct(dead, dead), 0.0);

    const SuiteResult live = syntheticSuite(1.5);
    EXPECT_EQ(ipcGainPct(live, dead), 0.0);
    EXPECT_EQ(ipcGainPct(dead, live), 0.0);
    EXPECT_NEAR(ipcGainPct(live, live), 0.0, 1e-12);
}

TEST(Runner, AggregateByCategoryGuardsEmptyRatioList)
{
    const SuiteResult dead = syntheticSuite(0.0);
    for (const CategoryAgg &c : aggregateByCategory(dead, dead)) {
        EXPECT_EQ(c.ipcGainPct, 0.0) << c.name;
        EXPECT_EQ(c.mpkiReductionPct, 0.0) << c.name;
    }
}

TEST(SuiteCache, SecondRunIsAMemoHit)
{
    SuiteOptions opts;
    opts.maxWorkloads = 3;
    const auto suite = buildSuite(opts);
    SimConfig cfg;
    cfg.warmupInstrs = 4000;
    cfg.measureInstrs = 8000;
    const std::vector<SweepConfig> configs = {{"tage", cfg}};

    SuiteCache cache;
    SweepOptions sweep;
    sweep.jobs = 1;
    sweep.cache = &cache;
    const SweepResult a = runSweep(suite, configs, sweep);
    EXPECT_EQ(a.stats.cellsSimulated, suite.size());
    EXPECT_EQ(a.stats.cellsCacheHit, 0u);

    const SweepResult b = runSweep(suite, configs, sweep);
    EXPECT_EQ(b.stats.cellsSimulated, 0u);
    EXPECT_EQ(b.stats.cellsCacheHit, suite.size());
    // the cache hands back the same entry
    EXPECT_EQ(a.configResults[0], b.configResults[0]);
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(SuiteCache, DistinctConfigsAreDistinctEntries)
{
    SuiteOptions opts;
    opts.maxWorkloads = 2;
    const auto suite = buildSuite(opts);
    SimConfig base;
    base.warmupInstrs = 4000;
    base.measureInstrs = 8000;
    SimConfig local = base;
    local.useLocal = true;
    local.repair.kind = RepairKind::Perfect;

    SuiteCache cache;
    SweepOptions sweep;
    sweep.jobs = 1;
    sweep.cache = &cache;
    const SweepResult res =
        runSweep(suite, {{"tage", base}, {"perfect", local}}, sweep);
    EXPECT_EQ(res.stats.cellsSimulated, 2 * suite.size());
    EXPECT_EQ(res.stats.cellsCacheHit, 0u);
    EXPECT_NE(res.configResults[0], res.configResults[1]);
    EXPECT_EQ(cache.entries(), 2u);
}

TEST(SuiteCache, RepairFieldsIgnoredWithoutUseLocal)
{
    // The core builds no repair scheme when useLocal is off, so two
    // baseline configs differing only in leftover repair fields must
    // share one cache entry.
    SimConfig a;
    a.warmupInstrs = 4000;
    a.measureInstrs = 8000;
    SimConfig b = a;
    b.repair.kind = RepairKind::Snapshot;
    b.repair.ports = {64, 8, 8};
    EXPECT_EQ(configKey(a), configKey(b));
    b.useLocal = true;
    EXPECT_NE(configKey(a), configKey(b));
}

TEST(Runner, SuiteTelemetryIsFilledIn)
{
    SuiteOptions opts;
    opts.maxWorkloads = 3;
    const auto suite = buildSuite(opts);
    SimConfig cfg;
    cfg.warmupInstrs = 4000;
    cfg.measureInstrs = 8000;
    const SuiteResult res = runSuite(suite, cfg, 2);
    EXPECT_EQ(res.telemetry.workloads, suite.size());
    EXPECT_EQ(res.telemetry.jobs, 2u);
    EXPECT_GT(res.telemetry.wallSeconds, 0.0);
    EXPECT_GT(res.telemetry.simInstrs, 0u);
    EXPECT_GT(res.telemetry.minstrPerSec(), 0.0);
    EXPECT_EQ(res.telemetry.label, configLabel(cfg));
    EXPECT_EQ(res.telemetry.workerBusySeconds.size(), 2u);
}
