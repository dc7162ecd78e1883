/**
 * @file
 * Golden-stats fixture: a small reference suite's per-run CoreStats,
 * scheme counters and derived IPC/MPKI values, captured once from the
 * seed simulator and committed as tests/golden_stats_fixture.hh.
 *
 * Every data-layout or scheduling refactor of the hot path (branch
 * record pool, ring-buffer queues, TAGE arena, idle-cycle fast-forward)
 * must reproduce these numbers *exactly* — the simulator's contract is
 * bit-identical results, not statistically-similar ones. If a change is
 * intentionally behavioral, regenerate the fixture and say so in the
 * commit:
 *
 *   REPRO_GOLDEN_REGEN=1 ./build/tests/lbp_tests \
 *       --gtest_filter='GoldenStats.MatchesCommittedFixture' \
 *       > tests/golden_stats_fixture.hh
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dyn_inst.hh"
#include "sim/runner.hh"
#include "workload/suite.hh"

using namespace lbp;

namespace {

/** One pinned measurement row. The audit counters are those of the
 *  run with the invariant auditor attached, where it can attach. */
struct GoldenRun
{
    const char *config;
    const char *workload;
    std::uint64_t cycles;
    std::uint64_t retiredInstrs;
    std::uint64_t retiredCond;
    std::uint64_t mispredicts;
    std::uint64_t earlyResteers;
    std::uint64_t wrongPathFetched;
    std::uint64_t btbMisses;
    std::uint64_t fetchedInstrs;
    std::uint64_t overrides;
    std::uint64_t overridesCorrect;
    std::uint64_t repairs;
    std::uint64_t repairWrites;
    std::uint64_t uncheckpointed;
    std::uint64_t deniedPredictions;
    std::uint64_t skippedSpecUpdates;
    std::uint64_t cacheAccesses;
    std::uint64_t cacheMisses;
    std::uint64_t auditChecks;
    std::uint64_t auditViolations;
};

#include "golden_stats_fixture.hh"

struct GoldenConfig
{
    const char *name;
    SimConfig cfg;
};

std::vector<GoldenConfig>
goldenConfigs()
{
    const auto scheme = [](RepairKind kind) {
        SimConfig cfg;
        cfg.warmupInstrs = 20000;
        cfg.measureInstrs = 30000;
        cfg.useLocal = true;
        cfg.repair.kind = kind;
        return cfg;
    };
    SimConfig base;
    base.warmupInstrs = 20000;
    base.measureInstrs = 30000;

    SimConfig fw_merge = scheme(RepairKind::ForwardWalk);
    fw_merge.repair.coalesce = true;

    return {
        {"baseline", base},
        {"perfect", scheme(RepairKind::Perfect)},
        {"no-repair", scheme(RepairKind::NoRepair)},
        {"retire-update", scheme(RepairKind::RetireUpdate)},
        {"backward-walk", scheme(RepairKind::BackwardWalk)},
        {"snapshot", scheme(RepairKind::Snapshot)},
        {"forward-walk", scheme(RepairKind::ForwardWalk)},
        {"forward-walk+merge", fw_merge},
        {"limited-pc", scheme(RepairKind::LimitedPc)},
        {"multi-stage", scheme(RepairKind::MultiStage)},
        {"future-file", scheme(RepairKind::FutureFile)},
    };
}

/** @p cfg with the auditor attached wherever it can attach. */
SimConfig
withAuditor(SimConfig cfg)
{
    cfg.obs.audit = auditableConfig(cfg);
    return cfg;
}

std::vector<Program>
goldenSuite()
{
    SuiteOptions opts;
    opts.maxWorkloads = 6;
    return buildSuite(opts);
}

void
printRow(const GoldenConfig &gc, const RunResult &r)
{
    std::printf("    {\"%s\", \"%s\",\n"
                "     %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, "
                "%lluu,\n"
                "     %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, "
                "%lluu, %lluu,\n"
                "     %lluu, %lluu},\n",
                gc.name, r.workload.c_str(),
                static_cast<unsigned long long>(r.stats.cycles),
                static_cast<unsigned long long>(r.stats.retiredInstrs),
                static_cast<unsigned long long>(r.stats.retiredCond),
                static_cast<unsigned long long>(r.stats.mispredicts),
                static_cast<unsigned long long>(r.stats.earlyResteers),
                static_cast<unsigned long long>(
                    r.stats.wrongPathFetched),
                static_cast<unsigned long long>(r.stats.btbMisses),
                static_cast<unsigned long long>(r.stats.fetchedInstrs),
                static_cast<unsigned long long>(r.overrides),
                static_cast<unsigned long long>(r.overridesCorrect),
                static_cast<unsigned long long>(r.repairs),
                static_cast<unsigned long long>(r.repairWrites),
                static_cast<unsigned long long>(
                    r.uncheckpointedMispredicts),
                static_cast<unsigned long long>(r.deniedPredictions),
                static_cast<unsigned long long>(r.skippedSpecUpdates),
                static_cast<unsigned long long>(r.cacheAccesses),
                static_cast<unsigned long long>(r.cacheMisses),
                static_cast<unsigned long long>(r.auditChecks),
                static_cast<unsigned long long>(r.auditViolations));
}

/**
 * Compare @p r with its pinned row. The auditor only reads simulation
 * state, so every other counter matches with it attached or not; the
 * pinned audit counters are the attached run's, and a detached run
 * reads zero in every audit column.
 */
void
expectRow(const RunResult &r, const GoldenRun &g, bool attached)
{
    EXPECT_EQ(r.stats.cycles, g.cycles);
    EXPECT_EQ(r.stats.retiredInstrs, g.retiredInstrs);
    EXPECT_EQ(r.stats.retiredCond, g.retiredCond);
    EXPECT_EQ(r.stats.mispredicts, g.mispredicts);
    EXPECT_EQ(r.stats.earlyResteers, g.earlyResteers);
    EXPECT_EQ(r.stats.wrongPathFetched, g.wrongPathFetched);
    EXPECT_EQ(r.stats.btbMisses, g.btbMisses);
    EXPECT_EQ(r.stats.fetchedInstrs, g.fetchedInstrs);
    EXPECT_EQ(r.overrides, g.overrides);
    EXPECT_EQ(r.overridesCorrect, g.overridesCorrect);
    EXPECT_EQ(r.repairs, g.repairs);
    EXPECT_EQ(r.repairWrites, g.repairWrites);
    EXPECT_EQ(r.uncheckpointedMispredicts, g.uncheckpointed);
    EXPECT_EQ(r.deniedPredictions, g.deniedPredictions);
    EXPECT_EQ(r.skippedSpecUpdates, g.skippedSpecUpdates);
    EXPECT_EQ(r.cacheAccesses, g.cacheAccesses);
    EXPECT_EQ(r.cacheMisses, g.cacheMisses);
    EXPECT_EQ(r.auditChecks, attached ? g.auditChecks : 0u);
    EXPECT_EQ(r.auditViolations, attached ? g.auditViolations : 0u);
    if (!attached) {
        EXPECT_EQ(r.auditResyncs + r.auditSkipped + r.auditUncovered, 0u);
    }
    // Derived values follow the counters exactly (same arithmetic,
    // same order).
    EXPECT_EQ(r.ipc, r.stats.ipc());
    EXPECT_EQ(r.mpki, r.stats.mpki());
}

} // namespace

TEST(GoldenStats, MatchesCommittedFixture)
{
    const bool regen = std::getenv("REPRO_GOLDEN_REGEN") != nullptr;
    const std::vector<Program> suite = goldenSuite();
    const std::vector<GoldenConfig> configs = goldenConfigs();

    if (regen) {
        std::printf(
            "// Generated by REPRO_GOLDEN_REGEN=1 lbp_tests\n"
            "// --gtest_filter=GoldenStats.MatchesCommittedFixture\n"
            "// (see test_golden_stats.cc). Do not edit by hand.\n"
            "\n"
            "constexpr GoldenRun goldenRuns[] = {\n");
        for (const GoldenConfig &gc : configs)
            for (const Program &prog : suite)
                printRow(gc, runOne(prog, withAuditor(gc.cfg)));
        std::printf("};\n");
        GTEST_SKIP() << "fixture regenerated, not compared";
    }

    std::size_t row = 0;
    const std::size_t nrows = std::size(goldenRuns);
    for (const GoldenConfig &gc : configs) {
        for (const Program &prog : suite) {
            ASSERT_LT(row, nrows) << "fixture shorter than the suite";
            const GoldenRun &g = goldenRuns[row++];
            ASSERT_STREQ(g.config, gc.name);
            ASSERT_EQ(g.workload, prog.name);
            SCOPED_TRACE(std::string(gc.name) + " / " + prog.name);

            expectRow(runOne(prog, gc.cfg), g, false);
            const SimConfig audited = withAuditor(gc.cfg);
            if (audited.obs.audit) {
                SCOPED_TRACE("auditor attached");
                expectRow(runOne(prog, audited), g, true);
            } else {
                EXPECT_EQ(g.auditChecks + g.auditViolations, 0u)
                    << "no auditor attaches to this configuration";
            }
        }
    }
    EXPECT_EQ(row, nrows) << "fixture has stale extra rows";
}

// The data-layout contract: all branch-only state (the BranchRec the
// schemes read, the fetch cursor, the TAGE pred/checkpoint baggage)
// lives in the branch-record pool, not in the 8K-entry DynInst ring, so
// one ring entry is at most one cache line (the seed layout was 304
// bytes, then 120 with only the TAGE baggage pooled).
TEST(GoldenStats, DynInstFitsOneCacheLine)
{
    EXPECT_LE(sizeof(DynInst), 64u);
}
