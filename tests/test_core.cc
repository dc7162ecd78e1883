/**
 * @file
 * Tests for the cache hierarchy and the OOO core: latency accounting,
 * prefetch behaviour, pipeline progress, determinism, misprediction
 * accounting, and scheme-agnostic liveness across the suite.
 */

#include <gtest/gtest.h>

#include "core/cache.hh"
#include "core/core.hh"
#include "workload/builder.hh"
#include "workload/suite.hh"

using namespace lbp;

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

TEST(Cache, HitAndMissLatencies)
{
    CacheConfig cfg{32, 8, 64, 5, false};
    Cache c(cfg, nullptr, 200);
    EXPECT_EQ(c.access(0x1000), 205u) << "cold miss pays memory";
    EXPECT_EQ(c.access(0x1000), 5u) << "hit pays only L1";
    EXPECT_EQ(c.access(0x1038), 5u) << "same line";
    EXPECT_EQ(c.access(0x1040), 205u) << "next line misses";
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_EQ(c.stats().accesses, 4u);
}

TEST(Cache, StreamerPrefetchCoversStrides)
{
    CacheConfig cfg{32, 8, 64, 5, true};
    Cache c(cfg, nullptr, 200);
    c.access(0x2000);
    // Sequential walk: every subsequent line was prefetched.
    for (Addr a = 0x2008; a < 0x2000 + 64 * 64; a += 8)
        EXPECT_EQ(c.access(a), 5u) << "addr " << a;
    EXPECT_EQ(c.stats().misses, 1u) << "only the first touch misses";
}

TEST(Cache, HierarchyAccumulatesLatency)
{
    MemoryHierarchyConfig cfg;
    MemoryHierarchy mem(cfg);
    const unsigned cold = mem.dataAccess(0x5000000);
    EXPECT_EQ(cold, cfg.l1d.latency + cfg.l2.latency +
                        cfg.llc.latency + cfg.memLatency);
    EXPECT_EQ(mem.dataAccess(0x5000000), cfg.l1d.latency);
}

TEST(Cache, L2ServesL1Victims)
{
    MemoryHierarchyConfig cfg;
    cfg.l1d.nextLinePrefetch = false;
    cfg.l2.nextLinePrefetch = false;
    cfg.llc.nextLinePrefetch = false;
    MemoryHierarchy mem(cfg);
    // Touch far more lines than L1 holds but fewer than L2 holds.
    const unsigned lines = 2 * cfg.l1d.sizeKB * 1024 / 64;
    for (unsigned i = 0; i < lines; ++i)
        mem.dataAccess(0x4000000 + 64 * i);
    // First line was evicted from L1 but must still be in L2.
    EXPECT_EQ(mem.dataAccess(0x4000000),
              cfg.l1d.latency + cfg.l2.latency);
}

// ---------------------------------------------------------------------
// Core
// ---------------------------------------------------------------------

namespace {

Program
testProgram(unsigned cat = 0, unsigned idx = 0)
{
    return buildWorkload(categoryProfiles()[cat], idx,
                         SuiteOptions{}.seed);
}

} // namespace

TEST(Core, RetiresExactlyRequestedInstructions)
{
    const Program prog = testProgram();
    OooCore core(prog, SimConfig{});
    core.run(5000);
    EXPECT_GE(core.stats().retiredInstrs, 5000u);
    EXPECT_LT(core.stats().retiredInstrs, 5004u)
        << "overshoot bounded by retire width";
}

TEST(Core, IpcWithinPhysicalBounds)
{
    const Program prog = testProgram();
    OooCore core(prog, SimConfig{});
    core.run(50000);
    const double ipc = core.stats().ipc();
    EXPECT_GT(ipc, 0.1);
    EXPECT_LE(ipc, 4.0) << "cannot beat retire width";
}

TEST(Core, DeterministicAcrossRuns)
{
    const Program prog = testProgram(2, 1);
    SimConfig cfg;
    cfg.useLocal = true;
    cfg.repair.kind = RepairKind::ForwardWalk;
    OooCore a(prog, cfg), b(prog, cfg);
    a.run(40000);
    b.run(40000);
    EXPECT_EQ(a.stats().cycles, b.stats().cycles);
    EXPECT_EQ(a.stats().mispredicts, b.stats().mispredicts);
    EXPECT_EQ(a.stats().wrongPathFetched, b.stats().wrongPathFetched);
}

TEST(Core, MispredictsProduceWrongPathFetch)
{
    const Program prog = testProgram();
    OooCore core(prog, SimConfig{});
    core.run(50000);
    EXPECT_GT(core.stats().mispredicts, 0u);
    EXPECT_GT(core.stats().wrongPathFetched, 0u);
    // Each flush discards a bounded wrong-path window.
    EXPECT_LT(core.stats().wrongPathFetched,
              300u * core.stats().mispredicts);
}

TEST(Core, FetchesMoreThanItRetires)
{
    const Program prog = testProgram();
    OooCore core(prog, SimConfig{});
    core.run(30000);
    EXPECT_GE(core.stats().fetchedInstrs,
              core.stats().retiredInstrs +
                  core.stats().wrongPathFetched);
}

TEST(Core, PerfectPredictionBoundsMispredicts)
{
    // A program with a single constant always-taken loop branch has
    // (almost) no mispredictions once TAGE warms up.
    ProgramBuilder b("tiny", "Test", 5);
    b.addStream({0x1000, 8, 4096, false, 0});
    std::vector<Seg> body;
    body.push_back(Seg::straight(6));
    std::vector<Seg> top;
    top.push_back(Seg::loop(
        std::make_unique<PatternBehavior>(~0ull, 1), true,
        std::move(body)));
    const Program prog = b.build(std::move(top));

    OooCore core(prog, SimConfig{});
    core.run(30000);
    EXPECT_LT(core.stats().mpki(), 0.5);
    EXPECT_GT(core.stats().ipc(), 1.5);
}

TEST(Core, BtbMissesBoundedByBranchSites)
{
    const Program prog = testProgram();
    OooCore core(prog, SimConfig{});
    core.run(60000);
    // 2K-entry BTB fits every site: misses are (mostly) cold only.
    EXPECT_LT(core.stats().btbMisses,
              2u * prog.staticInstCount());
}

TEST(Core, WarmupDeltaAccounting)
{
    const Program prog = testProgram(4, 2);
    SimConfig cfg;
    OooCore core(prog, cfg);
    core.run(20000);
    const CoreStats warm = core.stats();
    core.run(30000);
    const CoreStats d = CoreStats::delta(core.stats(), warm);
    EXPECT_GE(d.retiredInstrs, 30000u);
    EXPECT_LT(d.retiredInstrs, 30004u);
    EXPECT_EQ(d.cycles, core.stats().cycles - warm.cycles);
}

class CoreLiveness
    : public ::testing::TestWithParam<std::tuple<int, RepairKind>>
{
};

TEST_P(CoreLiveness, RunsWithoutDeadlock)
{
    const auto [cat, kind] = GetParam();
    const Program prog = testProgram(static_cast<unsigned>(cat), 0);
    SimConfig cfg;
    cfg.useLocal = true;
    cfg.repair.kind = kind;
    cfg.repair.ports = {16, 2, 2};
    OooCore core(prog, cfg);
    core.run(30000);  // panics internally on deadlock
    EXPECT_GE(core.stats().retiredInstrs, 30000u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CoreLiveness,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 3, 4, 5, 6),
        ::testing::Values(RepairKind::Perfect, RepairKind::NoRepair,
                          RepairKind::ForwardWalk,
                          RepairKind::BackwardWalk,
                          RepairKind::Snapshot, RepairKind::LimitedPc,
                          RepairKind::RetireUpdate,
                          RepairKind::MultiStage,
                          RepairKind::FutureFile)),
    [](const auto &info) {
        std::string n =
            "cat" + std::to_string(std::get<0>(info.param)) + "_" +
            repairKindName(std::get<1>(info.param));
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });
