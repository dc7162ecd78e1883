/**
 * @file
 * Engineering microbenchmarks (google-benchmark): raw throughput of
 * the predictor structures and the simulator itself. Not a paper
 * figure — this is how we keep the 202-workload sweeps fast enough to
 * run the whole figure set in minutes.
 */

#include <benchmark/benchmark.h>

#include "bpu/loop_predictor.hh"
#include "bpu/tage.hh"
#include "common/random.hh"
#include "core/core.hh"
#include "workload/suite.hh"

using namespace lbp;

namespace {

void
BM_TagePredictUpdate(benchmark::State &state)
{
    TagePredictor tage;
    Xoshiro256ss rng(1);
    Addr pc = 0x400000;
    TagePredStorage p;
    for (auto _ : state) {
        (void)_;
        const bool dir = rng.chance(0.6);
        benchmark::DoNotOptimize(tage.predict(pc, p));
        tage.specUpdateHist(pc, dir);
        tage.train(pc, dir, p);
        pc = 0x400000 + ((pc + 4) & 0x3ff);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagePredictUpdate);

void
BM_TageCheckpointRestore(benchmark::State &state)
{
    TagePredictor tage;
    for (unsigned i = 0; i < 64; ++i)
        tage.specUpdateHist(0x400000 + 4 * i, i & 1);
    TageCheckpointStorage ckpt;
    for (auto _ : state) {
        (void)_;
        tage.checkpoint(ckpt);
        tage.specUpdateHist(0x400100, true);
        tage.restore(ckpt);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TageCheckpointRestore);

void
BM_LoopPredictLookup(benchmark::State &state)
{
    LoopPredictor loop;
    for (unsigned i = 0; i < 2000; ++i) {
        const Addr pc = 0x400000 + 4 * (i % 40);
        loop.specUpdate(pc, (i % 9) != 8);
        loop.retireTrain(pc, (i % 9) != 8);
    }
    Addr pc = 0x400000;
    for (auto _ : state) {
        (void)_;
        benchmark::DoNotOptimize(loop.predict(pc));
        pc = 0x400000 + ((pc + 4) & 0xff);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoopPredictLookup);

void
BM_LoopSnapshotRestore(benchmark::State &state)
{
    LoopPredictor loop;
    for (unsigned i = 0; i < 500; ++i)
        loop.specUpdate(0x400000 + 4 * (i % 60), i & 1);
    for (auto _ : state) {
        (void)_;
        const auto snap = loop.snapshotBht();
        loop.restoreBht(snap);
        benchmark::DoNotOptimize(snap.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoopSnapshotRestore);

void
BM_CoreSimulation(benchmark::State &state)
{
    const Program prog =
        buildWorkload(categoryProfiles()[0], 0, SuiteOptions{}.seed);
    SimConfig cfg;
    cfg.useLocal = true;
    cfg.repair.kind = RepairKind::ForwardWalk;
    for (auto _ : state) {
        (void)_;
        OooCore core(prog, cfg);
        core.run(20000);
        benchmark::DoNotOptimize(core.stats().cycles);
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_CoreSimulation)->Unit(benchmark::kMillisecond);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        (void)_;
        const Program prog = buildWorkload(
            categoryProfiles()[0], 0, SuiteOptions{}.seed);
        benchmark::DoNotOptimize(prog.blocks.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadGeneration);

void
BM_CoreStepCycle(benchmark::State &state)
{
    // One fixed program: per-iteration cost here is the stepCycle loop
    // alone (the core persists across iterations), so data-layout
    // changes show up undiluted by construction or suite orchestration;
    // items/s is simulated instructions per second.
    const Program prog =
        buildWorkload(categoryProfiles()[0], 0, SuiteOptions{}.seed);
    SimConfig cfg;
    cfg.useLocal = true;
    cfg.repair.kind = RepairKind::ForwardWalk;
    OooCore core(prog, cfg);
    core.run(20000);  // prime predictors and caches
    constexpr std::uint64_t chunk = 10000;
    for (auto _ : state) {
        (void)_;
        core.run(chunk);
        benchmark::DoNotOptimize(core.stats().cycles);
    }
    state.SetItemsProcessed(state.iterations() * chunk);
}
BENCHMARK(BM_CoreStepCycle);

} // namespace

BENCHMARK_MAIN();
