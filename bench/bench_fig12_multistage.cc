/**
 * @file
 * Figure 12 reproduction: multi-stage prediction with split BHT
 * (BHT-TAGE at fetch + BHT-Defer at the allocation-queue entry), with
 * shared and split PT, compared against forward-walk on the full
 * 128-entry table.
 */

#include "bench/bench_common.hh"
#include "common/stats.hh"

using namespace lbp;
using namespace lbp::bench;

int
main()
{
    Context ctx =
        Context::make("Figure 12: multi-stage prediction, split BHT");

    const SuiteResult &perfect = ctx.perfect();
    const double perfect_ipc = ipcGainPct(ctx.baseline, perfect);

    TextTable t({"design", "MPKI redn", "IPC gain", "% of perfect",
                 "early resteers/Kmisp"});

    const auto addRow = [&](const char *name, const SimConfig &cfg) {
        const SuiteResult &res = ctx.run(cfg);
        const double ipc = ipcGainPct(ctx.baseline, res);
        std::uint64_t resteers = 0, misp = 0;
        for (const RunResult &r : res.runs) {
            resteers += r.earlyResteers;
            misp += r.stats.mispredicts;
        }
        t.addRow({name,
                  fmtPercent(mpkiReductionPct(ctx.baseline, res) / 100.0,
                             1),
                  fmtPercent(ipc / 100.0, 2),
                  fmtPercent(retainedPct(ipc, perfect_ipc) / 100.0, 0),
                  fmtDouble(misp ? 1000.0 * resteers / misp : 0.0, 0)});
    };

    {
        SimConfig cfg = ctx.withScheme(RepairKind::ForwardWalk);
        cfg.repair.ports = {32, 4, 2};
        addRow("forward-walk (128-entry BHT)", cfg);
    }
    {
        SimConfig cfg = ctx.withScheme(RepairKind::MultiStage);
        cfg.repair.ports = {32, 4, 4};
        cfg.repair.msSplitPt = false;
        addRow("split BHT 64+64, shared PT", cfg);
    }
    {
        SimConfig cfg = ctx.withScheme(RepairKind::MultiStage);
        cfg.repair.ports = {32, 4, 4};
        cfg.repair.msSplitPt = true;
        addRow("split BHT 64+64, split PT", cfg);
    }

    std::printf("%s\n", t.render().c_str());
    std::printf("paper: the split-BHT designs trail forward-walk "
                "(re-steer delay + 64-entry tables) but need no extra "
                "BHT ports for repair; shared vs split PT is a minor "
                "difference.\n");
    return reportThroughput(ctx);
}
