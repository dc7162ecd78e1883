/**
 * @file
 * Figure 14 reproduction — sensitivity studies:
 *  (A) iso-storage: growing TAGE to ~9KB versus spending the same
 *      storage on CBPw-Loop128 plus forward-walk repair on top of the
 *      7.1KB TAGE;
 *  (B) a much larger 57KB TAGE (CBPw 64KB-category) with CBPw-Loop and
 *      the repair techniques on top.
 */

#include "bench/bench_common.hh"
#include "common/stats.hh"

using namespace lbp;
using namespace lbp::bench;

int
main()
{
    Context ctx = Context::make("Figure 14: sensitivity studies");

    // ---- (A) iso-storage --------------------------------------------
    std::printf("--- 14A: iso-storage comparison ---\n");
    TextTable ta({"configuration", "storage KB", "IPC gain vs TAGE7"});
    {
        SimConfig big = ctx.base;
        big.tage = TageConfig::kb9();
        const SuiteResult &res = ctx.run(big);
        ta.addRow({"TAGE scaled to ~9KB",
                   fmtDouble(big.tage.storageKB(), 1),
                   fmtPercent(ipcGainPct(ctx.baseline, res) / 100.0,
                              2)});
    }
    {
        SimConfig cfg = ctx.withScheme(RepairKind::ForwardWalk);
        cfg.repair.ports = {32, 4, 2};
        cfg.repair.coalesce = true;
        const SuiteResult &res = ctx.run(cfg);
        ta.addRow({"TAGE7.1 + Loop128 + fwd-walk",
                   fmtDouble(cfg.tage.storageKB() +
                                 res.runs.front().localKB +
                                 res.runs.front().repairKB, 1),
                   fmtPercent(ipcGainPct(ctx.baseline, res) / 100.0,
                              2)});
    }
    {
        const SuiteResult &res = ctx.perfect();
        ta.addRow({"TAGE7.1 + Loop128 (perfect rep.)", "NA",
                   fmtPercent(ipcGainPct(ctx.baseline, res) / 100.0,
                              2)});
    }
    std::printf("%s\n", ta.render().c_str());
    std::printf("paper: iso-storage TAGE(9KB) gains only ~1%%; "
                "TAGE+Loop+fwd-walk gives ~3x more.\n\n");

    // ---- (B) large 57KB TAGE ----------------------------------------
    std::printf("--- 14B: CBPw-Loop on a 57KB TAGE ---\n");
    SimConfig big_base = ctx.base;
    big_base.tage = TageConfig::kb57();
    const SuiteResult &base57 = ctx.run(big_base);
    std::printf("TAGE57 baseline vs TAGE7: %+0.2f%% IPC, %+0.1f%% MPKI "
                "redn\n",
                ipcGainPct(ctx.baseline, base57),
                mpkiReductionPct(ctx.baseline, base57));

    TextTable tb({"scheme on TAGE57", "MPKI redn", "IPC gain"});
    const struct
    {
        const char *name;
        RepairKind kind;
        RepairPorts ports;
        bool coalesce;
    } rows[] = {
        {"perfect", RepairKind::Perfect, {32, 4, 2}, false},
        {"forward-walk 32-4-2", RepairKind::ForwardWalk, {32, 4, 2},
         true},
        {"split BHT", RepairKind::MultiStage, {32, 4, 4}, false},
        {"4PC limited", RepairKind::LimitedPc, {32, 4, 4}, false},
    };
    for (const auto &row : rows) {
        SimConfig cfg = big_base;
        cfg.useLocal = true;
        cfg.repair.kind = row.kind;
        cfg.repair.ports = row.ports;
        cfg.repair.coalesce = row.coalesce;
        if (row.kind == RepairKind::LimitedPc)
            cfg.repair.limitedM = 4;
        const SuiteResult &res = ctx.run(cfg);
        tb.addRow({row.name,
                   fmtPercent(mpkiReductionPct(base57, res) / 100.0, 1),
                   fmtPercent(ipcGainPct(base57, res) / 100.0, 2)});
    }
    std::printf("%s\n", tb.render().c_str());
    std::printf("paper: even on a 57KB TAGE, CBPw-Loop with perfect "
                "repair improves IPC by 2.7%%, and each repair "
                "technique keeps most of its efficiency.\n");
    return reportThroughput(ctx);
}
