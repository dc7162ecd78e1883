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
    Figure fig("Figure 14: sensitivity studies");

    // ---- (A) iso-storage --------------------------------------------
    SimConfig tage9 = fig.base();
    tage9.tage = TageConfig::kb9();
    const std::size_t tage9_id = fig.add("tage-9KB", tage9);
    SimConfig fwd = fig.withScheme(RepairKind::ForwardWalk);
    fwd.repair.ports = {32, 4, 2};
    fwd.repair.coalesce = true;
    const std::size_t fwd_id = fig.add("forward-walk+merge", fwd);
    const std::size_t perfect_id =
        fig.add("perfect", fig.withScheme(RepairKind::Perfect));

    // ---- (B) large 57KB TAGE ----------------------------------------
    SimConfig big_base = fig.base();
    big_base.tage = TageConfig::kb57();
    const std::size_t base57_id = fig.add("tage-57KB", big_base);
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
    std::vector<std::size_t> row_ids;
    for (const auto &row : rows) {
        SimConfig cfg = big_base;
        cfg.useLocal = true;
        cfg.repair.kind = row.kind;
        cfg.repair.ports = row.ports;
        cfg.repair.coalesce = row.coalesce;
        if (row.kind == RepairKind::LimitedPc)
            cfg.repair.limitedM = 4;
        row_ids.push_back(
            fig.add(std::string("tage-57KB ") + row.name, cfg));
    }
    fig.run();

    std::printf("--- 14A: iso-storage comparison ---\n");
    TextTable ta({"configuration", "storage KB", "IPC gain vs TAGE7"});
    ta.addRow({"TAGE scaled to ~9KB", fmtDouble(tage9.tage.storageKB(), 1),
               fmtPercent(ipcGainPct(fig.baseline(),
                                     fig.result(tage9_id)) /
                              100.0,
                          2)});
    {
        const SuiteResult &res = fig.result(fwd_id);
        ta.addRow({"TAGE7.1 + Loop128 + fwd-walk",
                   fmtDouble(fwd.tage.storageKB() +
                                 res.runs.front().localKB +
                                 res.runs.front().repairKB, 1),
                   fmtPercent(ipcGainPct(fig.baseline(), res) / 100.0,
                              2)});
    }
    ta.addRow({"TAGE7.1 + Loop128 (perfect rep.)", "NA",
               fmtPercent(ipcGainPct(fig.baseline(),
                                     fig.result(perfect_id)) /
                              100.0,
                          2)});
    std::printf("%s\n", ta.render().c_str());
    std::printf("paper: iso-storage TAGE(9KB) gains only ~1%%; "
                "TAGE+Loop+fwd-walk gives ~3x more.\n\n");

    std::printf("--- 14B: CBPw-Loop on a 57KB TAGE ---\n");
    const SuiteResult &base57 = fig.result(base57_id);
    std::printf("TAGE57 baseline vs TAGE7: %+0.2f%% IPC, %+0.1f%% MPKI "
                "redn\n",
                ipcGainPct(fig.baseline(), base57),
                mpkiReductionPct(fig.baseline(), base57));

    TextTable tb({"scheme on TAGE57", "MPKI redn", "IPC gain"});
    for (std::size_t i = 0; i < row_ids.size(); ++i) {
        const SuiteResult &res = fig.result(row_ids[i]);
        tb.addRow({rows[i].name,
                   fmtPercent(mpkiReductionPct(base57, res) / 100.0, 1),
                   fmtPercent(ipcGainPct(base57, res) / 100.0, 2)});
    }
    std::printf("%s\n", tb.render().c_str());
    std::printf("paper: even on a 57KB TAGE, CBPw-Loop with perfect "
                "repair improves IPC by 2.7%%, and each repair "
                "technique keeps most of its efficiency.\n");
    return fig.finish();
}
