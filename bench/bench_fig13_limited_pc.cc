/**
 * @file
 * Figure 13 reproduction: limited-PC repair as the number of repaired
 * PCs M scales, including the paper's alternative policy of
 * invalidating the non-repaired polluted entries (section 3.3 found
 * leave-as-is better on their traces; both are measured here).
 */

#include "bench/bench_common.hh"
#include "common/stats.hh"

using namespace lbp;
using namespace lbp::bench;

int
main()
{
    Context ctx = Context::make("Figure 13: limited-PC repair");

    const SuiteResult &perfect = ctx.perfect();
    const double perfect_ipc = ipcGainPct(ctx.baseline, perfect);

    TextTable t({"config", "MPKI redn", "IPC gain", "% of perfect"});
    for (const unsigned m : {2u, 4u, 8u, 16u}) {
        SimConfig cfg = ctx.withScheme(RepairKind::LimitedPc);
        cfg.repair.limitedM = m;
        cfg.repair.ports.bhtWritePorts = std::min(m, 4u);
        const SuiteResult &res = ctx.run(cfg);
        const double ipc = ipcGainPct(ctx.baseline, res);
        t.addRow({std::to_string(m) + "PC repair",
                  fmtPercent(mpkiReductionPct(ctx.baseline, res) / 100.0,
                             1),
                  fmtPercent(ipc / 100.0, 2),
                  fmtPercent(retainedPct(ipc, perfect_ipc) / 100.0, 0)});
    }
    {
        SimConfig cfg = ctx.withScheme(RepairKind::LimitedPc);
        cfg.repair.limitedM = 4;
        cfg.repair.limitedInvalidate = true;
        const SuiteResult &res = ctx.run(cfg);
        const double ipc = ipcGainPct(ctx.baseline, res);
        t.addRow({"4PC + invalidate rest",
                  fmtPercent(mpkiReductionPct(ctx.baseline, res) / 100.0,
                             1),
                  fmtPercent(ipc / 100.0, 2),
                  fmtPercent(retainedPct(ipc, perfect_ipc) / 100.0, 0)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper: 2PC retains 56%% and 4PC 61%% of perfect "
                "gains; even 2PC beats port-limited backward walk "
                "because the right PCs get repaired first.\n");
    return reportThroughput(ctx);
}
