/**
 * @file
 * Figure 9 reproduction: IPC impact per category when the BHT is only
 * updated at retirement, and when the speculative BHT state is never
 * repaired — the two "avoid the repair problem" non-solutions —
 * normalized against perfect repair.
 */

#include "bench/bench_common.hh"
#include "common/stats.hh"

using namespace lbp;
using namespace lbp::bench;

int
main()
{
    Context ctx = Context::make(
        "Figure 9: update-at-retire and no-repair, per category");

    const SuiteResult &perfect = ctx.perfect();
    const SuiteResult &retire =
        ctx.run(ctx.withScheme(RepairKind::RetireUpdate));
    const SuiteResult &norep =
        ctx.run(ctx.withScheme(RepairKind::NoRepair));

    const auto agg_p = aggregateByCategory(ctx.baseline, perfect);
    const auto agg_r = aggregateByCategory(ctx.baseline, retire);
    const auto agg_n = aggregateByCategory(ctx.baseline, norep);

    TextTable t({"Category", "perfect IPC", "retire IPC", "no-repair IPC",
                 "retire %of perfect"});
    for (std::size_t i = 0; i < agg_p.size(); ++i) {
        t.addRow({agg_p[i].name,
                  fmtPercent(agg_p[i].ipcGainPct / 100.0, 2),
                  fmtPercent(agg_r[i].ipcGainPct / 100.0, 2),
                  fmtPercent(agg_n[i].ipcGainPct / 100.0, 2),
                  fmtPercent(retainedPct(agg_r[i].ipcGainPct,
                                         agg_p[i].ipcGainPct) /
                                 100.0, 0)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper: update-at-retire retains ~41%% of perfect "
                "gains; no repair retains none, with MM/BP losing "
                "performance outright.\n");
    return reportThroughput(ctx);
}
