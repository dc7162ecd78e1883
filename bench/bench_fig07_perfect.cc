/**
 * @file
 * Figure 7 reproduction: the best-case potential of CBPw-Loop with
 * perfect, instantaneous BHT repair.
 *   (a) MPKI reduction over TAGE per category for Loop64/128/256,
 *   (b) IPC gain per category for the same configurations,
 *   (c) the per-workload IPC S-curve for CBPw-Loop128, with the named
 *       standout workloads the paper discusses.
 */

#include "bench/bench_common.hh"
#include "common/stats.hh"

using namespace lbp;
using namespace lbp::bench;

int
main()
{
    Context ctx = Context::make(
        "Figure 7: CBPw-Loop potential with perfect repair");

    const struct
    {
        const char *name;
        LoopConfig loop;
    } sizes[] = {
        {"CBPw-Loop64", LoopConfig::entries64()},
        {"CBPw-Loop128", LoopConfig::entries128()},
        {"CBPw-Loop256", LoopConfig::entries256()},
    };

    const SuiteResult *results[3];
    for (int i = 0; i < 3; ++i) {
        SimConfig cfg = ctx.withScheme(RepairKind::Perfect);
        cfg.repair.loop = sizes[i].loop;
        results[i] = &ctx.run(cfg);
    }

    // (a) + (b): per-category rows for each size.
    for (int i = 0; i < 3; ++i) {
        std::printf("--- %s (PT %.2f KB) ---\n", sizes[i].name,
                    results[i]->runs.front().localKB);
        TextTable t({"Category", "MPKI redn (7a)", "IPC gain (7b)"});
        for (const CategoryAgg &c :
             aggregateByCategory(ctx.baseline, *results[i])) {
            t.addRow({c.name, fmtPercent(c.mpkiReductionPct / 100.0, 1),
                      fmtPercent(c.ipcGainPct / 100.0, 2)});
        }
        std::printf("%s\n", t.render().c_str());
    }
    std::printf("paper: MPKI redn 28.3%% / 30.5%% / 31.2%% and IPC gain "
                "3.6%% / 3.8%% / 3.95%% for Loop64/128/256.\n\n");

    // (c) S-curve for Loop128.
    const auto curve = ipcSCurve(ctx.baseline, *results[1]);
    std::printf("--- IPC S-curve, CBPw-Loop128 (7c) ---\n");
    const std::size_t n = curve.size();
    const std::size_t picks[] = {0,       n / 10,     n / 4, n / 2,
                                 3 * n / 4, 9 * n / 10, n - 1};
    TextTable t({"percentile", "workload", "IPC gain"});
    for (std::size_t p : picks) {
        t.addRow({fmtDouble(100.0 * p / (n - 1), 0) + "%",
                  curve[p].first, fmtPercent(curve[p].second / 100.0, 2)});
    }
    std::printf("%s\n", t.render().c_str());

    std::printf("named standouts:\n");
    for (const auto &[name, gain] : curve) {
        if (name == "cloud-compression" || name == "tabletmark-email" ||
            name == "sysmark-photoshop" || name == "eembc-dither") {
            std::printf("  %-20s %+0.2f%%\n", name.c_str(), gain);
        }
    }
    std::printf("paper: cloud-compression and tabletmark-email gain "
                ">15%%; eembc-dither loses (BHT/PT thrash) and only "
                "recovers at 256 entries.\n");
    return reportThroughput(ctx);
}
