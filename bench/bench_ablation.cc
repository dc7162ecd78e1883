/**
 * @file
 * Ablation studies for the design choices DESIGN.md section 7 calls
 * out (not a paper figure): the exit-earned confidence policy, the
 * optional WITHLOOP chooser, the future-file organization the paper
 * rejects in section 2.6, and the multi-stage defer-stage depth.
 */

#include "bench/bench_common.hh"
#include "common/stats.hh"

using namespace lbp;
using namespace lbp::bench;

int
main()
{
    Context ctx = Context::make("Ablations (design-choice studies)");

    const SuiteResult &perfect = ctx.perfect();
    const double perfect_ipc = ipcGainPct(ctx.baseline, perfect);
    std::printf("perfect repair reference: %+0.2f%% IPC\n\n",
                perfect_ipc);

    const auto row = [&](TextTable &t, const std::string &name,
                         const SimConfig &cfg) {
        const SuiteResult &res = ctx.run(cfg);
        const double ipc = ipcGainPct(ctx.baseline, res);
        t.addRow({name,
                  fmtPercent(mpkiReductionPct(ctx.baseline, res) / 100.0,
                             1),
                  fmtPercent(ipc / 100.0, 2),
                  fmtPercent(retainedPct(ipc, perfect_ipc) / 100.0, 0)});
    };

    // ---- A. PT confidence threshold -----------------------------------
    {
        std::printf("--- A: PT confidence threshold (forward-walk vs "
                    "no-repair) ---\n");
        TextTable t({"config", "MPKI redn", "IPC gain", "% of perfect"});
        for (const unsigned thr : {1u, 3u, 5u, 7u}) {
            for (const RepairKind kind :
                 {RepairKind::ForwardWalk, RepairKind::NoRepair}) {
                SimConfig cfg = ctx.withScheme(kind);
                cfg.repair.ports = {32, 4, 2};
                cfg.repair.loop.ptConfThreshold = thr;
                row(t, std::string(repairKindName(kind)) + " thr=" +
                           std::to_string(thr),
                    cfg);
            }
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("higher thresholds silence desynchronized entries "
                    "harder: no-repair's losses shrink while good "
                    "repair gives a little coverage back.\n\n");
    }

    // ---- B. Confidence penalty ----------------------------------------
    {
        std::printf("--- B: confidence penalty on a wrong call ---\n");
        TextTable t({"config", "MPKI redn", "IPC gain", "% of perfect"});
        for (const unsigned pen : {1u, 2u, 7u}) {
            for (const RepairKind kind :
                 {RepairKind::ForwardWalk, RepairKind::NoRepair}) {
                SimConfig cfg = ctx.withScheme(kind);
                cfg.repair.ports = {32, 4, 2};
                cfg.repair.loop.ptConfPenalty = pen;
                row(t, std::string(repairKindName(kind)) + " pen=" +
                           std::to_string(pen),
                    cfg);
            }
        }
        std::printf("%s\n", t.render().c_str());
    }

    // ---- C. WITHLOOP chooser ------------------------------------------
    {
        std::printf("--- C: global WITHLOOP chooser (CBP-style) ---\n");
        TextTable t({"config", "MPKI redn", "IPC gain", "% of perfect"});
        for (const bool chooser : {false, true}) {
            for (const RepairKind kind :
                 {RepairKind::ForwardWalk, RepairKind::NoRepair}) {
                SimConfig cfg = ctx.withScheme(kind);
                cfg.repair.ports = {32, 4, 2};
                cfg.repair.useChooser = chooser;
                row(t, std::string(repairKindName(kind)) +
                           (chooser ? " +chooser" : " -chooser"),
                    cfg);
            }
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("a global trust counter mostly turns an unrepaired "
                    "predictor off; the paper's no-repair *losses* "
                    "imply their design lets wrong overrides through, "
                    "hence chooser-off is our default.\n\n");
    }

    // ---- D. Future file (section 2.6, rejected for power) -------------
    {
        std::printf("--- D: future-file organization vs search window "
                    "---\n");
        TextTable t({"config", "MPKI redn", "IPC gain", "% of perfect"});
        for (const unsigned w : {2u, 4u, 16u, 64u}) {
            SimConfig cfg = ctx.withScheme(RepairKind::FutureFile);
            cfg.repair.ports = {64, 4, 2};
            cfg.repair.ffWindow = w;
            row(t, "future-file W=" + std::to_string(w), cfg);
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("accuracy-wise the future file approaches perfect "
                    "repair as the associative window grows — the "
                    "paper rejects it because that window is an "
                    "associative search on the critical prediction "
                    "path (power/latency), not because of accuracy.\n\n");
    }

    // ---- E. Multi-stage defer depth ------------------------------------
    {
        std::printf("--- E: multi-stage defer-stage depth ---\n");
        TextTable t({"config", "MPKI redn", "IPC gain", "% of perfect"});
        for (const unsigned depth : {3u, 5u, 8u}) {
            SimConfig cfg = ctx.withScheme(RepairKind::MultiStage);
            cfg.repair.ports = {32, 4, 4};
            cfg.core.deferDepth = depth;
            row(t, "split-BHT defer@" + std::to_string(depth), cfg);
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("the earlier BHT-Defer sits, the cheaper its "
                    "re-steer; past the alloc-queue entry the design "
                    "stops paying for itself.\n");
    }
    return reportThroughput(ctx);
}
