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
    Figure fig("Ablations (design-choice studies)");
    const std::size_t perfect =
        fig.add("perfect", fig.withScheme(RepairKind::Perfect));

    /** One study: its heading, its rows and the note after its table. */
    struct Study
    {
        const char *heading;
        const char *note;
        std::vector<std::pair<std::string, std::size_t>> rows;
    };
    std::vector<Study> studies;
    const auto row = [&](const std::string &name, const SimConfig &cfg) {
        studies.back().rows.emplace_back(name, fig.add(name, cfg));
    };

    // ---- A. PT confidence threshold -----------------------------------
    studies.push_back(
        {"--- A: PT confidence threshold (forward-walk vs no-repair) ---\n",
         "higher thresholds silence desynchronized entries harder: "
         "no-repair's losses shrink while good repair gives a little "
         "coverage back.\n\n",
         {}});
    for (const unsigned thr : {1u, 3u, 5u, 7u}) {
        for (const RepairKind kind :
             {RepairKind::ForwardWalk, RepairKind::NoRepair}) {
            SimConfig cfg = fig.withScheme(kind);
            cfg.repair.ports = {32, 4, 2};
            cfg.repair.loop.ptConfThreshold = thr;
            row(std::string(repairKindName(kind)) + " thr=" +
                    std::to_string(thr),
                cfg);
        }
    }

    // ---- B. Confidence penalty ----------------------------------------
    studies.push_back(
        {"--- B: confidence penalty on a wrong call ---\n", "", {}});
    for (const unsigned pen : {1u, 2u, 7u}) {
        for (const RepairKind kind :
             {RepairKind::ForwardWalk, RepairKind::NoRepair}) {
            SimConfig cfg = fig.withScheme(kind);
            cfg.repair.ports = {32, 4, 2};
            cfg.repair.loop.ptConfPenalty = pen;
            row(std::string(repairKindName(kind)) + " pen=" +
                    std::to_string(pen),
                cfg);
        }
    }

    // ---- C. WITHLOOP chooser ------------------------------------------
    studies.push_back(
        {"--- C: global WITHLOOP chooser (CBP-style) ---\n",
         "a global trust counter mostly turns an unrepaired predictor "
         "off; the paper's no-repair *losses* imply their design lets "
         "wrong overrides through, hence chooser-off is our default.\n\n",
         {}});
    for (const bool chooser : {false, true}) {
        for (const RepairKind kind :
             {RepairKind::ForwardWalk, RepairKind::NoRepair}) {
            SimConfig cfg = fig.withScheme(kind);
            cfg.repair.ports = {32, 4, 2};
            cfg.repair.useChooser = chooser;
            row(std::string(repairKindName(kind)) +
                    (chooser ? " +chooser" : " -chooser"),
                cfg);
        }
    }

    // ---- D. Future file (section 2.6, rejected for power) -------------
    studies.push_back(
        {"--- D: future-file organization vs search window ---\n",
         "accuracy-wise the future file approaches perfect repair as the "
         "associative window grows — the paper rejects it because that "
         "window is an associative search on the critical prediction "
         "path (power/latency), not because of accuracy.\n\n",
         {}});
    for (const unsigned w : {2u, 4u, 16u, 64u}) {
        SimConfig cfg = fig.withScheme(RepairKind::FutureFile);
        cfg.repair.ports = {64, 4, 2};
        cfg.repair.ffWindow = w;
        row("future-file W=" + std::to_string(w), cfg);
    }

    // ---- E. Multi-stage defer depth ------------------------------------
    studies.push_back(
        {"--- E: multi-stage defer-stage depth ---\n",
         "the earlier BHT-Defer sits, the cheaper its re-steer; past the "
         "alloc-queue entry the design stops paying for itself.\n",
         {}});
    for (const unsigned depth : {3u, 5u, 8u}) {
        SimConfig cfg = fig.withScheme(RepairKind::MultiStage);
        cfg.repair.ports = {32, 4, 4};
        cfg.core.deferDepth = depth;
        row("split-BHT defer@" + std::to_string(depth), cfg);
    }
    fig.run();

    std::printf("perfect repair reference: %+0.2f%% IPC\n\n",
                ipcGainPct(fig.baseline(), fig.result(perfect)));
    for (const Study &study : studies) {
        std::printf("%s", study.heading);
        TextTable t({"config", "MPKI redn", "IPC gain", "% of perfect"});
        for (const auto &[name, id] : study.rows)
            t.addRow(fig.gainRow({name}, id, perfect));
        std::printf("%s\n", t.render().c_str());
        std::printf("%s", study.note);
    }
    return fig.finish();
}
