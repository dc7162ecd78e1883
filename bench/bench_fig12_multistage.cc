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
    Figure fig("Figure 12: multi-stage prediction, split BHT");
    const std::size_t perfect =
        fig.add("perfect", fig.withScheme(RepairKind::Perfect));

    std::vector<std::pair<std::string, std::size_t>> rows;
    const auto declare = [&](const char *label, const char *name,
                             const SimConfig &cfg) {
        rows.emplace_back(label, fig.add(name, cfg));
    };
    {
        SimConfig cfg = fig.withScheme(RepairKind::ForwardWalk);
        cfg.repair.ports = {32, 4, 2};
        declare("forward-walk (128-entry BHT)", "forward-walk", cfg);
    }
    {
        SimConfig cfg = fig.withScheme(RepairKind::MultiStage);
        cfg.repair.ports = {32, 4, 4};
        cfg.repair.msSplitPt = false;
        declare("split BHT 64+64, shared PT", "split-bht-shared-pt", cfg);
    }
    {
        SimConfig cfg = fig.withScheme(RepairKind::MultiStage);
        cfg.repair.ports = {32, 4, 4};
        cfg.repair.msSplitPt = true;
        declare("split BHT 64+64, split PT", "split-bht-split-pt", cfg);
    }
    fig.run();

    TextTable t({"design", "MPKI redn", "IPC gain", "% of perfect",
                 "early resteers/Kmisp"});
    for (const auto &[name, id] : rows) {
        std::uint64_t resteers = 0, misp = 0;
        for (const RunResult &r : fig.result(id).runs) {
            resteers += r.earlyResteers;
            misp += r.stats.mispredicts;
        }
        std::vector<std::string> cells = fig.gainRow({name}, id, perfect);
        cells.push_back(
            fmtDouble(misp ? 1000.0 * resteers / misp : 0.0, 0));
        t.addRow(cells);
    }

    std::printf("%s\n", t.render().c_str());
    std::printf("paper: the split-BHT designs trail forward-walk "
                "(re-steer delay + 64-entry tables) but need no extra "
                "BHT ports for repair; shared vs split PT is a minor "
                "difference.\n");
    return fig.finish();
}
