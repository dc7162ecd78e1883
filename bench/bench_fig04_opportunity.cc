/**
 * @file
 * Figure 4 reproduction: the MPKI opportunity an ideal local predictor
 * has on top of TAGE, per workload category, and the fraction of that
 * opportunity that survives when the local predictor's BHT state is
 * never repaired.
 *
 * The "highly accurate local branch predictor with no misprediction" of
 * the paper is realized as an analysis oracle: the workload generator
 * owns every branch's behaviour, so TAGE mispredictions on branches
 * whose behaviour is a deterministic function of their own history
 * (loop/forward exits and repeating patterns) are exactly the
 * mispredictions an ideal local predictor would remove. The no-repair
 * bar comes from the full pipeline simulation.
 *
 * Also prints the Table 1 workload census.
 */

#include <map>

#include "bench/bench_common.hh"
#include "bpu/tage.hh"
#include "common/stats.hh"
#include "workload/executor.hh"

using namespace lbp;
using namespace lbp::bench;

namespace {

struct Opportunity
{
    std::uint64_t instrs = 0;
    std::uint64_t tageMisp = 0;
    std::uint64_t localMisp = 0;  ///< on locally-predictable branches
};

/** Functional TAGE pass classifying mispredictions by behaviour kind. */
Opportunity
measureOpportunity(const Program &prog, std::uint64_t instrs)
{
    std::map<Addr, bool> locally_predictable;
    for (const auto &br : prog.branches) {
        const BranchBehavior *b = br.behavior.get();
        locally_predictable[br.pc] =
            dynamic_cast<const LoopExitBehavior *>(b) != nullptr ||
            dynamic_cast<const PatternBehavior *>(b) != nullptr;
    }

    Executor exec(prog);
    TagePredictor tage;
    Opportunity opp;
    while (exec.instCount() < instrs) {
        const DynInstDesc &d = exec.next();
        if (d.cls == InstClass::Jump) {
            tage.specUpdateHist(d.pc, true);
            continue;
        }
        if (d.cls != InstClass::CondBranch)
            continue;
        TagePredStorage p;
        const bool pred = tage.predict(d.pc, p);
        tage.specUpdateHist(d.pc, d.taken);
        tage.train(d.pc, d.taken, p);
        if (pred != d.taken) {
            ++opp.tageMisp;
            if (locally_predictable[d.pc])
                ++opp.localMisp;
        }
    }
    opp.instrs = exec.instCount();
    return opp;
}

} // namespace

int
main()
{
    Figure fig(
        "Figure 4: MPKI opportunity of an ideal local predictor, and "
        "what no-repair retains");
    const std::size_t no_repair_id =
        fig.add("no-repair", fig.withScheme(RepairKind::NoRepair));
    fig.run();
    const SuiteResult &no_repair = fig.result(no_repair_id);

    // Table 1 census.
    {
        std::map<std::string, std::pair<unsigned, BranchCensus>> census;
        for (const Program &p : fig.suite()) {
            auto &[count, agg] = census[p.category];
            ++count;
            const BranchCensus c = p.census();
            agg.loops += c.loops;
            agg.forwardExits += c.forwardExits;
            agg.patterns += c.patterns;
            agg.correlated += c.correlated;
            agg.random += c.random;
        }
        TextTable t({"Category (Table 1)", "Workloads", "loops",
                     "fwd-exits", "patterns", "correlated", "random"});
        for (const auto &[cat, entry] : census) {
            const auto &[count, c] = entry;
            t.addRow({cat, std::to_string(count),
                      std::to_string(c.loops),
                      std::to_string(c.forwardExits),
                      std::to_string(c.patterns),
                      std::to_string(c.correlated),
                      std::to_string(c.random)});
        }
        std::printf("%s\n", t.render().c_str());
    }

    struct Acc
    {
        Opportunity opp;
        std::uint64_t baseMisp = 0, baseInstr = 0;
        std::uint64_t nrMisp = 0, nrInstr = 0;
    };
    std::map<std::string, Acc> by_cat;
    for (std::size_t i = 0; i < fig.suite().size(); ++i) {
        Acc &a = by_cat[fig.suite()[i].category];
        const Opportunity o = measureOpportunity(
            fig.suite()[i],
            fig.base().warmupInstrs + fig.base().measureInstrs);
        a.opp.instrs += o.instrs;
        a.opp.tageMisp += o.tageMisp;
        a.opp.localMisp += o.localMisp;
        a.baseMisp += fig.baseline().runs[i].stats.mispredicts;
        a.baseInstr += fig.baseline().runs[i].stats.retiredInstrs;
        a.nrMisp += no_repair.runs[i].stats.mispredicts;
        a.nrInstr += no_repair.runs[i].stats.retiredInstrs;
    }

    TextTable t({"Category", "ideal-local MPKI redn",
                 "no-repair MPKI redn", "opportunity retained"});
    Acc all;
    for (const auto &[cat, a] : by_cat) {
        all.opp.tageMisp += a.opp.tageMisp;
        all.opp.localMisp += a.opp.localMisp;
        all.baseMisp += a.baseMisp;
        all.baseInstr += a.baseInstr;
        all.nrMisp += a.nrMisp;
        all.nrInstr += a.nrInstr;
    }
    const auto row = [&](const std::string &name, const Acc &a) {
        const double ideal =
            a.opp.tageMisp
                ? 100.0 * a.opp.localMisp / a.opp.tageMisp
                : 0.0;
        const double base_mpki =
            a.baseInstr ? 1000.0 * a.baseMisp / a.baseInstr : 0.0;
        const double nr_mpki =
            a.nrInstr ? 1000.0 * a.nrMisp / a.nrInstr : 0.0;
        const double nr_redn =
            base_mpki > 0.0 ? 100.0 * (base_mpki - nr_mpki) / base_mpki
                            : 0.0;
        t.addRow({name, fmtPercent(ideal / 100.0, 1),
                  fmtPercent(nr_redn / 100.0, 1),
                  fmtPercent(ideal > 0.0 ? nr_redn / ideal : 0.0, 1)});
    };
    for (const auto &[cat, a] : by_cat)
        row(cat, a);
    row("All", all);
    std::printf("%s\n", t.render().c_str());
    std::printf("paper: ~44%% MPKI reduction opportunity across "
                "workloads; with no repair almost all of it is lost, "
                "and MM/BP actually lose performance.\n");
    return fig.finish();
}
