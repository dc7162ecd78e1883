/**
 * @file
 * Figure 8 reproduction: the average and maximum number of BHT entries
 * that need repair per misprediction (distinct PCs speculatively
 * updated after the mispredicting branch), measured under perfect
 * repair with CBPw-Loop128 across the suite.
 *
 * The repair-port sensitivity table behind the paper's port-cost
 * argument comes from `lbpsweep --port-analysis` (docs/SWEEP.md).
 */

#include <algorithm>

#include "bench/bench_common.hh"
#include "common/stats.hh"

using namespace lbp;
using namespace lbp::bench;

int
main()
{
    // Every number comes from the perfect-repair run: no baseline.
    Figure fig("Figure 8: BHT repairs required per misprediction",
               false);
    const std::size_t perfect =
        fig.add("perfect", fig.withScheme(RepairKind::Perfect));
    fig.run();
    const SuiteResult &res = fig.result(perfect);

    std::vector<const RunResult *> sorted;
    for (const RunResult &r : res.runs)
        sorted.push_back(&r);
    std::sort(sorted.begin(), sorted.end(),
              [](const RunResult *a, const RunResult *b) {
                  return a->avgRepairsNeeded < b->avgRepairsNeeded;
              });

    double sum_avg = 0.0;
    std::uint64_t global_max = 0;
    for (const RunResult *r : sorted) {
        sum_avg += r->avgRepairsNeeded;
        global_max = std::max(global_max, r->maxRepairsNeeded);
    }

    TextTable t({"workload (sorted by avg)", "avg repairs/misp",
                 "max repairs/misp"});
    const std::size_t n = sorted.size();
    for (std::size_t p :
         {std::size_t{0}, n / 4, n / 2, 3 * n / 4, n - 3, n - 2, n - 1}) {
        if (p >= n)
            continue;
        t.addRow({sorted[p]->workload,
                  fmtDouble(sorted[p]->avgRepairsNeeded, 1),
                  std::to_string(sorted[p]->maxRepairsNeeded)});
    }
    std::printf("%s\n", t.render().c_str());

    std::printf("suite: mean of per-workload averages = %.1f, "
                "global max = %llu\n",
                sum_avg / n, (unsigned long long)global_max);
    std::printf("paper: average ~5 repairs per misprediction (up to "
                "~16 for some workloads); worst case 61 writes.\n");
    return fig.finish();
}
