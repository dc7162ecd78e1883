/**
 * @file
 * Figure 8 reproduction: the average and maximum number of BHT entries
 * that need repair per misprediction (distinct PCs speculatively
 * updated after the mispredicting branch), measured under perfect
 * repair with CBPw-Loop128 across the suite.
 *
 * `--port-analysis <csv>` additionally runs a forensics-enabled
 * forward-walk pass and writes the repair-port sensitivity table
 * (repairs needed vs available OBQ read / BHT write ports) the paper's
 * port-cost argument rests on — see docs/SWEEP.md.
 */

#include <algorithm>
#include <cstring>
#include <fstream>

#include "bench/bench_common.hh"
#include "common/stats.hh"
#include "obs/port_analysis.hh"

using namespace lbp;
using namespace lbp::bench;

namespace {

/**
 * The --port-analysis pass: per-squash OBQ-walk and BHT-write work
 * from the forensics channel, aggregated over candidate port counts.
 * Runs outside the suite cache — observability is excluded from the
 * cache key, so cached results carry no forensics records.
 */
void
portAnalysisPass(const Context &ctx, const char *csv_path)
{
    SimConfig cfg = ctx.withScheme(RepairKind::ForwardWalk);
    cfg.obs.forensics = true;
    const SuiteResult res = ctx.runUncached(cfg);

    std::vector<const ObsRun *> obs;
    std::uint64_t records = 0;
    for (const RunResult &r : res.runs) {
        if (r.obs) {
            obs.push_back(r.obs.get());
            records += r.obs->squashes.size();
        }
    }
    const auto rows = portAnalysis(obs, {1, 2, 4, 8});
    std::ofstream out(csv_path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", csv_path);
        std::exit(1);
    }
    writePortAnalysisCsv(out, rows);
    std::printf("\nrepair-port sensitivity (forward-walk, %llu squash "
                "records):\n%s",
                static_cast<unsigned long long>(records),
                formatPortAnalysis(rows).c_str());
    std::printf("wrote port-analysis CSV to %s\n", csv_path);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *port_csv = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--port-analysis") == 0 &&
            i + 1 < argc) {
            port_csv = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--port-analysis <csv>]\n", argv[0]);
            return 1;
        }
    }

    Context ctx = Context::make(
        "Figure 8: BHT repairs required per misprediction");

    const SuiteResult &res = ctx.perfect();

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

    if (port_csv)
        portAnalysisPass(ctx, port_csv);
    return reportThroughput(ctx);
}
