/**
 * @file
 * lbpsim — command-line front-end for the simulator.
 *
 * Run any workload (or the whole suite) under any predictor/repair
 * configuration and print per-run or aggregated results, optionally as
 * CSV for plotting. Observability flags capture cycle-level pipeline
 * traces, misprediction forensics, and metrics exports (docs/TRACING.md
 * and docs/METRICS.md), and attach the speculative-state auditor.
 *
 *   lbpsim --workload Server:0 --scheme forward-walk --ports 32-4-2
 *   lbpsim --suite 21 --scheme perfect --loop 256 --csv out.csv
 *   lbpsim --workload HPC:1 --scheme forward-walk --trace-out t.json \
 *          --forensics-csv f.csv --top-offenders 10
 *   lbpsim --suite 8 --scheme snapshot --audit --csv audited.csv
 *   lbpsim --list
 *
 * Flags are one table read by the shared parser (common/cli.hh); each
 * configuration flag writes straight into the run's SimConfig.
 *
 * Exit codes: 0 ok, 1 bad usage or unwritable output.
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/stats.hh"
#include "common/telemetry.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/runner.hh"
#include "sim/sweep_spec.hh"
#include "workload/suite.hh"

using namespace lbp;

namespace {

constexpr const char *kTool = "lbpsim";

/** The files and tables a run writes besides its per-run lines. */
struct Outputs
{
    std::string csv;              ///< per-workload results CSV path
    std::string traceOut;         ///< Chrome trace_event JSON path
    std::string traceKonata;      ///< Konata pipeline log path
    std::string forensicsCsv;     ///< per-squash forensics CSV path
    std::string metricsJson;      ///< metrics-registry JSON path
    unsigned topOffenders = 0;    ///< print top-N mispredicting PCs
};

/** One workload by category and index ("Server:0"). */
using WorkloadId = std::pair<std::string, unsigned>;

CliBinder
bindWorkload(std::optional<WorkloadId> &workload)
{
    constexpr unsigned u32Max = std::numeric_limits<unsigned>::max();
    return {[&workload](std::string_view v) {
                const std::size_t colon = v.find(':');
                std::uint64_t n = 0;
                if (colon == std::string_view::npos ||
                    !parseSpecCount(v.substr(colon + 1), n, u32Max))
                    return false;
                workload = {std::string(v.substr(0, colon)),
                            static_cast<unsigned>(n)};
                return true;
            },
            "wants Category:N with N an integer in [0, " +
                std::to_string(u32Max) + "]"};
}

CliBinder
bindSuite(std::optional<SuiteOptions> &suite)
{
    return {[&suite](std::string_view v) {
                unsigned n = 0;
                if (!parseSuiteSize(v, n))
                    return false;
                suite.emplace().maxWorkloads = n;
                return true;
            },
            "wants " + suiteSizeRange()};
}

/** "baseline" is TAGE alone; any other name attaches CBPw-Loop with
 *  that repair scheme. */
CliBinder
bindScheme(SimConfig &cfg)
{
    return {[&cfg](std::string_view v) {
                if (v == "baseline") {
                    cfg.useLocal = false;
                    return true;
                }
                if (!sweepSchemeKind(v, cfg.repair.kind))
                    return false;
                cfg.useLocal = true;
                return true;
            },
            "must be baseline or a repair scheme (see --help)"};
}

void
printRun(const RunResult &r, bool audited)
{
    std::printf("%-22s %-9s IPC %6.3f  MPKI %6.2f  misp %7llu  "
                "overrides %7llu (%5.1f%% ok)  repairs %6llu\n",
                r.workload.c_str(), r.category.c_str(), r.ipc, r.mpki,
                static_cast<unsigned long long>(r.stats.mispredicts),
                static_cast<unsigned long long>(r.overrides),
                r.overrides ? 100.0 * r.overridesCorrect / r.overrides
                            : 0.0,
                static_cast<unsigned long long>(r.repairs));
    if (audited) {
        std::printf("  audit: %llu checks, %llu violations, "
                    "%llu resyncs, %llu skipped, %llu uncovered\n",
                    static_cast<unsigned long long>(r.auditChecks),
                    static_cast<unsigned long long>(r.auditViolations),
                    static_cast<unsigned long long>(r.auditResyncs),
                    static_cast<unsigned long long>(r.auditSkipped),
                    static_cast<unsigned long long>(r.auditUncovered));
    }
}

void
writeCsv(const std::string &path, const SuiteResult &res)
{
    std::ofstream out = openOutput(kTool, path);
    const SuiteTelemetry &tel = res.telemetry;
    out << "# wall_s=" << tel.wallSeconds
        << " minstr_per_s=" << tel.minstrPerSec()
        << " jobs=" << tel.jobs << '\n';
    // Columns come from the shared metric table (src/obs/metrics.cc):
    // one naming authority for CSV, --metrics-json and docs/METRICS.md.
    out << "workload,category";
    for (const MetricDesc<RunResult> &d : runMetrics())
        out << ',' << d.name;
    out << '\n';
    for (const RunResult &r : res.runs) {
        out << r.workload << ',' << r.category;
        for (const MetricDesc<RunResult> &d : runMetrics()) {
            const double v = d.get(r);
            out << ',';
            if (d.integral)
                out << static_cast<std::uint64_t>(v);
            else
                out << v;
        }
        out << '\n';
    }
    std::printf("wrote %zu rows to %s\n", res.runs.size(),
                path.c_str());
}

/** Write every observability artifact the flags requested. */
void
writeObsOutputs(const Outputs &outputs, const std::vector<RunResult> &runs)
{
    std::vector<const ObsRun *> obs;
    for (const RunResult &r : runs)
        if (r.obs)
            obs.push_back(r.obs.get());
    if (obs.empty())
        return;

    if (!outputs.traceOut.empty()) {
        std::ofstream out = openOutput(kTool, outputs.traceOut);
        writeChromeTrace(out, obs);
        std::printf("wrote Chrome trace (%zu runs) to %s\n",
                    obs.size(), outputs.traceOut.c_str());
    }
    if (!outputs.traceKonata.empty()) {
        if (obs.size() == 1) {
            std::ofstream out = openOutput(kTool, outputs.traceKonata);
            writeKonata(out, *obs.front());
            std::printf("wrote Konata log to %s\n",
                        outputs.traceKonata.c_str());
        } else {
            // One file per run, workload tag inserted before the
            // extension (konataRunPath; naming in docs/TRACING.md).
            for (const ObsRun *o : obs) {
                const std::string path =
                    konataRunPath(outputs.traceKonata, o->workload);
                std::ofstream out = openOutput(kTool, path);
                writeKonata(out, *o);
            }
            std::printf("wrote %zu Konata logs (one per workload, "
                        "first: %s)\n",
                        obs.size(),
                        konataRunPath(outputs.traceKonata,
                                      obs.front()->workload)
                            .c_str());
        }
    }
    if (!outputs.forensicsCsv.empty()) {
        std::ofstream out = openOutput(kTool, outputs.forensicsCsv);
        writeForensicsCsv(out, obs);
        std::size_t rows = 0;
        for (const ObsRun *o : obs)
            rows += o->squashes.size();
        std::printf("wrote %zu squash rows to %s\n", rows,
                    outputs.forensicsCsv.c_str());
    }
    if (outputs.topOffenders > 0) {
        const auto rows = topOffenders(obs, outputs.topOffenders);
        std::printf("\ntop %zu mispredicting PCs:\n%s", rows.size(),
                    formatOffenders(rows).c_str());
    }
    if (!outputs.metricsJson.empty()) {
        std::ofstream out = openOutput(kTool, outputs.metricsJson);
        out << "{\n  \"runs\": [\n";
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const RunResult &r = runs[i];
            MetricsRegistry reg;
            registerMetrics(reg, runMetrics(), r);
            if (r.obs) {
                reg.histogram("resolve_latency", "cycles",
                              "Fetch-to-resolve latency per squashed "
                              "branch",
                              r.obs->resolveLatency);
                reg.histogram("rob_occupancy_at_squash", "entries",
                              "ROB occupancy at each misprediction "
                              "flush",
                              r.obs->robOccupancy);
                reg.histogram("repair_walk_length", "entries",
                              "OBQ entries examined per repair episode",
                              r.obs->walkLength);
            }
            out << "    {\"workload\": \"" << r.workload
                << "\", \"category\": \"" << r.category
                << "\", \"metrics\": ";
            reg.writeJson(out);
            out << "    }" << (i + 1 < runs.size() ? "," : "") << '\n';
        }
        out << "  ]\n}\n";
        std::printf("wrote metrics for %zu runs to %s\n", runs.size(),
                    outputs.metricsJson.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    SimConfig cfg;
    Outputs outputs;
    std::optional<WorkloadId> workload;
    std::optional<SuiteOptions> suiteOpts;
    unsigned jobs = 0;  // 0 = REPRO_JOBS / hardware
    bool list = false;
    const CliSpec cli = {
        kTool,
        "lbpsim — local-branch-predictor repair simulator",
        {
            {"--list", nullptr, nullptr,
             "print the workload categories and their sizes",
             cliAssign(list, true)},
            {"--workload", nullptr, "<Category:N>",
             "simulate one workload (e.g. Server:0)", bindWorkload(workload)},
            {"--suite", nullptr, "<N|all>",
             "simulate N suite workloads (category-proportional;\n"
             "0 or all = the whole suite)",
             bindSuite(suiteOpts)},
            {"--scheme", nullptr, "<name>",
             "baseline | perfect | no-repair | retire-update |\n"
             "backward-walk | snapshot | forward-walk |\n"
             "limited-pc | multi-stage | future-file",
             bindScheme(cfg)},
            {"--ports", nullptr, "<M-N-P>",
             "OBQ/SQ entries (2-4096), read ports and\n"
             "BHT write ports (1-64)",
             cliParsed(cfg.repair.ports, parseRepairPorts,
                       "wants " + repairPortsRange())},
            {"--coalesce", nullptr, nullptr, "enable OBQ entry merging",
             cliAssign(cfg.repair.coalesce, true)},
            {"--limited-m", nullptr, "<M>",
             "PCs repaired by limited-pc (1-16)",
             cliParsed(cfg.repair.limitedM, parseLimitedM,
                       "wants " + limitedMRange())},
            {"--loop", nullptr, "<64|128|256>", "CBPw-Loop BHT/PT entries",
             cliParsed(cfg.repair.loop, parseLoopConfig,
                       "must be 64, 128 or 256")},
            {"--tage", nullptr, "<7|9|57>", "TAGE configuration (KB)",
             cliParsed(cfg.tage, parseTageConfig, "must be 7, 9 or 57")},
            {"--warmup", nullptr, "<N>", "warm-up instruction budget",
             cliCount(cfg.warmupInstrs)},
            {"--instr", nullptr, "<N>", "measured instruction budget",
             cliCount(cfg.measureInstrs)},
            {"--csv", nullptr, "<path>", "write per-workload results as CSV",
             cliText(outputs.csv)},
            {"--jobs", nullptr, "<N>",
             "worker threads for suite builds and runs\n"
             "(default: REPRO_JOBS, else hardware concurrency)",
             cliCount(jobs)},
            {"--trace-out", nullptr, "<path>",
             "write a Chrome trace_event JSON of pipeline\n"
             "stage events (chrome://tracing, Perfetto)",
             cliText(outputs.traceOut)},
            {"--trace-konata", nullptr, "<path>",
             "write a Konata-style pipeline log",
             cliText(outputs.traceKonata)},
            {"--trace-window", nullptr, "<cycles>",
             "cycle span the dumped trace keeps (default\n"
             "20000; memory stays fixed regardless)",
             cliCount(cfg.obs.traceWindowCycles)},
            {"--forensics-csv", nullptr, "<path>",
             "write one CSV row per misprediction squash\n"
             "(PC, predictor component, pollution, repair)",
             cliText(outputs.forensicsCsv)},
            {"--forensics-stride", nullptr, "<N>",
             "record every Nth squash (default 1 = all);\n"
             "bounds forensics memory on long runs",
             cliCount(cfg.obs.forensicsStride)},
            {"--metrics-json", nullptr, "<path>",
             "write the metrics registry (counters +\n"
             "histograms) as JSON, per run",
             cliText(outputs.metricsJson)},
            {"--top-offenders", nullptr, "<N>",
             "print the N PCs causing the most squashes",
             cliCount(outputs.topOffenders)},
            {"--audit", nullptr, nullptr,
             "attach the invariant auditor (auditable\n"
             "schemes only): an audit: line per run and\n"
             "the audit_* CSV columns",
             cliAssign(cfg.obs.audit, true)},
        }};
    if (const std::optional<int> rc = parseCli(cli, argc, argv))
        return *rc;
    if (cfg.obs.audit && !auditableConfig(cfg)) {
        std::fprintf(stderr,
                     "%s: --audit wants an auditable scheme (%s), "
                     "got '%s'\n",
                     kTool, auditableSchemes().c_str(),
                     cfg.useLocal ? repairKindName(cfg.repair.kind)
                                  : "baseline");
        return 1;
    }

    if (list) {
        std::printf("categories (Table 1):\n");
        for (std::size_t i = 0; i < categoryProfiles().size(); ++i) {
            const auto &p = categoryProfiles()[i];
            std::printf("  [%zu] %-10s %u workloads\n", i,
                        p.name.c_str(), p.count);
        }
        std::printf("\nusage: --workload <Category:N> or --suite "
                    "<N|all>\n");
        return 0;
    }

    cfg.obs.trace =
        !outputs.traceOut.empty() || !outputs.traceKonata.empty();
    cfg.obs.forensics = !outputs.forensicsCsv.empty() ||
                        !outputs.metricsJson.empty() ||
                        outputs.topOffenders > 0;

    if (workload) {
        const auto &[cat_name, idx] = *workload;
        const CategoryProfile *prof = nullptr;
        for (const auto &p : categoryProfiles())
            if (p.name == cat_name)
                prof = &p;
        if (!prof) {
            std::fprintf(stderr, "%s: unknown category %s (try --list)\n",
                         kTool, cat_name.c_str());
            return 1;
        }
        if (idx >= prof->count) {
            std::fprintf(stderr, "%s: %s has only %u workloads\n", kTool,
                         cat_name.c_str(), prof->count);
            return 1;
        }
        const Program prog =
            buildWorkload(*prof, idx, SuiteOptions{}.seed);
        Stopwatch sw;
        const RunResult r = runOne(prog, cfg);
        const double wall = sw.seconds();
        printRun(r, cfg.obs.audit);
        const std::uint64_t sim = r.stats.retiredInstrs + cfg.warmupInstrs;
        std::printf("wall %.2fs, %.2f Msim-instr/s\n", wall,
                    wall > 0.0
                        ? static_cast<double>(sim) / wall / 1e6
                        : 0.0);
        writeObsOutputs(outputs, {r});
        return 0;
    }

    if (!suiteOpts) {
        std::fputs(cliUsage(cli).c_str(), stdout);
        return 1;
    }

    const auto suite = buildSuite(*suiteOpts, jobs);
    std::printf("running %zu workloads, scheme=%s, jobs=%u ...\n",
                suite.size(),
                cfg.useLocal ? repairKindName(cfg.repair.kind) : "baseline",
                resolveJobs(jobs));
    const SuiteResult res = runSuite(suite, cfg, jobs);
    for (const RunResult &r : res.runs)
        printRun(r, cfg.obs.audit);

    // Aggregate footer.
    std::uint64_t misp = 0, instr = 0, cyc = 0;
    for (const RunResult &r : res.runs) {
        misp += r.stats.mispredicts;
        instr += r.stats.retiredInstrs;
        cyc += r.stats.cycles;
    }
    std::printf("\naggregate: MPKI %.2f, IPC %.3f over %llu "
                "instructions\n",
                instr ? 1000.0 * misp / instr : 0.0,
                cyc ? static_cast<double>(instr) / cyc : 0.0,
                static_cast<unsigned long long>(instr));
    std::printf("wall %.2fs, %.2f Msim-instr/s (jobs=%u)\n",
                res.telemetry.wallSeconds, res.telemetry.minstrPerSec(),
                res.telemetry.jobs);

    if (!outputs.csv.empty())
        writeCsv(outputs.csv, res);
    writeObsOutputs(outputs, res.runs);
    return 0;
}
