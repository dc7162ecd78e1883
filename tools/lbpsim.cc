/**
 * @file
 * lbpsim — command-line front-end for the simulator.
 *
 * Run any workload (or the whole suite) under any predictor/repair
 * configuration and print per-run or aggregated results, optionally as
 * CSV for plotting. Observability flags capture cycle-level pipeline
 * traces, misprediction forensics, and metrics exports (docs/TRACING.md
 * and docs/METRICS.md).
 *
 *   lbpsim --workload Server:0 --scheme forward-walk --ports 32-4-2
 *   lbpsim --suite 21 --scheme perfect --loop 256 --csv out.csv
 *   lbpsim --workload Web:1 --scheme forward-walk --trace-out t.json \
 *          --forensics-csv f.csv --top-offenders 10
 *   lbpsim --list
 *
 * Exit codes: 0 ok, 1 bad usage (fatal() semantics).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

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

struct Options
{
    std::optional<std::pair<std::string, unsigned>> workload;
    unsigned suite = 0;           ///< 0 = no suite run
    bool fullSuite = false;
    std::string scheme = "baseline";
    RepairKind kind = RepairKind::Perfect;  ///< unused for baseline
    RepairPorts ports{32, 4, 2};
    bool coalesce = false;
    unsigned limitedM = 4;
    LoopConfig loop = LoopConfig::entries128();
    TageConfig tage = TageConfig::kb7();
    std::uint64_t warmup = 40000;
    std::uint64_t instrs = 60000;
    std::string csvPath;
    unsigned jobs = 0;            ///< 0 = REPRO_JOBS / hardware
    bool list = false;

    // Observability (src/obs; all off by default — zero-cost).
    std::string traceOut;         ///< Chrome trace_event JSON path
    std::string traceKonata;      ///< Konata pipeline log path
    std::uint64_t traceWindow = 20000;  ///< trace window, cycles
    std::string forensicsCsv;     ///< per-squash forensics CSV path
    std::uint64_t forensicsStride = 1;  ///< record every Nth squash
    std::string metricsJson;      ///< metrics-registry JSON path
    unsigned topOffenders = 0;    ///< print top-N mispredicting PCs
};

/** Identifier for each option the parser dispatches on. */
enum class Opt
{
    Help, List, Workload, Suite, Scheme, Ports, Coalesce, LimitedM,
    Loop, Tage, Warmup, Instr, Csv, Jobs,
    TraceOut, TraceKonata, TraceWindow, ForensicsCsv, ForensicsStride,
    MetricsJson, TopOffenders,
};

/**
 * The single option table: the parser resolves flags against it and
 * usage() renders it, so help text and accepted flags cannot drift
 * (tools/check_lbpsim_help.py asserts every parsed flag is printed).
 */
struct OptSpec
{
    Opt id;
    const char *flag;
    const char *alias;    ///< alternate spelling, or nullptr
    const char *metavar;  ///< value placeholder, or nullptr (boolean)
    const char *help;     ///< '\n' continues on an aligned next line
};

constexpr OptSpec kOptions[] = {
    {Opt::Help, "--help", "-h", nullptr, "print this help and exit"},
    {Opt::List, "--list", nullptr, nullptr,
     "print categories and named workloads"},
    {Opt::Workload, "--workload", nullptr, "<Category:N>",
     "simulate one workload (e.g. Server:0)"},
    {Opt::Suite, "--suite", nullptr, "<N|all>",
     "simulate N suite workloads (category-proportional)"},
    {Opt::Scheme, "--scheme", nullptr, "<name>",
     "baseline | perfect | no-repair | retire-update |\n"
     "backward-walk | snapshot | forward-walk |\n"
     "limited-pc | multi-stage | future-file"},
    {Opt::Ports, "--ports", nullptr, "<M-N-P>",
     "OBQ/SQ entries (2-4096), read ports and\n"
     "BHT write ports (1-64)"},
    {Opt::Coalesce, "--coalesce", nullptr, nullptr,
     "enable OBQ entry merging"},
    {Opt::LimitedM, "--limited-m", nullptr, "<M>",
     "PCs repaired by limited-pc (1-16)"},
    {Opt::Loop, "--loop", nullptr, "<64|128|256>",
     "CBPw-Loop BHT/PT entries"},
    {Opt::Tage, "--tage", nullptr, "<7|9|57>",
     "TAGE configuration (KB)"},
    {Opt::Warmup, "--warmup", nullptr, "<N>",
     "warm-up instruction budget"},
    {Opt::Instr, "--instr", nullptr, "<N>",
     "measured instruction budget"},
    {Opt::Csv, "--csv", nullptr, "<path>",
     "write per-workload results as CSV"},
    {Opt::Jobs, "--jobs", nullptr, "<N>",
     "worker threads for suite builds and runs\n"
     "(default: REPRO_JOBS, else hardware concurrency)"},
    {Opt::TraceOut, "--trace-out", nullptr, "<path>",
     "write a Chrome trace_event JSON of pipeline\n"
     "stage events (chrome://tracing, Perfetto)"},
    {Opt::TraceKonata, "--trace-konata", nullptr, "<path>",
     "write a Konata-style pipeline log"},
    {Opt::TraceWindow, "--trace-window", nullptr, "<cycles>",
     "cycle span the dumped trace keeps (default\n"
     "20000; memory stays fixed regardless)"},
    {Opt::ForensicsCsv, "--forensics-csv", nullptr, "<path>",
     "write one CSV row per misprediction squash\n"
     "(PC, predictor component, pollution, repair)"},
    {Opt::ForensicsStride, "--forensics-stride", nullptr, "<N>",
     "record every Nth squash (default 1 = all);\n"
     "bounds forensics memory on long runs"},
    {Opt::MetricsJson, "--metrics-json", nullptr, "<path>",
     "write the metrics registry (counters +\n"
     "histograms) as JSON, per run"},
    {Opt::TopOffenders, "--top-offenders", nullptr, "<N>",
     "print the N PCs causing the most squashes"},
};

void
usage()
{
    std::printf("lbpsim — local-branch-predictor repair simulator\n\n");
    for (const OptSpec &o : kOptions) {
        char left[64];
        std::snprintf(left, sizeof(left), "  %s%s%s%s%s", o.flag,
                      o.alias ? ", " : "", o.alias ? o.alias : "",
                      o.metavar ? " " : "",
                      o.metavar ? o.metavar : "");
        std::printf("%-29s", left);
        for (const char *p = o.help; *p; ++p) {
            if (*p == '\n')
                std::printf("\n%-29s", "");
            else
                std::putchar(*p);
        }
        std::putchar('\n');
    }
}

const OptSpec *
findOption(const char *arg)
{
    for (const OptSpec &o : kOptions)
        if (std::strcmp(arg, o.flag) == 0 ||
            (o.alias && std::strcmp(arg, o.alias) == 0))
            return &o;
    return nullptr;
}

bool
parseOptions(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const OptSpec *spec = findOption(argv[i]);
        if (!spec) {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            usage();
            return false;
        }
        const char *v = nullptr;
        if (spec->metavar) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", argv[i]);
                return false;
            }
            v = argv[++i];
        }
        // The counting flags share the spec grammar's strict parser.
        const auto count = [&](std::uint64_t &out, std::uint64_t max) {
            if (parseSpecCount(v, out, max))
                return true;
            std::fprintf(stderr,
                         "%s wants an integer in [0, %llu]%s, got '%s'\n",
                         spec->flag, static_cast<unsigned long long>(max),
                         spec->id == Opt::Suite ? " or 'all'" : "", v);
            return false;
        };
        constexpr unsigned u32Max = std::numeric_limits<unsigned>::max();
        constexpr std::uint64_t u64Max =
            std::numeric_limits<std::uint64_t>::max();
        std::uint64_t n = 0;
        switch (spec->id) {
          case Opt::Help:
            usage();
            std::exit(0);
          case Opt::List:
            opt.list = true;
            break;
          case Opt::Workload: {
            const char *colon = std::strchr(v, ':');
            if (!colon || !parseSpecCount(colon + 1, n, u32Max)) {
                std::fprintf(stderr,
                             "--workload wants Category:N with N an "
                             "integer in [0, %u], got '%s'\n",
                             u32Max, v);
                return false;
            }
            opt.workload = {{std::string(v, colon - v),
                             static_cast<unsigned>(n)}};
            break;
          }
          case Opt::Suite:
            if (std::string(v) == "all")
                opt.fullSuite = true;
            else if (!count(n, u32Max))
                return false;
            opt.suite = static_cast<unsigned>(n);
            break;
          case Opt::Scheme:
            if (std::string(v) != "baseline" &&
                !sweepSchemeKind(v, opt.kind)) {
                std::fprintf(stderr, "unknown scheme %s\n", v);
                return false;
            }
            opt.scheme = v;
            break;
          case Opt::Ports:
            if (!parseRepairPorts(v, opt.ports)) {
                std::fprintf(stderr, "--ports wants %s\n",
                             repairPortsRange().c_str());
                return false;
            }
            break;
          case Opt::Coalesce:
            opt.coalesce = true;
            break;
          case Opt::LimitedM:
            if (!parseLimitedM(v, opt.limitedM)) {
                std::fprintf(stderr, "--limited-m wants %s\n",
                             limitedMRange().c_str());
                return false;
            }
            break;
          case Opt::Loop:
            if (!parseLoopConfig(v, opt.loop)) {
                std::fprintf(stderr, "--loop must be 64, 128 or 256\n");
                return false;
            }
            break;
          case Opt::Tage:
            if (!parseTageConfig(v, opt.tage)) {
                std::fprintf(stderr, "--tage must be 7, 9 or 57\n");
                return false;
            }
            break;
          case Opt::Warmup:
            if (!count(opt.warmup, u64Max))
                return false;
            break;
          case Opt::Instr:
            if (!count(opt.instrs, u64Max))
                return false;
            break;
          case Opt::Csv:
            opt.csvPath = v;
            break;
          case Opt::Jobs:
            if (!count(n, u32Max))
                return false;
            opt.jobs = static_cast<unsigned>(n);
            break;
          case Opt::TraceOut:
            opt.traceOut = v;
            break;
          case Opt::TraceKonata:
            opt.traceKonata = v;
            break;
          case Opt::TraceWindow:
            if (!count(opt.traceWindow, u64Max))
                return false;
            break;
          case Opt::ForensicsCsv:
            opt.forensicsCsv = v;
            break;
          case Opt::ForensicsStride:
            if (!count(opt.forensicsStride, u64Max))
                return false;
            break;
          case Opt::MetricsJson:
            opt.metricsJson = v;
            break;
          case Opt::TopOffenders:
            if (!count(n, u32Max))
                return false;
            opt.topOffenders = static_cast<unsigned>(n);
            break;
        }
    }
    return true;
}

SimConfig
makeConfig(const Options &opt)
{
    SimConfig cfg;
    cfg.warmupInstrs = opt.warmup;
    cfg.measureInstrs = opt.instrs;
    cfg.tage = opt.tage;
    if (opt.scheme != "baseline") {
        cfg.useLocal = true;
        cfg.repair.kind = opt.kind;
        cfg.repair.ports = opt.ports;
        cfg.repair.coalesce = opt.coalesce;
        cfg.repair.limitedM = opt.limitedM;
        cfg.repair.loop = opt.loop;
    }
    cfg.obs.trace =
        !opt.traceOut.empty() || !opt.traceKonata.empty();
    cfg.obs.forensics = !opt.forensicsCsv.empty() ||
                        !opt.metricsJson.empty() ||
                        opt.topOffenders > 0;
    cfg.obs.traceWindowCycles = opt.traceWindow;
    cfg.obs.forensicsStride = opt.forensicsStride;
    return cfg;
}

void
printRun(const RunResult &r)
{
    std::printf("%-22s %-9s IPC %6.3f  MPKI %6.2f  misp %7llu  "
                "overrides %7llu (%5.1f%% ok)  repairs %6llu\n",
                r.workload.c_str(), r.category.c_str(), r.ipc, r.mpki,
                static_cast<unsigned long long>(r.stats.mispredicts),
                static_cast<unsigned long long>(r.overrides),
                r.overrides ? 100.0 * r.overridesCorrect / r.overrides
                            : 0.0,
                static_cast<unsigned long long>(r.repairs));
    if (r.auditChecks || r.auditViolations) {
        std::printf("  audit: %llu checks, %llu violations, "
                    "%llu resyncs, %llu skipped, %llu uncovered\n",
                    static_cast<unsigned long long>(r.auditChecks),
                    static_cast<unsigned long long>(r.auditViolations),
                    static_cast<unsigned long long>(r.auditResyncs),
                    static_cast<unsigned long long>(r.auditSkipped),
                    static_cast<unsigned long long>(r.auditUncovered));
    }
}

std::ofstream
openOrDie(const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    return out;
}

void
writeCsv(const std::string &path, const SuiteResult &res)
{
    std::ofstream out = openOrDie(path);
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
writeObsOutputs(const Options &opt, const std::vector<RunResult> &runs)
{
    std::vector<const ObsRun *> obs;
    for (const RunResult &r : runs)
        if (r.obs)
            obs.push_back(r.obs.get());
    if (obs.empty())
        return;

    if (!opt.traceOut.empty()) {
        std::ofstream out = openOrDie(opt.traceOut);
        writeChromeTrace(out, obs);
        std::printf("wrote Chrome trace (%zu runs) to %s\n",
                    obs.size(), opt.traceOut.c_str());
    }
    if (!opt.traceKonata.empty()) {
        if (obs.size() == 1) {
            std::ofstream out = openOrDie(opt.traceKonata);
            writeKonata(out, *obs.front());
            std::printf("wrote Konata log to %s\n",
                        opt.traceKonata.c_str());
        } else {
            // One file per run, workload tag inserted before the
            // extension (konataRunPath; naming in docs/TRACING.md).
            for (const ObsRun *o : obs) {
                const std::string path =
                    konataRunPath(opt.traceKonata, o->workload);
                std::ofstream out = openOrDie(path);
                writeKonata(out, *o);
            }
            std::printf("wrote %zu Konata logs (one per workload, "
                        "first: %s)\n",
                        obs.size(),
                        konataRunPath(opt.traceKonata,
                                      obs.front()->workload)
                            .c_str());
        }
    }
    if (!opt.forensicsCsv.empty()) {
        std::ofstream out = openOrDie(opt.forensicsCsv);
        writeForensicsCsv(out, obs);
        std::size_t rows = 0;
        for (const ObsRun *o : obs)
            rows += o->squashes.size();
        std::printf("wrote %zu squash rows to %s\n", rows,
                    opt.forensicsCsv.c_str());
    }
    if (opt.topOffenders > 0) {
        const auto rows = topOffenders(obs, opt.topOffenders);
        std::printf("\ntop %zu mispredicting PCs:\n%s", rows.size(),
                    formatOffenders(rows).c_str());
    }
    if (!opt.metricsJson.empty()) {
        std::ofstream out = openOrDie(opt.metricsJson);
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
                    opt.metricsJson.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseOptions(argc, argv, opt))
        return 1;

    if (opt.list) {
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

    const SimConfig cfg = makeConfig(opt);

    if (opt.workload) {
        const auto &[cat_name, idx] = *opt.workload;
        const CategoryProfile *prof = nullptr;
        for (const auto &p : categoryProfiles())
            if (p.name == cat_name)
                prof = &p;
        if (!prof) {
            std::fprintf(stderr, "unknown category %s (try --list)\n",
                         cat_name.c_str());
            return 1;
        }
        if (idx >= prof->count) {
            std::fprintf(stderr, "%s has only %u workloads\n",
                         cat_name.c_str(), prof->count);
            return 1;
        }
        const Program prog =
            buildWorkload(*prof, idx, SuiteOptions{}.seed);
        Stopwatch sw;
        const RunResult r = runOne(prog, cfg);
        const double wall = sw.seconds();
        printRun(r);
        const std::uint64_t sim = r.stats.retiredInstrs + cfg.warmupInstrs;
        std::printf("wall %.2fs, %.2f Msim-instr/s\n", wall,
                    wall > 0.0
                        ? static_cast<double>(sim) / wall / 1e6
                        : 0.0);
        writeObsOutputs(opt, {r});
        return 0;
    }

    if (opt.suite == 0 && !opt.fullSuite) {
        usage();
        return 1;
    }

    SuiteOptions sopts;
    sopts.maxWorkloads = opt.fullSuite ? 0 : opt.suite;
    const auto suite = buildSuite(sopts, opt.jobs);
    std::printf("running %zu workloads, scheme=%s, jobs=%u ...\n",
                suite.size(), opt.scheme.c_str(),
                resolveJobs(opt.jobs));
    const SuiteResult res = runSuite(suite, cfg, opt.jobs);
    for (const RunResult &r : res.runs)
        printRun(r);

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

    if (!opt.csvPath.empty())
        writeCsv(opt.csvPath, res);
    writeObsOutputs(opt, res.runs);
    return 0;
}
