#include "sim/runner.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"

namespace lbp {

RunResult
runOne(const Program &prog, const SimConfig &cfg)
{
    OooCore core(prog, cfg);

    // Observability is opt-in per run; the tracer lives on this stack
    // frame for the core's whole life and only ever *reads* core state,
    // so attaching it cannot perturb results (test_trace.cc pins
    // trace-on == trace-off against the golden fixture).
    const bool observed = cfg.obs.trace || cfg.obs.forensics;
    PipelineTracer tracer(cfg.obs);
    if (observed)
        core.attachTracer(&tracer);

    core.run(cfg.warmupInstrs);
    const CoreStats at_warm = core.stats();
    core.run(cfg.measureInstrs);
    const CoreStats window = CoreStats::delta(core.stats(), at_warm);

    RunResult r;
    r.workload = prog.name;
    r.category = prog.category;
    r.stats = window;
    r.ipc = window.ipc();
    r.mpki = window.mpki();
    r.tageKB = core.tage().storageKB();

    const MemoryHierarchy &mem = core.mem();
    for (const Cache *c :
         {&mem.l1i(), &mem.l1d(), &mem.l2(), &mem.llc()}) {
        r.cacheAccesses += c->stats().accesses;
        r.cacheMisses += c->stats().misses;
        r.cachePrefetchFills += c->stats().prefetchFills;
    }

    if (RepairScheme *scheme = core.scheme()) {
        const RepairStats &ss = scheme->stats();
        r.overrides = ss.overrides;
        r.overridesCorrect = ss.overridesCorrect;
        r.repairs = ss.repairsTriggered;
        r.repairWrites = ss.repairWrites;
        r.earlyResteers = ss.earlyResteers;
        r.earlyResteersWrong = ss.earlyResteersWrong;
        r.uncheckpointedMispredicts = ss.uncheckpointedMispredicts;
        r.deniedPredictions = ss.deniedPredictions;
        r.skippedSpecUpdates = ss.skippedSpecUpdates;
        r.avgRepairsNeeded = ss.repairsNeeded.mean();
        r.maxRepairsNeeded = ss.repairsNeeded.max();
        r.avgWalkLength = ss.walkLength.mean();
        r.avgRepairWrites = ss.writesPerRepair.mean();
        r.avgRepairCycles = ss.repairCycles.mean();
        r.localKB = scheme->localStorageKB();
        r.repairKB = scheme->storageKB();
    }
#ifdef LBP_AUDIT
    if (const AuditorStats *as = core.auditorStats()) {
        r.auditChecks = as->recoveryChecks + as->retireChecks;
        r.auditViolations =
            as->recoveryViolations + as->retireViolations;
        r.auditResyncs = as->resyncs;
        r.auditSkipped = as->skipped;
        r.auditUncovered = as->uncoveredRecoveries;
    }
#endif

    if (observed) {
        auto obs = std::make_shared<ObsRun>(tracer.finish());
        obs->workload = prog.name;
        obs->config = configLabel(cfg);
        // Whole-run totals the forensics channel must reconcile with:
        // one squash record per execute-time flush, warm-up included.
        obs->totalMispredicts = core.stats().mispredicts;
        obs->totalCycles = core.stats().cycles;
        if (const RepairScheme *scheme = core.scheme())
            obs->totalRepairs = scheme->stats().repairsTriggered;
        r.obs = std::move(obs);
    }
    return r;
}

std::string
configLabel(const SimConfig &cfg)
{
    char buf[96];
    if (!cfg.useLocal) {
        std::snprintf(buf, sizeof(buf), "tage-%.1fKB",
                      cfg.tage.storageKB());
        return buf;
    }
    std::snprintf(buf, sizeof(buf), "%s %u-%u-%u loop%u%s",
                  repairKindName(cfg.repair.kind),
                  cfg.repair.ports.entries, cfg.repair.ports.readPorts,
                  cfg.repair.ports.bhtWritePorts,
                  cfg.repair.loop.bhtEntries,
                  cfg.repair.coalesce ? "+merge" : "");
    return buf;
}

SuiteResult
runSuite(const std::vector<Program> &suite, const SimConfig &cfg,
         unsigned jobs)
{
    const unsigned want = resolveJobs(jobs);
    Stopwatch sw;

    SuiteResult res;
    res.runs.resize(suite.size());
    if (want <= 1 || suite.size() <= 1) {
        for (std::size_t i = 0; i < suite.size(); ++i)
            res.runs[i] = runOne(suite[i], cfg);
        res.telemetry.jobs = 1;
    } else {
        // Each index is an independent simulation writing only its own
        // slot, so any claim order yields bit-identical results.
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(want, suite.size())));
        pool.parallelFor(suite.size(), [&](std::size_t i) {
            res.runs[i] = runOne(suite[i], cfg);
        });
        res.telemetry.jobs = pool.workerCount();
        res.telemetry.workerBusySeconds = pool.busySeconds();
    }

    res.telemetry.label = configLabel(cfg);
    res.telemetry.workloads = suite.size();
    // True-path instructions simulated: the measurement window per
    // run's stats plus the warm-up each run retired before it.
    for (const RunResult &r : res.runs)
        res.telemetry.simInstrs += r.stats.retiredInstrs;
    res.telemetry.simInstrs +=
        static_cast<std::uint64_t>(suite.size()) * cfg.warmupInstrs;
    res.telemetry.wallSeconds = sw.seconds();
    return res;
}

namespace {

void
checkAligned(const SuiteResult &base, const SuiteResult &test)
{
    lbp_assert(base.runs.size() == test.runs.size());
    for (std::size_t i = 0; i < base.runs.size(); ++i)
        lbp_assert(base.runs[i].workload == test.runs[i].workload);
}

} // namespace

std::vector<CategoryAgg>
aggregateByCategory(const SuiteResult &base, const SuiteResult &test)
{
    checkAligned(base, test);

    struct Acc
    {
        unsigned n = 0;
        std::uint64_t baseMisp = 0, baseInstr = 0;
        std::uint64_t testMisp = 0, testInstr = 0;
        std::vector<double> ipcRatios;
    };
    std::map<std::string, Acc> by_cat;
    std::vector<std::string> order;

    for (std::size_t i = 0; i < base.runs.size(); ++i) {
        const RunResult &b = base.runs[i];
        const RunResult &t = test.runs[i];
        if (by_cat.find(b.category) == by_cat.end())
            order.push_back(b.category);
        Acc &a = by_cat[b.category];
        ++a.n;
        a.baseMisp += b.stats.mispredicts;
        a.baseInstr += b.stats.retiredInstrs;
        a.testMisp += t.stats.mispredicts;
        a.testInstr += t.stats.retiredInstrs;
        if (b.ipc > 0.0 && t.ipc > 0.0)
            a.ipcRatios.push_back(t.ipc / b.ipc);
    }
    order.push_back("All");
    Acc &all = by_cat["All"];
    for (const auto &[name, a] : by_cat) {
        if (name == "All")
            continue;
        all.n += a.n;
        all.baseMisp += a.baseMisp;
        all.baseInstr += a.baseInstr;
        all.testMisp += a.testMisp;
        all.testInstr += a.testInstr;
        all.ipcRatios.insert(all.ipcRatios.end(), a.ipcRatios.begin(),
                             a.ipcRatios.end());
    }

    std::vector<CategoryAgg> out;
    for (const std::string &name : order) {
        const Acc &a = by_cat[name];
        CategoryAgg c;
        c.name = name;
        c.workloads = a.n;
        c.mpkiBase = a.baseInstr
                         ? 1000.0 * static_cast<double>(a.baseMisp) /
                               static_cast<double>(a.baseInstr)
                         : 0.0;
        c.mpkiTest = a.testInstr
                         ? 1000.0 * static_cast<double>(a.testMisp) /
                               static_cast<double>(a.testInstr)
                         : 0.0;
        c.mpkiReductionPct =
            c.mpkiBase > 0.0
                ? 100.0 * (c.mpkiBase - c.mpkiTest) / c.mpkiBase
                : 0.0;
        // A degenerate category (every run at zero IPC) contributes no
        // ratios; geomean(empty) is 0 and must not read as a -100%
        // "gain".
        c.ipcGainPct = a.ipcRatios.empty()
                           ? 0.0
                           : 100.0 * (geomean(a.ipcRatios) - 1.0);
        out.push_back(c);
    }
    return out;
}

double
mpkiReductionPct(const SuiteResult &base, const SuiteResult &test)
{
    checkAligned(base, test);
    std::uint64_t bm = 0, bi = 0, tm = 0, ti = 0;
    for (std::size_t i = 0; i < base.runs.size(); ++i) {
        bm += base.runs[i].stats.mispredicts;
        bi += base.runs[i].stats.retiredInstrs;
        tm += test.runs[i].stats.mispredicts;
        ti += test.runs[i].stats.retiredInstrs;
    }
    const double b =
        bi ? 1000.0 * static_cast<double>(bm) / static_cast<double>(bi)
           : 0.0;
    const double t =
        ti ? 1000.0 * static_cast<double>(tm) / static_cast<double>(ti)
           : 0.0;
    return b > 0.0 ? 100.0 * (b - t) / b : 0.0;
}

double
ipcGainPct(const SuiteResult &base, const SuiteResult &test)
{
    checkAligned(base, test);
    std::vector<double> ratios;
    ratios.reserve(base.runs.size());
    for (std::size_t i = 0; i < base.runs.size(); ++i)
        if (base.runs[i].ipc > 0.0 && test.runs[i].ipc > 0.0)
            ratios.push_back(test.runs[i].ipc / base.runs[i].ipc);
    // No comparable pair (empty or all-zero-IPC suites): report "no
    // gain", not the -100% geomean(empty) would imply.
    return ratios.empty() ? 0.0 : 100.0 * (geomean(ratios) - 1.0);
}

std::vector<std::pair<std::string, double>>
ipcSCurve(const SuiteResult &base, const SuiteResult &test)
{
    checkAligned(base, test);
    std::vector<std::pair<std::string, double>> curve;
    for (std::size_t i = 0; i < base.runs.size(); ++i) {
        const double gain =
            base.runs[i].ipc > 0.0
                ? 100.0 * (test.runs[i].ipc / base.runs[i].ipc - 1.0)
                : 0.0;
        curve.emplace_back(base.runs[i].workload, gain);
    }
    std::sort(curve.begin(), curve.end(),
              [](const auto &a, const auto &b) {
                  return a.second < b.second;
              });
    return curve;
}

BenchEnv
BenchEnv::fromEnvironment()
{
    BenchEnv env;
    if (const char *s = std::getenv("REPRO_INSTR"))
        env.measureInstrs = std::strtoull(s, nullptr, 10);
    if (const char *s = std::getenv("REPRO_WARMUP"))
        env.warmupInstrs = std::strtoull(s, nullptr, 10);
    if (const char *s = std::getenv("REPRO_WORKLOADS"))
        env.maxWorkloads = static_cast<unsigned>(
            std::strtoul(s, nullptr, 10));
    if (const char *s = std::getenv("REPRO_JOBS"))
        env.jobs = static_cast<unsigned>(std::strtoul(s, nullptr, 10));
    return env;
}

void
BenchEnv::apply(SimConfig &cfg) const
{
    cfg.warmupInstrs = warmupInstrs;
    cfg.measureInstrs = measureInstrs;
}

} // namespace lbp
