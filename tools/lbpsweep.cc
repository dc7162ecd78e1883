/**
 * @file
 * lbpsweep — figure-sweep driver over the sweep orchestrator.
 *
 * Runs a set of configurations (the full figure set by default, or a
 * declarative spec file) over one suite as a concurrent cell queue
 * with the persistent result store, the JSON-lines event log, a live
 * progress/ETA line, and a final manifest + results CSV. Also hosts
 * the Figure-8 port-sensitivity analysis over squash forensics. With
 * --server it becomes a thin lbp-serve-v1 client: the sweep runs
 * inside a resident lbpserved (docs/SERVER.md) and the CSV, manifest
 * and event log come back byte-identical to a local run. Spec format,
 * store layout and manifest schema: docs/SWEEP.md.
 *
 *   lbpsweep --suite 8 --store .result-store --manifest manifest.json
 *   lbpsweep --spec sweep.spec --csv results.csv --event-log sweep.jsonl
 *   lbpsweep --server 127.0.0.1:7737 --csv results.csv
 *   lbpsweep --suite 8 --port-analysis ports.csv
 *
 * Exit codes: 0 ok, 1 bad usage, unwritable output or server failure.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "obs/port_analysis.hh"
#include "serve/client.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "sim/suite_cache.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"
#include "workload/suite.hh"

using namespace lbp;

namespace {

struct Options
{
    std::string specPath;
    unsigned suite = 8;       ///< workload cap (0 via --suite all)
    bool fullSuite = false;
    std::uint64_t warmup = 40000;
    std::uint64_t instrs = 60000;
    unsigned jobs = 0;
    std::string storeDir;     ///< persistent store (REPRO_RESULT_STORE)
    bool storeFromFlag = false;  ///< --store given explicitly
    std::string eventLogPath;
    std::string manifestPath;
    std::string csvPath;
    std::string portAnalysisPath;
    std::string server;       ///< host:port of a resident lbpserved
    std::string serverHost;   ///< --server's host part
    std::uint16_t serverPort = 0;  ///< --server's port part
    bool quiet = false;       ///< suppress the live progress line

    std::string traceId;      ///< request trace id (--trace)
    bool storeGc = false;     ///< --store-gc maintenance mode
    double gcAge = 0.0;       ///< --store-gc-age
    std::uint64_t gcBytes = 0;  ///< --store-gc-bytes
};

struct OptSpec
{
    const char *flag;
    const char *metavar;  ///< nullptr = boolean
    const char *help;
};

constexpr OptSpec kOptions[] = {
    {"--help", nullptr, "print this help and exit"},
    {"--spec", "<path>", "declarative sweep spec (docs/SWEEP.md); "
     "default: the full 11-config figure set"},
    {"--suite", "<N|all>", "workloads to sweep (default 8)"},
    {"--warmup", "<N>", "warm-up instruction budget (default 40000)"},
    {"--instr", "<N>", "measured instruction budget (default 60000)"},
    {"--jobs", "<N>", "worker threads for the suite build and the "
     "sweep (default REPRO_JOBS, else hardware concurrency)"},
    {"--store", "<dir>", "persistent result store directory (default "
     "$REPRO_RESULT_STORE; empty = no store)"},
    {"--event-log", "<path>", "append JSON-lines cell/config events"},
    {"--manifest", "<path>", "write the sweep manifest JSON"},
    {"--csv", "<path>", "write per-run results CSV"},
    {"--port-analysis", "<path>", "write the Figure-8 repair-port "
     "sensitivity CSV (runs a forensics pass)"},
    {"--server", "<host:port>", "run the sweep on a resident lbpserved "
     "instead of locally (docs/SERVER.md)"},
    {"--trace", "<id>", "request trace id stamped on every event "
     "record and the manifest (default: server-minted in --server "
     "mode, off locally)"},
    {"--store-gc", nullptr, "no sweep: garbage-collect the store by "
     "--store-gc-age/--store-gc-bytes and print the eviction audit"},
    {"--store-gc-age", "<secs>", "gc: evict entries older than this"},
    {"--store-gc-bytes", "<N>", "gc: then cap the store at N bytes, "
     "oldest first"},
    {"--quiet", nullptr, "suppress the live progress line"},
};

void
usage()
{
    std::printf("lbpsweep — concurrent figure-sweep orchestrator\n\n");
    for (const OptSpec &o : kOptions) {
        char left[48];
        std::snprintf(left, sizeof(left), "  %s%s%s", o.flag,
                      o.metavar ? " " : "", o.metavar ? o.metavar : "");
        std::printf("%-28s%s\n", left, o.help);
    }
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "lbpsweep: %s\n", msg.c_str());
    std::exit(1);
}

bool
parseOptions(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const OptSpec *spec = nullptr;
        for (const OptSpec &o : kOptions)
            if (std::strcmp(argv[i], o.flag) == 0)
                spec = &o;
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
        const std::string flag = spec->flag;
        // The counting flags share the spec grammar's strict parser.
        const auto count = [&](std::uint64_t &out, std::uint64_t max) {
            if (parseSpecCount(v, out, max))
                return true;
            std::fprintf(stderr,
                         "lbpsweep: %s wants an integer in [0, %llu]%s, "
                         "got '%s'\n",
                         spec->flag, static_cast<unsigned long long>(max),
                         flag == "--suite" ? " or 'all'" : "", v);
            return false;
        };
        constexpr unsigned u32Max = std::numeric_limits<unsigned>::max();
        constexpr std::uint64_t u64Max =
            std::numeric_limits<std::uint64_t>::max();
        std::uint64_t n = 0;
        if (flag == "--help") {
            usage();
            std::exit(0);
        } else if (flag == "--spec") {
            opt.specPath = v;
        } else if (flag == "--suite") {
            if (std::string(v) == "all")
                opt.fullSuite = true;
            else if (!count(n, u32Max))
                return false;
            opt.suite = static_cast<unsigned>(n);
        } else if (flag == "--warmup") {
            if (!count(opt.warmup, u64Max))
                return false;
        } else if (flag == "--instr") {
            if (!count(opt.instrs, u64Max))
                return false;
        } else if (flag == "--jobs") {
            if (!count(n, u32Max))
                return false;
            opt.jobs = static_cast<unsigned>(n);
        } else if (flag == "--store") {
            opt.storeDir = v;
            opt.storeFromFlag = true;
        } else if (flag == "--event-log") {
            opt.eventLogPath = v;
        } else if (flag == "--manifest") {
            opt.manifestPath = v;
        } else if (flag == "--csv") {
            opt.csvPath = v;
        } else if (flag == "--port-analysis") {
            opt.portAnalysisPath = v;
        } else if (flag == "--server") {
            const char *colon = std::strrchr(v, ':');
            if (!colon || !parseSpecCount(colon + 1, n, 65535) || n < 1) {
                std::fprintf(stderr,
                             "lbpsweep: --server wants host:port with "
                             "port in [1, 65535], got '%s'\n",
                             v);
                return false;
            }
            opt.server = v;
            opt.serverHost.assign(v, colon);
            opt.serverPort = static_cast<std::uint16_t>(n);
        } else if (flag == "--trace") {
            opt.traceId = v;
        } else if (flag == "--store-gc") {
            opt.storeGc = true;
        } else if (flag == "--store-gc-age") {
            if (!parseSeconds(v, opt.gcAge)) {
                std::fprintf(stderr,
                             "lbpsweep: --store-gc-age wants a finite, "
                             "non-negative number of seconds, got '%s'\n",
                             v);
                return false;
            }
        } else if (flag == "--store-gc-bytes") {
            if (!count(opt.gcBytes, u64Max))
                return false;
        } else if (flag == "--quiet") {
            opt.quiet = true;
        }
    }
    return true;
}

std::ofstream
openOrDie(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        die("cannot write " + path);
    return out;
}

/**
 * The Figure-8 port-sensitivity pass: a forensics-enabled forward-walk
 * run (the realistic repair scheme — its squash records carry the
 * OBQ-walk and BHT-write work), aggregated over candidate port counts.
 * Runs through runSuite directly: observability is excluded from cache
 * keys, so cached results carry no forensics records.
 */
void
runPortAnalysis(const std::vector<Program> &suite, const Options &opt)
{
    SimConfig cfg;
    cfg.warmupInstrs = opt.warmup;
    cfg.measureInstrs = opt.instrs;
    cfg.useLocal = true;
    cfg.repair.kind = RepairKind::ForwardWalk;
    cfg.obs.forensics = true;

    std::printf("port analysis: forensics pass over %zu workloads "
                "(forward-walk)...\n",
                suite.size());
    const SuiteResult res = runSuite(suite, cfg, opt.jobs);

    std::vector<const ObsRun *> obs;
    std::uint64_t records = 0;
    for (const RunResult &r : res.runs) {
        if (r.obs) {
            obs.push_back(r.obs.get());
            records += r.obs->squashes.size();
        }
    }
    const std::vector<unsigned> portCounts = {1, 2, 4, 8};
    const auto rows = portAnalysis(obs, portCounts);
    std::ofstream out = openOrDie(opt.portAnalysisPath);
    writePortAnalysisCsv(out, rows);
    std::printf("%s", formatPortAnalysis(rows).c_str());
    std::printf("port analysis: %llu squash records -> %s\n",
                static_cast<unsigned long long>(records),
                opt.portAnalysisPath.c_str());
}

/**
 * Maintenance mode (--store-gc): apply the age/size retention policy
 * to the persistent store without sweeping, and print every eviction
 * so the operation leaves an audit trail on the terminal.
 */
int
runStoreGc(const Options &opt)
{
    if (opt.storeDir.empty())
        die("--store-gc needs a store (--store or "
            "$REPRO_RESULT_STORE)");
    if (opt.gcAge <= 0.0 && opt.gcBytes == 0)
        die("--store-gc needs --store-gc-age and/or "
            "--store-gc-bytes");
    ResultStore store(opt.storeDir);
    StoreGcPolicy policy;
    policy.maxAgeSeconds = opt.gcAge;
    policy.maxBytes = opt.gcBytes;
    const std::vector<StoreAuditRecord> evicted = store.gc(policy);
    std::uint64_t bytes = 0;
    for (const StoreAuditRecord &rec : evicted) {
        bytes += rec.bytes;
        std::printf("evict %s (%s, %llu bytes, age %.0fs, "
                    "fingerprint %s)\n",
                    rec.file.c_str(), rec.reason.c_str(),
                    static_cast<unsigned long long>(rec.bytes),
                    rec.ageSeconds, rec.fingerprint.c_str());
    }
    std::printf("store gc: evicted %zu entries (%llu bytes) from %s\n",
                evicted.size(),
                static_cast<unsigned long long>(bytes),
                store.dir().c_str());
    return 0;
}

/**
 * One row of the per-config summary table, local or served: the
 * outcome arrives as its sweepOutcomeName() and prints with a space
 * ("store_hit" -> "store hit").
 */
void
addConfigRow(TextTable &table, const std::string &name,
             const std::string &label, std::string outcome,
             double wallSeconds)
{
    for (char &c : outcome)
        if (c == '_')
            c = ' ';
    char wallBuf[32];
    std::snprintf(wallBuf, sizeof(wallBuf), "%.2f", wallSeconds);
    table.addRow({name, label, outcome, wallBuf});
}

/**
 * Thin-client mode: the sweep runs inside a resident lbpserved; the
 * CLI flags and raw spec text ride in the submit frame so the server
 * resolves the request exactly as a local run would, and the summary,
 * CSV and manifest below come back byte-identical to local output.
 * The server builds the suite; the client builds nothing.
 */
int
runServerMode(const Options &opt, const SweepSpec &spec,
              const std::string &specText)
{
    if (!opt.portAnalysisPath.empty())
        die("--port-analysis runs locally; drop --server");
    if (opt.storeFromFlag)
        die("--store is server-side in --server mode (lbpserved "
            "--store)");
    if (opt.jobs)
        std::fprintf(stderr,
                     "lbpsweep: note: --jobs is server-side in "
                     "--server mode; ignoring\n");

    ServeClientOptions copts;
    copts.host = opt.serverHost;
    copts.port = opt.serverPort;
    copts.specText = specText;
    copts.suite = opt.suite;
    copts.fullSuite = opt.fullSuite;
    copts.warmupInstrs = opt.warmup;
    copts.measureInstrs = opt.instrs;
    copts.traceId = opt.traceId;
    copts.progress = opt.quiet ? nullptr : stderr;

    std::ofstream eventLog;
    if (!opt.eventLogPath.empty()) {
        eventLog.open(opt.eventLogPath, std::ios::app);
        if (!eventLog)
            die("cannot write " + opt.eventLogPath);
        copts.eventLog = &eventLog;
    }

    std::printf("sweeping %zu configs x %zu workloads (%llu warm-up + "
                "%llu measured instrs each, server=%s)\n",
                spec.configs.size(), suiteSize(specSuiteOptions(spec)),
                static_cast<unsigned long long>(spec.warmupInstrs),
                static_cast<unsigned long long>(spec.measureInstrs),
                opt.server.c_str());

    ServeSweepResult res;
    std::string error;
    if (!runServeSweep(copts, res, error))
        die(error);
    if (res.dedup)
        std::printf("request coalesced with an identical in-flight "
                    "sweep on the server\n");
    if (!res.traceId.empty())
        std::printf("server trace id: %s\n", res.traceId.c_str());

    TextTable table({"config", "label", "outcome", "wall_s"});
    for (const auto &c : res.configs)
        addConfigRow(table, c.name, c.label, c.outcome, c.wallSeconds);
    std::printf("%s", table.render().c_str());

    const auto u64 = [&res](const char *name) {
        return static_cast<unsigned long long>(res.counter(name));
    };
    std::printf("cells: %llu total = %llu simulated + %llu store hits "
                "+ %llu cache hits\n",
                u64("sweep_cells_total"), u64("sweep_cells_simulated"),
                u64("sweep_cells_store_hit"),
                u64("sweep_cells_cache_hit"));
    if (u64("store_hits") || u64("store_misses") || u64("store_writes"))
        std::printf("store: %llu hits, %llu misses (%llu stale), "
                    "%llu writes -> server\n",
                    u64("store_hits"), u64("store_misses"),
                    u64("store_stale"), u64("store_writes"));
    std::printf("wall %.2fs (%.2f Minstr/s)\n",
                res.counter("sweep_wall_s"),
                res.counter("sweep_minstr_per_s"));

    if (!opt.manifestPath.empty()) {
        std::ofstream out = openOrDie(opt.manifestPath);
        out << res.manifest;
        std::printf("wrote manifest to %s\n", opt.manifestPath.c_str());
    }
    if (!opt.csvPath.empty()) {
        std::ofstream out = openOrDie(opt.csvPath);
        out << res.csv;
        std::printf("wrote results CSV to %s\n", opt.csvPath.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (const char *env = std::getenv("REPRO_RESULT_STORE"))
        opt.storeDir = env;
    if (!parseOptions(argc, argv, opt))
        return 1;

    if (opt.storeGc)
        return runStoreGc(opt);

    // Resolve the request through the shared spec grammar
    // (sim/sweep_spec.hh) — the same code path a server submit takes.
    SweepSpec spec;
    spec.suite = opt.suite;
    spec.fullSuite = opt.fullSuite;
    spec.warmupInstrs = opt.warmup;
    spec.measureInstrs = opt.instrs;
    std::string specText;
    if (!opt.specPath.empty()) {
        std::ifstream in(opt.specPath);
        if (!in)
            die("cannot read spec " + opt.specPath);
        std::ostringstream raw;
        raw << in.rdbuf();
        specText = raw.str();
        std::string err;
        if (!parseSweepSpecText(specText, spec, err))
            die(err);
    }
    finalizeSweepSpec(spec);
    if (!opt.server.empty())
        return runServerMode(opt, spec, specText);

    const std::vector<Program> suite = buildSpecSuite(spec, opt.jobs);
    const std::vector<SweepConfig> &configs = spec.configs;

    std::printf("sweeping %zu configs x %zu workloads (%llu warm-up + "
                "%llu measured instrs each, jobs=%u)\n",
                configs.size(), suite.size(),
                static_cast<unsigned long long>(spec.warmupInstrs),
                static_cast<unsigned long long>(spec.measureInstrs),
                resolveJobs(opt.jobs));

    ResultStore store(opt.storeDir);
    std::ofstream eventLog;
    if (!opt.eventLogPath.empty()) {
        eventLog.open(opt.eventLogPath, std::ios::app);
        if (!eventLog)
            die("cannot write " + opt.eventLogPath);
    }

    SweepOptions sweepOpts;
    sweepOpts.jobs = opt.jobs;
    sweepOpts.store = opt.storeDir.empty() ? nullptr : &store;
    sweepOpts.eventLog = eventLog.is_open() ? &eventLog : nullptr;
    sweepOpts.progress = opt.quiet ? nullptr : stderr;
    sweepOpts.traceId = opt.traceId;

    const SweepResult res = runSweep(suite, configs, sweepOpts);

    // Per-config summary table.
    TextTable table({"config", "label", "outcome", "wall_s"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const SweepConfigSummary sum = sweepConfigSummary(res, c);
        addConfigRow(table, configs[c].name, configLabel(configs[c].cfg),
                     sweepOutcomeName(sum.outcome), sum.wallSeconds);
    }
    std::printf("%s", table.render().c_str());

    printSweepSummary(stdout, res.stats, sweepOpts.store);

    if (!opt.manifestPath.empty()) {
        std::ofstream out = openOrDie(opt.manifestPath);
        writeSweepManifest(out, res, configs);
        std::printf("wrote manifest to %s\n", opt.manifestPath.c_str());
    }
    if (!opt.csvPath.empty()) {
        std::ofstream out = openOrDie(opt.csvPath);
        writeSweepCsv(out, res, configs);
        std::printf("wrote results CSV to %s\n", opt.csvPath.c_str());
    }
    if (!opt.portAnalysisPath.empty())
        runPortAnalysis(suite, opt);
    return 0;
}
