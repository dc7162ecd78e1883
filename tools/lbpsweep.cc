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
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hh"
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

constexpr const char *kTool = "lbpsweep";

/** The files a sweep reads and writes besides its store entries. */
struct Files
{
    std::string spec;          ///< declarative sweep spec to read
    std::string eventLog;      ///< JSON-lines cell/config events
    std::string manifest;      ///< sweep manifest JSON
    std::string csv;           ///< per-run results CSV
    std::string portAnalysis;  ///< Figure-8 port-sensitivity CSV
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", kTool, msg.c_str());
    std::exit(1);
}

/** --suite sets the cap; 0 and "all" both select the whole suite. */
CliBinder
bindSuite(SweepSpec &spec)
{
    return {[&spec](std::string_view v) {
                if (!parseSuiteSize(v, spec.suite))
                    return false;
                spec.fullSuite = spec.suite == 0;
                return true;
            },
            "wants " + suiteSizeRange()};
}

/** --server host:port: the port is the text after the last colon. */
CliBinder
bindServer(ServeClientOptions &server)
{
    return {[&server](std::string_view v) {
                const std::size_t colon = v.rfind(':');
                std::uint64_t port = 0;
                if (colon == std::string_view::npos ||
                    !parseSpecCount(v.substr(colon + 1), port, 65535) ||
                    port < 1)
                    return false;
                server.host = std::string(v.substr(0, colon));
                server.port = static_cast<std::uint16_t>(port);
                return true;
            },
            "wants host:port with port in [1, 65535]"};
}

/**
 * The Figure-8 port-sensitivity pass: a forensics-enabled forward-walk
 * run (the realistic repair scheme — its squash records carry the
 * OBQ-walk and BHT-write work), aggregated over candidate port counts.
 * Runs through runSuite directly: observability is excluded from cache
 * keys, so cached results carry no forensics records.
 */
void
runPortAnalysis(const std::vector<Program> &suite, const SweepSpec &spec,
                unsigned jobs, const std::string &path)
{
    SimConfig cfg;
    cfg.warmupInstrs = spec.warmupInstrs;
    cfg.measureInstrs = spec.measureInstrs;
    cfg.useLocal = true;
    cfg.repair.kind = RepairKind::ForwardWalk;
    cfg.obs.forensics = true;

    std::printf("port analysis: forensics pass over %zu workloads "
                "(forward-walk)...\n",
                suite.size());
    const SuiteResult res = runSuite(suite, cfg, jobs);

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
    std::ofstream out = openOutput(kTool, path);
    writePortAnalysisCsv(out, rows);
    std::printf("%s", formatPortAnalysis(rows).c_str());
    std::printf("port analysis: %llu squash records -> %s\n",
                static_cast<unsigned long long>(records), path.c_str());
}

/**
 * Maintenance mode (--store-gc): apply the age/size retention policy
 * to the persistent store without sweeping, and print every eviction
 * so the operation leaves an audit trail on the terminal.
 */
int
runStoreGc(const std::string &storeDir, const StoreGcPolicy &policy)
{
    if (storeDir.empty())
        die("--store-gc needs a store (--store or "
            "$REPRO_RESULT_STORE)");
    if (policy.maxAgeSeconds <= 0.0 && policy.maxBytes == 0)
        die("--store-gc needs --store-gc-age and/or "
            "--store-gc-bytes");
    ResultStore store(storeDir);
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
runServerMode(ServeClientOptions copts, const SweepSpec &spec,
              const Files &files, bool storeFlag, unsigned jobs)
{
    if (!files.portAnalysis.empty())
        die("--port-analysis runs locally; drop --server");
    if (storeFlag)
        die("--store is server-side in --server mode (lbpserved "
            "--store)");
    if (jobs)
        std::fprintf(stderr,
                     "lbpsweep: note: --jobs is server-side in "
                     "--server mode; ignoring\n");

    std::ofstream eventLog;
    if (!files.eventLog.empty()) {
        eventLog = openOutput(kTool, files.eventLog, std::ios::app);
        copts.eventLog = &eventLog;
    }

    std::printf("sweeping %zu configs x %zu workloads (%llu warm-up + "
                "%llu measured instrs each, server=%s)\n",
                spec.configs.size(), suiteSize(specSuiteOptions(spec)),
                static_cast<unsigned long long>(spec.warmupInstrs),
                static_cast<unsigned long long>(spec.measureInstrs),
                (copts.host + ':' + std::to_string(copts.port)).c_str());

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

    if (!files.manifest.empty()) {
        std::ofstream out = openOutput(kTool, files.manifest);
        out << res.manifest;
        std::printf("wrote manifest to %s\n", files.manifest.c_str());
    }
    if (!files.csv.empty()) {
        std::ofstream out = openOutput(kTool, files.csv);
        out << res.csv;
        std::printf("wrote results CSV to %s\n", files.csv.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepSpec spec;
    SweepOptions sweepOpts;
    sweepOpts.progress = stderr;
    ServeClientOptions server;  // port 0 = sweep locally
    StoreGcPolicy gc;
    Files files;
    std::optional<std::string> storeFlag;
    bool storeGc = false;
    const CliSpec cli = {
        kTool,
        "lbpsweep — concurrent figure-sweep orchestrator",
        {
            {"--spec", nullptr, "<path>",
             "declarative sweep spec (docs/SWEEP.md);\n"
             "default: the full 11-config figure set",
             cliText(files.spec)},
            {"--suite", nullptr, "<N|all>",
             "workloads to sweep (default 8; 0 or all =\n"
             "the whole suite)",
             bindSuite(spec)},
            {"--warmup", nullptr, "<N>",
             "warm-up instruction budget (default 40000)",
             cliCount(spec.warmupInstrs)},
            {"--instr", nullptr, "<N>",
             "measured instruction budget (default 60000)",
             cliCount(spec.measureInstrs)},
            {"--jobs", nullptr, "<N>",
             "worker threads for the suite build and the\n"
             "sweep (default REPRO_JOBS, else hardware\n"
             "concurrency)",
             cliCount(sweepOpts.jobs)},
            {"--store", nullptr, "<dir>",
             "persistent result store directory (default\n"
             "$REPRO_RESULT_STORE; empty = no store)",
             cliText(storeFlag)},
            {"--event-log", nullptr, "<path>",
             "append JSON-lines cell/config events",
             cliText(files.eventLog)},
            {"--manifest", nullptr, "<path>",
             "write the sweep manifest JSON", cliText(files.manifest)},
            {"--csv", nullptr, "<path>", "write per-run results CSV",
             cliText(files.csv)},
            {"--port-analysis", nullptr, "<path>",
             "write the Figure-8 repair-port sensitivity\n"
             "CSV (runs a forensics pass)",
             cliText(files.portAnalysis)},
            {"--server", nullptr, "<host:port>",
             "run the sweep on a resident lbpserved instead\n"
             "of locally (docs/SERVER.md)",
             bindServer(server)},
            {"--trace", nullptr, "<id>",
             "request trace id stamped on every event record\n"
             "and the manifest (default: server-minted in\n"
             "--server mode, off locally)",
             cliText(sweepOpts.traceId)},
            {"--store-gc", nullptr, nullptr,
             "no sweep: garbage-collect the store by\n"
             "--store-gc-age/--store-gc-bytes and print the\n"
             "eviction audit",
             cliAssign(storeGc, true)},
            {"--store-gc-age", nullptr, "<secs>",
             "gc: evict entries older than this",
             cliSeconds(gc.maxAgeSeconds)},
            {"--store-gc-bytes", nullptr, "<N>",
             "gc: then cap the store at N bytes, oldest first",
             cliCount(gc.maxBytes)},
            {"--quiet", nullptr, nullptr, "suppress the live progress line",
             cliAssign(sweepOpts.progress, nullptr)},
        }};
    if (const std::optional<int> rc = parseCli(cli, argc, argv))
        return *rc;
    const char *envStore = std::getenv("REPRO_RESULT_STORE");
    const std::string storeDir = storeFlag.value_or(envStore ? envStore : "");

    if (storeGc)
        return runStoreGc(storeDir, gc);

    // The flag values ride in a server submit as fields, which the
    // server applies before the spec text, exactly as below.
    server.suite = spec.suite;
    server.fullSuite = spec.fullSuite;
    server.warmupInstrs = spec.warmupInstrs;
    server.measureInstrs = spec.measureInstrs;

    // Resolve the request through the shared spec grammar
    // (sim/sweep_spec.hh) — the same code path a server submit takes.
    if (!files.spec.empty()) {
        std::ifstream in(files.spec);
        if (!in)
            die("cannot read spec " + files.spec);
        std::ostringstream raw;
        raw << in.rdbuf();
        server.specText = raw.str();
        std::string err;
        if (!parseSweepSpecText(server.specText, spec, err))
            die(err);
    }
    finalizeSweepSpec(spec);
    if (server.port) {
        server.traceId = sweepOpts.traceId;
        server.progress = sweepOpts.progress;
        return runServerMode(server, spec, files, storeFlag.has_value(),
                             sweepOpts.jobs);
    }

    const std::vector<Program> suite = buildSpecSuite(spec, sweepOpts.jobs);
    const std::vector<SweepConfig> &configs = spec.configs;

    std::printf("sweeping %zu configs x %zu workloads (%llu warm-up + "
                "%llu measured instrs each, jobs=%u)\n",
                configs.size(), suite.size(),
                static_cast<unsigned long long>(spec.warmupInstrs),
                static_cast<unsigned long long>(spec.measureInstrs),
                resolveJobs(sweepOpts.jobs));

    ResultStore store(storeDir);
    std::ofstream eventLog;
    if (!files.eventLog.empty()) {
        eventLog = openOutput(kTool, files.eventLog, std::ios::app);
        sweepOpts.eventLog = &eventLog;
    }
    sweepOpts.store = storeDir.empty() ? nullptr : &store;

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

    if (!files.manifest.empty()) {
        std::ofstream out = openOutput(kTool, files.manifest);
        writeSweepManifest(out, res, configs);
        std::printf("wrote manifest to %s\n", files.manifest.c_str());
    }
    if (!files.csv.empty()) {
        std::ofstream out = openOutput(kTool, files.csv);
        writeSweepCsv(out, res, configs);
        std::printf("wrote results CSV to %s\n", files.csv.c_str());
    }
    if (!files.portAnalysis.empty())
        runPortAnalysis(suite, spec, sweepOpts.jobs, files.portAnalysis);
    return 0;
}
