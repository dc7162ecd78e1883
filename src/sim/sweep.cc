#include "sim/sweep.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <mutex>
#include <ostream>
#include <utility>

#include "common/jsonl.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "sim/result_store.hh"
#include "sim/suite_cache.hh"

namespace lbp {

const char *
sweepOutcomeName(SweepCell::Outcome o)
{
    switch (o) {
      case SweepCell::Outcome::Simulated:
        return "simulated";
      case SweepCell::Outcome::StoreHit:
        return "store_hit";
      case SweepCell::Outcome::CacheHit:
        return "cache_hit";
    }
    return "unknown";
}

SweepConfigSummary
sweepConfigSummary(const SweepResult &res, std::size_t c)
{
    const std::size_t nc = res.configKeys.size();
    const std::size_t nw = nc ? res.cells.size() / nc : 0;
    SweepConfigSummary s;
    if (nw)
        s.outcome = res.cells[c * nw].outcome;
    for (std::size_t w = 0; w < nw; ++w)
        s.wallSeconds += res.cells[c * nw + w].wallSeconds;
    return s;
}

namespace {

/** Deterministic, lossless double rendering (common/jsonl.hh):
 *  cold- and warm-store sweeps must emit identical bytes. */
std::string
num(double v)
{
    return jsonNumber(v);
}

double
cellMinstrPerSec(const SweepCell &cell)
{
    if (cell.wallSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(cell.simInstrs) / 1e6 / cell.wallSeconds;
}

/** `,"trace":"<id>"` when a trace id is set; nothing otherwise, so
 *  untraced (local) event logs keep their historical bytes. */
void
emitTrace(std::ostream &os, const std::string &trace_id)
{
    if (trace_id.empty())
        return;
    os << ",\"trace\":";
    jsonEscape(os, trace_id);
}

void
emitCellEvent(std::ostream &os, const std::string &trace_id,
              const SweepConfig &cfg, const SweepCell &cell)
{
    os << "{\"event\":\"cell\"";
    emitTrace(os, trace_id);
    os << ",\"config\":";
    jsonEscape(os, cfg.name);
    os << ",\"workload\":";
    jsonEscape(os, cell.workload);
    os << ",\"outcome\":\"" << sweepOutcomeName(cell.outcome) << '"'
       << ",\"wall_s\":" << num(cell.wallSeconds)
       << ",\"minstr_per_s\":" << num(cellMinstrPerSec(cell))
       << ",\"worker\":" << cell.worker << "}\n";
}

void
emitConfigEvent(std::ostream &os, const std::string &trace_id,
                const SweepConfig &cfg, const std::string &config_key,
                SweepCell::Outcome outcome, double wallSeconds)
{
    os << "{\"event\":\"config\"";
    emitTrace(os, trace_id);
    os << ",\"config\":";
    jsonEscape(os, cfg.name);
    os << ",\"key\":";
    jsonEscape(os, config_key);
    os << ",\"outcome\":\"" << sweepOutcomeName(outcome) << '"'
       << ",\"wall_s\":" << num(wallSeconds) << "}\n";
}

void
emitEvictEvent(std::ostream &os, const std::string &trace_id,
               const StoreAuditRecord &rec)
{
    os << "{\"event\":\"store_evict\"";
    emitTrace(os, trace_id);
    os << ",\"file\":";
    jsonEscape(os, rec.file);
    os << ",\"reason\":\"" << rec.reason << "\",\"fingerprint\":";
    jsonEscape(os, rec.fingerprint);
    os << ",\"bytes\":" << rec.bytes
       << ",\"age_s\":" << num(rec.ageSeconds) << "}\n";
}

} // namespace

std::string
renderSweepProgress(std::size_t done, std::size_t total,
                    double elapsedSeconds)
{
    const double pct =
        total ? 100.0 * static_cast<double>(done) /
                    static_cast<double>(total)
              : 100.0;
    char buf[160];
    if (done > 0 && elapsedSeconds > 0.0) {
        const double rate =
            static_cast<double>(done) / elapsedSeconds;
        const double eta =
            static_cast<double>(total - done) / rate;
        std::snprintf(buf, sizeof(buf),
                      "[sweep] %llu/%llu cells (%.1f%%) %.1f cells/s "
                      "ETA %.0fs",
                      static_cast<unsigned long long>(done),
                      static_cast<unsigned long long>(total), pct, rate,
                      eta);
    } else {
        std::snprintf(buf, sizeof(buf),
                      "[sweep] %llu/%llu cells (%.1f%%) ETA --",
                      static_cast<unsigned long long>(done),
                      static_cast<unsigned long long>(total), pct);
    }
    return buf;
}

SweepResult
runSweep(const std::vector<Program> &suite,
         const std::vector<SweepConfig> &configs,
         const SweepOptions &opts)
{
    SweepResult out;
    SuiteCache &cache = opts.cache ? *opts.cache : SuiteCache::process();
    const std::size_t nc = configs.size();
    const std::size_t nw = suite.size();
    out.suiteKey = suiteKey(suite);
    out.configKeys.resize(nc);
    out.configResults.assign(nc, nullptr);
    out.cells.resize(nc * nw);
    out.jobs = resolveJobs(opts.jobs);
    out.stats.cellsTotal = nc * nw;
    out.traceId = opts.traceId;
    out.storeUsed = opts.store != nullptr;

    const ResultStore::StoreStats storeBefore =
        opts.store ? opts.store->stats() : ResultStore::StoreStats{};

    Stopwatch sweepSw;
    if (opts.eventLog) {
        *opts.eventLog << "{\"event\":\"sweep_start\"";
        emitTrace(*opts.eventLog, opts.traceId);
        *opts.eventLog << ",\"configs\":" << nc
                       << ",\"workloads\":" << nw
                       << ",\"cells\":" << nc * nw << "}\n";
    }

    for (std::size_t c = 0; c < nc; ++c) {
        for (std::size_t w = 0; w < nw; ++w) {
            SweepCell &cell = out.cells[c * nw + w];
            cell.configIndex = c;
            cell.workloadIndex = w;
            cell.workload = suite[w].name;
        }
    }

    // Phase 1 (serial): probe the cache, then the store, per config.
    // Store loads enter the cache so the cache owns every result the
    // sweep hands out, whatever its origin. A config whose key an
    // earlier config of this sweep left pending is a cache hit on that
    // config's result (phase 3), so nothing is simulated or stored
    // twice.
    std::vector<std::size_t> pending;
    std::map<std::string, std::size_t> pendingByKey;
    std::vector<std::pair<std::size_t, std::size_t>> repeats;
    std::size_t done = 0;
    for (std::size_t c = 0; c < nc; ++c) {
        out.configKeys[c] = configKey(configs[c].cfg);
        const std::string key = out.suiteKey + '\n' + out.configKeys[c];

        SweepCell::Outcome outcome = SweepCell::Outcome::Simulated;
        if (const auto first = pendingByKey.find(out.configKeys[c]);
            first != pendingByKey.end()) {
            repeats.emplace_back(c, first->second);
            outcome = SweepCell::Outcome::CacheHit;
            out.stats.cellsCacheHit += nw;
        } else if (const SuiteResult *hit = cache.find(key)) {
            out.configResults[c] = hit;
            outcome = SweepCell::Outcome::CacheHit;
            out.stats.cellsCacheHit += nw;
        } else if (opts.store) {
            if (auto loaded =
                    opts.store->load(out.suiteKey, out.configKeys[c])) {
                out.configResults[c] =
                    &cache.insert(key, std::move(*loaded));
                outcome = SweepCell::Outcome::StoreHit;
                out.stats.cellsStoreHit += nw;
            }
        }
        if (outcome == SweepCell::Outcome::Simulated) {
            pendingByKey.emplace(out.configKeys[c], c);
            pending.push_back(c);
            continue;
        }

        done += nw;
        for (std::size_t w = 0; w < nw; ++w) {
            SweepCell &cell = out.cells[c * nw + w];
            cell.outcome = outcome;
            if (opts.eventLog)
                emitCellEvent(*opts.eventLog, opts.traceId, configs[c],
                              cell);
        }
        if (opts.eventLog)
            emitConfigEvent(*opts.eventLog, opts.traceId, configs[c],
                            out.configKeys[c], outcome, 0.0);
    }

    // Phase 2 (parallel): flatten every remaining (config, workload)
    // pair into one queue; uneven cells self-balance across workers.
    struct Task
    {
        std::size_t c;
        std::size_t w;
    };
    std::vector<Task> tasks;
    tasks.reserve(pending.size() * nw);
    for (const std::size_t c : pending)
        for (std::size_t w = 0; w < nw; ++w)
            tasks.push_back(Task{c, w});

    std::vector<SuiteResult> fresh(nc);
    for (const std::size_t c : pending)
        fresh[c].runs.resize(nw);

    std::mutex mu;  // cell records, stats, event log, progress line
    const auto runCell = [&](std::size_t t) {
        const Task &task = tasks[t];
        const SimConfig &cfg = configs[task.c].cfg;
        Stopwatch sw;
        RunResult r = runOne(suite[task.w], cfg);
        const double secs = sw.seconds();
        const std::uint64_t instrs =
            r.stats.retiredInstrs + cfg.warmupInstrs;
        SweepCell &cell = out.cells[task.c * nw + task.w];
        fresh[task.c].runs[task.w] = std::move(r);

        std::lock_guard<std::mutex> lk(mu);
        cell.outcome = SweepCell::Outcome::Simulated;
        cell.wallSeconds = secs;
        cell.simInstrs = instrs;
        cell.worker = ThreadPool::currentIndex();
        ++out.stats.cellsSimulated;
        // analyze:allow(parallel-float-accum): wall-clock telemetry —
        // the summand is already nondeterministic, and the manifest
        // never feeds this back into simulation state.
        out.stats.cellWallSeconds += secs;
        out.stats.simInstrs += instrs;
        ++done;
        if (opts.eventLog)
            emitCellEvent(*opts.eventLog, opts.traceId, configs[task.c],
                          cell);
        if (opts.progress) {
            std::fprintf(opts.progress, "\r%s",
                         renderSweepProgress(done, out.stats.cellsTotal,
                                             sweepSw.seconds())
                             .c_str());
            std::fflush(opts.progress);
        }
    };

    if (!tasks.empty()) {
        if (out.jobs <= 1) {
            for (std::size_t t = 0; t < tasks.size(); ++t)
                runCell(t);
        } else {
            ThreadPool pool(static_cast<unsigned>(
                std::min<std::size_t>(out.jobs, tasks.size())));
            pool.parallelFor(tasks.size(), runCell);
        }
    }

    // Phase 3 (serial): assemble telemetry, persist, memoize.
    for (const std::size_t c : pending) {
        SuiteResult &res = fresh[c];
        double wall = 0.0;
        std::uint64_t instrs = 0;
        for (std::size_t w = 0; w < nw; ++w) {
            const SweepCell &cell = out.cells[c * nw + w];
            wall += cell.wallSeconds;
            instrs += cell.simInstrs;
        }
        res.telemetry.label = configLabel(configs[c].cfg);
        res.telemetry.workloads = nw;
        res.telemetry.jobs = out.jobs;
        res.telemetry.wallSeconds = wall;
        res.telemetry.simInstrs = instrs;

        if (opts.store)
            opts.store->save(out.suiteKey, out.configKeys[c], res);
        const std::string key = out.suiteKey + '\n' + out.configKeys[c];
        out.configResults[c] = &cache.insert(key, std::move(res));
        if (opts.eventLog)
            emitConfigEvent(*opts.eventLog, opts.traceId, configs[c],
                            out.configKeys[c],
                            SweepCell::Outcome::Simulated, wall);
    }
    for (const auto &[c, first] : repeats)
        out.configResults[c] = out.configResults[first];

    if (opts.store) {
        const ResultStore::StoreStats after = opts.store->stats();
        out.stats.storeHits = after.hits - storeBefore.hits;
        out.stats.storeMisses = after.misses - storeBefore.misses;
        out.stats.storeStale = after.stale - storeBefore.stale;
        out.stats.storeWrites = after.writes - storeBefore.writes;
        // Stale deletes the probes performed, for the manifest's audit
        // trail and the event log — no more silent unlinks.
        out.storeAudit = opts.store->takeAudit();
        if (opts.eventLog)
            for (const StoreAuditRecord &rec : out.storeAudit)
                emitEvictEvent(*opts.eventLog, opts.traceId, rec);
    }
    out.stats.wallSeconds = sweepSw.seconds();

    if (opts.progress)
        std::fprintf(opts.progress, "\r%s\n",
                     renderSweepProgress(done, out.stats.cellsTotal,
                                         out.stats.wallSeconds)
                         .c_str());
    if (opts.eventLog) {
        const SweepStats &s = out.stats;
        *opts.eventLog << "{\"event\":\"sweep_end\"";
        emitTrace(*opts.eventLog, opts.traceId);
        *opts.eventLog << ",\"cells_total\":" << s.cellsTotal
                       << ",\"cells_simulated\":" << s.cellsSimulated
                       << ",\"cells_store_hit\":" << s.cellsStoreHit
                       << ",\"cells_cache_hit\":" << s.cellsCacheHit
                       << ",\"store_hits\":" << s.storeHits
                       << ",\"store_misses\":" << s.storeMisses
                       << ",\"store_stale\":" << s.storeStale
                       << ",\"store_writes\":" << s.storeWrites
                       << ",\"sim_instrs\":" << s.simInstrs
                       << ",\"cell_wall_s\":" << num(s.cellWallSeconds)
                       << ",\"wall_s\":" << num(s.wallSeconds) << "}\n";
    }
    return out;
}

void
printSweepSummary(std::FILE *out, const SweepStats &s,
                  const ResultStore *store)
{
    std::fprintf(out,
                 "cells: %llu total = %llu simulated + %llu store hits "
                 "+ %llu cache hits\n",
                 static_cast<unsigned long long>(s.cellsTotal),
                 static_cast<unsigned long long>(s.cellsSimulated),
                 static_cast<unsigned long long>(s.cellsStoreHit),
                 static_cast<unsigned long long>(s.cellsCacheHit));
    if (store)
        std::fprintf(out,
                     "store: %llu hits, %llu misses (%llu stale), "
                     "%llu writes -> %s\n",
                     static_cast<unsigned long long>(s.storeHits),
                     static_cast<unsigned long long>(s.storeMisses),
                     static_cast<unsigned long long>(s.storeStale),
                     static_cast<unsigned long long>(s.storeWrites),
                     store->dir().c_str());
    std::fprintf(out, "wall %.2fs (%.2f Minstr/s)\n", s.wallSeconds,
                 s.wallSeconds > 0.0
                     ? static_cast<double>(s.simInstrs) / 1e6 /
                           s.wallSeconds
                     : 0.0);
}

void
writeSweepManifest(std::ostream &os, const SweepResult &res,
                   const std::vector<SweepConfig> &configs)
{
    const std::size_t nc = configs.size();
    const std::size_t nw = nc ? res.cells.size() / nc : 0;
    os << "{\n  \"schema\": \"lbp-sweep-manifest-v1\",\n  \"git_sha\": ";
    jsonEscape(os, gitShaString());
    os << ",\n  \"fingerprint\": ";
    jsonEscape(os, buildFingerprint());
    os << ",\n  \"suite_key\": ";
    jsonEscape(os, res.suiteKey);
    os << ",\n  \"jobs\": " << res.jobs;
    if (!res.traceId.empty()) {
        os << ",\n  \"trace_id\": ";
        jsonEscape(os, res.traceId);
    }
    os << ",\n  \"counters\": ";
    MetricsRegistry reg;
    registerMetrics(reg, sweepMetrics(), res.stats);
    reg.writeJson(os);
    if (res.storeUsed) {
        // Store lifecycle this sweep observed: the stale-delete count
        // plus the full eviction audit trail (empty when nothing was
        // invalidated — warm and cold runs keep identical shapes).
        os << "  ,\n  \"store\": {\"stale_deletes\": "
           << res.stats.storeStale << ", \"evictions\": [";
        for (std::size_t i = 0; i < res.storeAudit.size(); ++i) {
            const StoreAuditRecord &rec = res.storeAudit[i];
            os << (i ? "," : "") << "\n    {\"file\": ";
            jsonEscape(os, rec.file);
            os << ", \"reason\": \"" << rec.reason
               << "\", \"fingerprint\": ";
            jsonEscape(os, rec.fingerprint);
            os << ", \"bytes\": " << rec.bytes << '}';
        }
        os << "]}";
    }
    os << "  ,\n  \"configs\": [\n";
    for (std::size_t c = 0; c < nc; ++c) {
        const SweepConfigSummary sum = sweepConfigSummary(res, c);
        os << "    {\"name\": ";
        jsonEscape(os, configs[c].name);
        os << ", \"label\": ";
        jsonEscape(os, configLabel(configs[c].cfg));
        os << ", \"key\": ";
        jsonEscape(os, res.configKeys[c]);
        os << ", \"outcome\": \"" << sweepOutcomeName(sum.outcome)
           << "\", \"wall_s\": " << num(sum.wallSeconds)
           << ",\n     \"cells\": [";
        for (std::size_t w = 0; w < nw; ++w) {
            const SweepCell &cell = res.cells[c * nw + w];
            os << (w ? "," : "") << "\n      {\"workload\": ";
            jsonEscape(os, cell.workload);
            os << ", \"outcome\": \"" << sweepOutcomeName(cell.outcome)
               << "\", \"wall_s\": " << num(cell.wallSeconds)
               << ", \"sim_instrs\": " << cell.simInstrs
               << ", \"worker\": " << cell.worker << '}';
        }
        os << "]}" << (c + 1 < nc ? "," : "") << '\n';
    }
    os << "  ]\n}\n";
}

void
writeSweepCsv(std::ostream &os, const SweepResult &res,
              const std::vector<SweepConfig> &configs)
{
    // Rows are rendered into one string buffer that goes to @p os in
    // 64 KiB pieces: a full-suite figure set is ~2k rows of ~40
    // fields, so per-field stream insertion would dominate a warm
    // (store-hit) sweep, while a whole-CSV buffer would add its size
    // to peak memory.
    constexpr std::size_t flushBytes = 64 * 1024;
    const std::vector<MetricDesc<RunResult>> &metrics = runMetrics();
    std::string out;
    out.reserve(flushBytes + 1024);
    out += "config,workload,category";
    for (const MetricDesc<RunResult> &d : metrics) {
        out += ',';
        out += d.name;
    }
    out += '\n';
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const SuiteResult *sr = res.configResults[c];
        if (!sr)
            continue;
        for (const RunResult &r : sr->runs) {
            out += configs[c].name;
            out += ',';
            out += r.workload;
            out += ',';
            out += r.category;
            for (const MetricDesc<RunResult> &d : metrics) {
                out += ',';
                if (d.integral) {
                    char buf[24];
                    const std::to_chars_result tc = std::to_chars(
                        buf, buf + sizeof(buf),
                        static_cast<std::uint64_t>(d.get(r)));
                    out.append(buf, tc.ptr);
                } else {
                    appendJsonNumber(out, d.get(r));
                }
            }
            out += '\n';
            if (out.size() >= flushBytes) {
                os.write(out.data(),
                         static_cast<std::streamsize>(out.size()));
                out.clear();
            }
        }
    }
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

const std::string &
gitShaString()
{
    static const std::string sha =
#ifdef LBP_GIT_SHA
        LBP_GIT_SHA;
#else
        "unknown";
#endif
    return sha;
}

} // namespace lbp
