/**
 * @file
 * Figure-sweep orchestration: run many (configuration × workload)
 * cells as one observable work queue.
 *
 * Reproducing the paper means simulating ~10 configurations over the
 * same suite; lbpsweep, lbpserved and every figure bench run them
 * through runSweep(). It schedules every cell over one thread pool,
 * simulates each distinct configuration once, probes the SuiteCache
 * and the persistent ResultStore before simulating, and reports
 * everything it did: per-cell outcome/wall-time/worker in a
 * JSON-lines event log, a live progress/ETA line, aggregate counters
 * (sweepMetrics() in obs/metrics.hh names them), and a final manifest
 * with git SHA + store fingerprint + per-cell provenance.
 *
 * Orchestration never changes results: cells are pure functions of
 * (workload, SimConfig), each lands in its own preassigned slot, and
 * tests/test_determinism.cc pins sweep output bit-identical to serial
 * per-config runSuite() calls.
 */

#ifndef LBP_SIM_SWEEP_HH
#define LBP_SIM_SWEEP_HH

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/result_store.hh"
#include "sim/runner.hh"

namespace lbp {

class ResultStore;
class SuiteCache;

/** One named configuration of a sweep (one column of the figure set). */
struct SweepConfig
{
    std::string name;  ///< spec-facing identifier ("baseline", ...)
    SimConfig cfg;     ///< full simulator configuration
};

/**
 * Outcome and provenance of one (configuration × workload) cell — one
 * line of the event log, one entry of the manifest.
 */
struct SweepCell
{
    /** How the cell's result was obtained. */
    enum class Outcome
    {
        Simulated,  ///< freshly simulated in this sweep
        StoreHit,   ///< whole config loaded from the persistent store
        CacheHit,   ///< whole config found in the in-process SuiteCache
    };

    std::size_t configIndex = 0;    ///< index into the configs vector
    std::size_t workloadIndex = 0;  ///< index into the suite
    std::string workload;           ///< workload name ("Server:0")
    Outcome outcome = Outcome::Simulated;
    double wallSeconds = 0.0;       ///< 0 for store/cache hits
    std::uint64_t simInstrs = 0;    ///< instructions simulated (w/ warm-up)
    int worker = -1;                ///< pool worker id; -1 = not simulated
};

/**
 * Aggregate sweep counters, named and exported via sweepMetrics()
 * (obs/metrics.hh) so the manifest, CSV and docs surfaces iterate one
 * table. Store counters are the delta this sweep contributed, so
 * back-to-back sweeps against one store report their own hits.
 */
struct SweepStats
{
    std::uint64_t cellsTotal = 0;      ///< configs × workloads
    std::uint64_t cellsSimulated = 0;  ///< cells actually simulated
    std::uint64_t cellsStoreHit = 0;   ///< cells served from disk
    std::uint64_t cellsCacheHit = 0;   ///< cells served from SuiteCache
    std::uint64_t storeHits = 0;       ///< ResultStore loads that hit
    std::uint64_t storeMisses = 0;     ///< ResultStore loads that missed
    std::uint64_t storeStale = 0;      ///< stale entries invalidated
    std::uint64_t storeWrites = 0;     ///< entries persisted by this sweep
    std::uint64_t simInstrs = 0;       ///< instructions simulated (w/ warm-up)
    double wallSeconds = 0.0;      ///< whole-sweep wall time
    double cellWallSeconds = 0.0;  ///< sum of simulated cells' wall times
};

/**
 * Orchestration knobs. All pointers are optional and borrowed (the
 * caller keeps ownership); null disables the corresponding output.
 */
struct SweepOptions
{
    unsigned jobs = 0;  ///< worker count; 0 = resolveJobs default

    /** Persistent store to probe/populate; null = in-process only. */
    ResultStore *store = nullptr;

    /** Memoization cache; null = the process-wide SuiteCache. Tests
     *  and the figure benches pass fresh instances (cold processes). */
    SuiteCache *cache = nullptr;

    /** JSON-lines event sink (one object per line); null = off. */
    std::ostream *eventLog = nullptr;

    /** Live progress/ETA line sink (stderr in lbpsweep); null = off. */
    std::FILE *progress = nullptr;

    /**
     * Request-scoped trace id: when non-empty, every event record and
     * the manifest carry it, correlating one service request with the
     * cells it spawned (docs/SERVER.md "Scraping and tracing"). Empty
     * (the local default) changes nothing — event logs and manifests
     * stay byte-identical to pre-tracing runs.
     */
    std::string traceId;
};

/**
 * Everything a sweep produced: canonical per-config results (owned by
 * the SuiteCache used, stable for its lifetime), per-cell provenance
 * in configs-major order, aggregate counters, and the cache keys that
 * addressed each config.
 */
struct SweepResult
{
    /** Per-config suite results, index-aligned with the configs. */
    std::vector<const SuiteResult *> configResults;

    /** All cells, row-major: cell (c, w) at index c * workloads + w. */
    std::vector<SweepCell> cells;

    SweepStats stats;  ///< aggregate counters (sweepMetrics() names them)

    std::string suiteKey;  ///< structural suite fingerprint (suiteKey())

    /** configKey() per config, index-aligned with the configs. */
    std::vector<std::string> configKeys;

    unsigned jobs = 1;  ///< worker count the sweep resolved to

    /** Trace id the sweep ran under (SweepOptions::traceId, verbatim). */
    std::string traceId;

    /** True when a persistent store was probed (manifest gains its
     *  "store" section only then, keeping storeless runs unchanged). */
    bool storeUsed = false;

    /** Store evictions observed during this sweep (stale deletes),
     *  in occurrence order — the manifest's eviction audit trail. */
    std::vector<StoreAuditRecord> storeAudit;
};

/**
 * Run every config of @p configs over @p suite as one cell queue.
 * Per config: probe the cache, then the store, and only simulate what
 * neither had; freshly simulated configs are persisted (when a store
 * is given) and inserted into the cache, which owns the results. A
 * config whose configKey() an earlier config of @p configs already
 * claimed shares that config's result and counts its cells as cache
 * hits, so no config is simulated or stored twice in one sweep.
 * Bit-identical to per-config runSuite() calls for any jobs count.
 */
SweepResult runSweep(const std::vector<Program> &suite,
                     const std::vector<SweepConfig> &configs,
                     const SweepOptions &opts = {});

/** Manifest, event-log and wire name of an outcome ("simulated",
 *  "store_hit", "cache_hit"). */
const char *sweepOutcomeName(SweepCell::Outcome o);

/**
 * One config's row of the manifest, the lbp-serve-v1 result frame and
 * lbpsweep's summary table: the outcome of its first cell (a config is
 * served or simulated whole) and the summed wall time of its cells.
 */
struct SweepConfigSummary
{
    SweepCell::Outcome outcome = SweepCell::Outcome::Simulated;
    double wallSeconds = 0.0;
};

/** Summarize config @p c of @p res (see SweepConfigSummary). */
SweepConfigSummary sweepConfigSummary(const SweepResult &res,
                                      std::size_t c);

/**
 * Render the live progress line ("cells done/total, %, cells/s, ETA")
 * for @p done of @p total cells after @p elapsedSeconds. Pure
 * formatting — exposed so tests can pin the content without a clock.
 */
std::string renderSweepProgress(std::size_t done, std::size_t total,
                                double elapsedSeconds);

/**
 * Print the summary lines of a finished local sweep: cells (total =
 * simulated + store hits + cache hits), the store's hit/miss/write
 * counts and directory when @p store is non-null, and the wall time
 * with simulated Minstr/s. lbpsweep and the figure benches end with
 * them.
 */
void printSweepSummary(std::FILE *out, const SweepStats &stats,
                       const ResultStore *store);

/**
 * Write the sweep manifest as JSON: schema tag, git SHA, store
 * fingerprint, suite key, resolved jobs, aggregate counters (the
 * sweepMetrics() table) and per-config provenance with every cell's
 * outcome/wall-time/worker. docs/SWEEP.md documents the schema.
 */
void writeSweepManifest(std::ostream &os, const SweepResult &res,
                        const std::vector<SweepConfig> &configs);

/**
 * Write per-run results as CSV: config,workload,category plus every
 * runMetrics() column. Deterministic formatting — a warm-store sweep
 * emits bytes identical to the cold sweep that populated the store.
 */
void writeSweepCsv(std::ostream &os, const SweepResult &res,
                   const std::vector<SweepConfig> &configs);

/**
 * Git SHA the build was configured from ("unknown" outside a
 * checkout). Manifest provenance only — never part of any cache key.
 */
const std::string &gitShaString();

} // namespace lbp

#endif // LBP_SIM_SWEEP_HH
