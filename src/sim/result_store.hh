/**
 * @file
 * Persistent cross-process memoization of whole-suite simulations.
 *
 * SuiteCache (suite_cache.hh) memoizes within one process. ResultStore
 * extends the same keying to disk: runSweep() serializes every
 * SuiteResult it simulates under (build fingerprint, suiteKey,
 * configKey) and probes the store before simulating, so a repeated
 * invocation — warm CI job, re-run lbpsweep, a figure bench whose
 * configurations an earlier bench stored (REPRO_RESULT_STORE) — loads
 * results in milliseconds and performs zero simulations.
 *
 * Staleness is handled by construction, not by trust: the fingerprint
 * embeds the SHA-256 of tests/golden_stats_fixture.hh (the committed
 * pin of the simulator's bit-exact behavior — any behavioral change
 * regenerates it) plus the compiler and result-affecting build flags.
 * An entry whose fingerprint or keys no longer match is counted stale,
 * deleted, and re-simulated; a stored hit is therefore always
 * bit-identical to what a fresh simulation would produce.
 *
 * Serialization is exact: doubles round-trip through C99 hex-float
 * (%a), so a warm-store pass emits byte-identical CSVs to the cold
 * pass that populated it (tests/test_result_store.cc pins this).
 */

#ifndef LBP_SIM_RESULT_STORE_HH
#define LBP_SIM_RESULT_STORE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/runner.hh"

namespace lbp {

/**
 * Fingerprint of everything besides (suite, config) that could change
 * a result: the golden-stats fixture hash (behavioral pin), compiler
 * version, and the one result-relevant build flag (NDEBUG). Two builds
 * with equal fingerprints produce bit-identical SuiteResults for equal
 * keys.
 */
const std::string &buildFingerprint();

/**
 * Serialize @p res under (@p fingerprint, @p suite_key, @p config_key)
 * in the store's line-based text format (doubles as %a hex-floats, so
 * the round trip is bit-exact). Exposed separately from ResultStore so
 * tests can craft entries with doctored fingerprints.
 */
void serializeSuiteResult(std::ostream &os,
                          const std::string &fingerprint,
                          const std::string &suite_key,
                          const std::string &config_key,
                          const SuiteResult &res);

/**
 * Parse a serialized entry held in memory, validating the fingerprint
 * and both keys against the expected values. Strict: the run count
 * must equal the suite key's `n=`, every integer field must be plain
 * decimal digits that fit 64 bits, every float field a %a hex-float,
 * and every line must hold exactly its field count. Returns null on
 * any mismatch or parse error (the caller treats that as a stale
 * entry). The returned result's telemetry records no wall time and
 * no simulated instructions: loading it simulated nothing.
 */
std::unique_ptr<SuiteResult>
deserializeSuiteResult(std::string_view entry,
                       const std::string &fingerprint,
                       const std::string &suite_key,
                       const std::string &config_key);

/**
 * Store-lifecycle counters, exported via storeMetrics() (the per-sweep
 * deltas of the first four also flow into sweepMetrics()). Lifetime of
 * one ResultStore instance — a resident daemon accumulates them across
 * every sweep it executes.
 */
struct StoreStats
{
    std::uint64_t hits = 0;     ///< entries loaded from disk
    std::uint64_t misses = 0;   ///< lookups with no usable entry
    std::uint64_t stale = 0;    ///< entries invalidated and removed
    std::uint64_t writes = 0;   ///< entries persisted
    std::uint64_t bytesRead = 0;     ///< bytes of entries loaded
    std::uint64_t bytesWritten = 0;  ///< bytes of entries persisted
    std::uint64_t gcEvicted = 0;       ///< entries removed by gc()
    std::uint64_t gcEvictedBytes = 0;  ///< bytes reclaimed by gc()
};

/**
 * Per-build-fingerprint accounting: which build's entries are being
 * hit, missed and invalidated. Hits/misses/writes accrue to the
 * running build's fingerprint; stale deletes accrue to the fingerprint
 * recorded in the evicted entry (or "unreadable"), so a scrape shows
 * exactly whose leftovers a shared store is shedding.
 */
struct FingerprintStats
{
    std::uint64_t hits = 0;    ///< usable loads under this fingerprint
    std::uint64_t misses = 0;  ///< lookups that found nothing usable
    std::uint64_t stale = 0;   ///< entries of this fingerprint evicted
    std::uint64_t bytes = 0;   ///< bytes loaded + persisted
};

/**
 * One store eviction, for the audit trail: stale deletes on load and
 * gc() removals both produce these. Sweeps forward them into the
 * event log and manifest; the daemon streams them as event records.
 */
struct StoreAuditRecord
{
    std::string file;         ///< entry file name inside dir()
    std::string reason;       ///< "stale" / "age" / "size"
    std::string fingerprint;  ///< evicted entry's recorded fingerprint
    std::uint64_t bytes = 0;  ///< file size at eviction
    double ageSeconds = 0.0;  ///< mtime age when evicted (gc only)
};

/**
 * Retention policy for ResultStore::gc(): entries older than
 * maxAgeSeconds are evicted, then the oldest entries go until the
 * store fits under maxBytes. Zero disables either limit.
 */
struct StoreGcPolicy
{
    double maxAgeSeconds = 0.0;  ///< evict entries older than this
    std::uint64_t maxBytes = 0;  ///< then cap total store size
};

/**
 * On-disk store of completed SuiteResults, one file per
 * (fingerprint, suiteKey, configKey) entry. Thread-safe; the sweep
 * orchestrator shares one instance across its workers. The directory
 * is created lazily on first save.
 */
class ResultStore
{
  public:
    /** Historical nested-name spelling of the counters struct. */
    using StoreStats = ::lbp::StoreStats;

    /** Open (without touching) the store rooted at @p dir. */
    explicit ResultStore(std::string dir);

    /**
     * Load the entry for (suite_key, config_key) under the current
     * build fingerprint. Null on miss; a present-but-mismatched entry
     * (old fingerprint, hash collision, truncated file, any field
     * deserializeSuiteResult() rejects) counts as stale, is deleted,
     * is recorded on the audit trail, and reports as a miss.
     */
    std::unique_ptr<SuiteResult> load(const std::string &suite_key,
                                      const std::string &config_key);

    /**
     * Persist @p res for (suite_key, config_key). Returns false (and
     * warns) on I/O failure — the sweep continues, just colder.
     */
    bool save(const std::string &suite_key,
              const std::string &config_key, const SuiteResult &res);

    StoreStats stats() const;

    /** Per-fingerprint accounting snapshot (deterministic key order). */
    std::map<std::string, FingerprintStats> fingerprintStats() const;

    /**
     * Drain the eviction audit trail accumulated since the last call
     * (stale deletes and gc() removals, in occurrence order).
     */
    std::vector<StoreAuditRecord> takeAudit();

    /**
     * Garbage-collect by age then size cap (see StoreGcPolicy): scan
     * the directory for *.result entries, evict everything older than
     * the age limit, then evict oldest-first until the remainder fits
     * under the byte cap. Deterministic order (age, then file name).
     * Returns the evictions performed; the same records also join the
     * audit trail and bump the gc counters.
     */
    std::vector<StoreAuditRecord> gc(const StoreGcPolicy &policy);

    /** Store directory as given at construction. */
    const std::string &dir() const { return dir_; }

    /**
     * File name (inside dir()) for an entry: an FNV-1a-64 digest of
     * (fingerprint, suite key, config key), so entries are stable
     * across processes and distinct configurations never share a file.
     */
    static std::string entryFileName(const std::string &fingerprint,
                                     const std::string &suite_key,
                                     const std::string &config_key);

  private:
    std::string dir_;
    mutable std::mutex mu_;
    StoreStats stats_;
    std::map<std::string, FingerprintStats> fps_;
    std::vector<StoreAuditRecord> audit_;
};

} // namespace lbp

#endif // LBP_SIM_RESULT_STORE_HH
