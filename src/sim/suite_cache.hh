/**
 * @file
 * Config-keyed memoization of whole-suite simulations.
 *
 * Every figure bench replays the same TAGE-only baseline and
 * perfect-repair suites; a sensitivity sweep revisits configurations
 * it has already simulated. Since runs are bit-deterministic functions
 * of (suite, SimConfig), identical inputs can share one simulation.
 * SuiteCache keys completed SuiteResults by a canonical serialization
 * of the configuration plus a structural fingerprint of the suite, so
 * each distinct configuration is simulated at most once per process.
 *
 * Cached entries are heap-stable (unique_ptr), so the references
 * handed out stay valid for the cache's lifetime.
 */

#ifndef LBP_SIM_SUITE_CACHE_HH
#define LBP_SIM_SUITE_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/runner.hh"

namespace lbp {

/**
 * Canonical serialization of every result-affecting SimConfig field.
 * Two configs with equal keys produce bit-identical SuiteResults.
 * When adding a SimConfig field, add it here or stale hits follow.
 */
std::string configKey(const SimConfig &cfg);

/** Structural fingerprint of a built suite (names + CFG shape). */
std::string suiteKey(const std::vector<Program> &suite);

/**
 * Combined cache key, suiteKey + '\n' + configKey — the exact key
 * SuiteCache uses internally, exposed so the sweep orchestrator and
 * the result store can address entries without re-deriving the format.
 */
std::string suiteCacheKey(const std::vector<Program> &suite,
                          const SimConfig &cfg);

class SuiteCache
{
  public:
    struct CacheStats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    /**
     * Return the memoized result for (suite, cfg), simulating it via
     * runSuite(suite, cfg, jobs) on the first request. The reference
     * is stable until clear().
     */
    const SuiteResult &run(const std::vector<Program> &suite,
                           const SimConfig &cfg, unsigned jobs = 0);

    /**
     * Look up a precomputed key (suiteCacheKey) without simulating on
     * miss. Counts a hit when found; a miss is NOT counted (the caller
     * decides what a failed probe means).
     * Null on miss; otherwise stable until clear().
     */
    const SuiteResult *find(const std::string &key);

    /**
     * Insert an externally produced result (e.g. loaded from the
     * persistent store) under @p key. First insert wins; the returned
     * reference is the canonical entry either way, stable until
     * clear(). Does not touch hit/miss counters.
     */
    const SuiteResult &insert(const std::string &key, SuiteResult res);

    CacheStats stats() const;
    std::size_t entries() const;
    void clear();

    /** The process-wide cache the benches share. */
    static SuiteCache &process();

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::string, std::unique_ptr<SuiteResult>> map_;
    CacheStats stats_;
};

/** Shorthand for SuiteCache::process().run(...). */
const SuiteResult &runSuiteCached(const std::vector<Program> &suite,
                                  const SimConfig &cfg,
                                  unsigned jobs = 0);

} // namespace lbp

#endif // LBP_SIM_SUITE_CACHE_HH
