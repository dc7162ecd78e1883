/**
 * @file
 * Config-keyed memoization of whole-suite simulations.
 *
 * Runs are bit-deterministic functions of (suite, SimConfig), so
 * identical inputs can share one simulation. SuiteCache keys completed
 * SuiteResults by a canonical serialization of the configuration plus
 * a structural fingerprint of the suite. It is the in-process half of
 * runSweep()'s memoization (sim/sweep.hh): a sweep probes the cache,
 * then the persistent ResultStore, and simulates only what neither
 * holds. Each figure bench owns a fresh cache; lbpserved keeps the
 * process-wide one resident across requests.
 *
 * Cached entries are heap-stable (unique_ptr), so the references
 * handed out stay valid for the cache's lifetime.
 */

#ifndef LBP_SIM_SUITE_CACHE_HH
#define LBP_SIM_SUITE_CACHE_HH

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

class SuiteCache
{
  public:
    /**
     * Look up @p key (suiteKey + '\n' + configKey). Null on miss;
     * otherwise stable for the cache's lifetime.
     */
    const SuiteResult *find(const std::string &key);

    /**
     * Insert an externally produced result (simulated by a sweep or
     * loaded from the persistent store) under @p key. First insert
     * wins; the returned reference is the canonical entry either way,
     * stable for the cache's lifetime.
     */
    const SuiteResult &insert(const std::string &key, SuiteResult res);

    std::size_t entries() const;

    /** The process-wide cache lbpserved keeps resident; the default of
     *  a null SweepOptions::cache. */
    static SuiteCache &process();

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::string, std::unique_ptr<SuiteResult>> map_;
};

} // namespace lbp

#endif // LBP_SIM_SUITE_CACHE_HH
