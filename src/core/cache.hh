/**
 * @file
 * A simple multi-level cache hierarchy latency model: set-associative
 * LRU tag arrays with next-line prefetch, chained L1 -> L2 -> LLC ->
 * DRAM. Misses are non-blocking with unlimited MSHRs (each access pays
 * its own latency; the dataflow scheduler overlaps them), which is the
 * standard fast-model simplification.
 */

#ifndef LBP_CORE_CACHE_HH
#define LBP_CORE_CACHE_HH

#include <cstdint>
#include <memory>

#include "common/set_assoc.hh"
#include "common/types.hh"

namespace lbp {

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    unsigned sizeKB = 32;
    unsigned ways = 8;
    unsigned lineBytes = 64;
    unsigned latency = 5;       ///< hit latency, cycles
    bool nextLinePrefetch = true;
};

/** One cache level. */
class Cache
{
  public:
    struct Stats
    {
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
        std::uint64_t prefetchFills = 0;
    };

    Cache(const CacheConfig &cfg, Cache *next, unsigned mem_latency);

    /**
     * Access @p addr; returns total latency including lower levels on a
     * miss, and fills the line (plus the next line when prefetching).
     * Inline: this is the hottest call in the simulator (every load,
     * store, and fetched line goes through it).
     */
    unsigned
    access(Addr addr)
    {
        ++stats_.accesses;
        const std::uint64_t key = lineKey(addr);
        const bool hit = tags_.lookup(key);

        unsigned latency = cfg_.latency;
        if (!hit) {
            ++stats_.misses;
            latency += next_ ? next_->access(addr) : memLatency_;
            tags_.insert(key);
            ++insertCount_;
        }
        if (cfg_.nextLinePrefetch) {
            // Streamer-style prefetch: keep the sequential next line
            // resident on every access (hit or miss) so strided streams
            // run ahead of demand, as the prefetchers of Table 2 do.
            prefetchFill(addr + cfg_.lineBytes);
        }
        return latency;
    }

    /** Fill without demand-latency accounting (prefetch path). */
    void
    prefetchFill(Addr addr)
    {
        const std::uint64_t key = lineKey(addr);
        // A prefetch that hits is a pure no-op (the untouched probe
        // leaves LRU alone), so a line known resident since the last
        // insert into this cache can skip the tag scan entirely.
        // Strided streams hammer the same next-line key for a whole
        // line's worth of accesses.
        if (key == lastPfKey_ && insertCount_ == lastPfGen_)
            return;
        if (tags_.lookup(key, false)) {
            lastPfKey_ = key;
            lastPfGen_ = insertCount_;
            return;
        }
        tags_.insert(key);
        ++insertCount_;
        lastPfKey_ = key;
        lastPfGen_ = insertCount_;
        ++stats_.prefetchFills;
        if (next_)
            next_->prefetchFill(addr);
    }

    /** True when the line is present (no LRU update). */
    bool probe(Addr addr) const { return tags_.lookup(lineKey(addr)); }

    const Stats &stats() const { return stats_; }

  private:
    std::uint64_t lineKey(Addr addr) const
    {
        // lineBytes is asserted power-of-two; a shift avoids a hardware
        // divide on every access/prefetch probe.
        return addr >> lineShift_;
    }

    CacheConfig cfg_;
    Cache *next_;
    unsigned memLatency_;
    unsigned lineShift_;
    FlatTagLru tags_;
    Stats stats_;
    /** Presence memo for the prefetch probe: valid while no insert has
     *  happened since it was taken (hits have no side effects). */
    std::uint64_t lastPfKey_ = ~std::uint64_t{0};
    std::uint64_t lastPfGen_ = ~std::uint64_t{0};
    std::uint64_t insertCount_ = 0;
};

/** Table 2's three-level hierarchy plus DRAM. */
struct MemoryHierarchyConfig
{
    CacheConfig l1i{32, 8, 64, 5, true};     ///< L1 instruction cache
    CacheConfig l1d{32, 8, 64, 5, true};     ///< L1 data cache
    CacheConfig l2{256, 8, 64, 15, true};    ///< unified L2
    CacheConfig llc{8192, 16, 64, 40, true}; ///< last-level cache
    unsigned memLatency = 220;  ///< DDR4-2133 round trip at 3.2 GHz
};

class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(
        const MemoryHierarchyConfig &cfg = MemoryHierarchyConfig{});

    /** Data-side load/store latency. */
    unsigned dataAccess(Addr addr) { return l1d_.access(addr); }

    /** Instruction-fetch latency. */
    unsigned fetchAccess(Addr addr) { return l1i_.access(addr); }

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return llc_; }

  private:
    Cache llc_;
    Cache l2_;
    Cache l1i_;
    Cache l1d_;
};

} // namespace lbp

#endif // LBP_CORE_CACHE_HH
