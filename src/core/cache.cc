#include "core/cache.hh"

#include "common/logging.hh"

namespace lbp {

Cache::Cache(const CacheConfig &cfg, Cache *next, unsigned mem_latency)
    : cfg_(cfg), next_(next), memLatency_(mem_latency),
      lineShift_(floorLog2(cfg.lineBytes)),
      tags_(cfg.sizeKB * 1024 / cfg.lineBytes / cfg.ways, cfg.ways)
{
    lbp_assert(isPowerOf2(cfg.lineBytes));
    lbp_assert(cfg.sizeKB * 1024 % (cfg.lineBytes * cfg.ways) == 0);
}

MemoryHierarchy::MemoryHierarchy(const MemoryHierarchyConfig &cfg)
    : llc_(cfg.llc, nullptr, cfg.memLatency),
      l2_(cfg.l2, &llc_, cfg.memLatency),
      l1i_(cfg.l1i, &l2_, cfg.memLatency),
      l1d_(cfg.l1d, &l2_, cfg.memLatency)
{
}

} // namespace lbp
