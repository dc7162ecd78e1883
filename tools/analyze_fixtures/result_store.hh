// Miniature StoreStats for the metric-row-coverage rule.
// 'fixStoreHits' is exported by exactly one storeMetrics() row in
// metrics.cc; 'fixOrphanStore' has no row (one finding, anchored here
// at the struct declaration). Both fields are kept alive for the
// stats-counter-dead rule by counters_user.cc.
#ifndef LBP_RESULT_STORE_HH
#define LBP_RESULT_STORE_HH

#include <cstdint>

struct StoreStats {
    std::uint64_t fixStoreHits = 0;   // covered by one row: fine
    std::uint64_t fixOrphanStore = 0; // expect: no storeMetrics() row
};

#endif
