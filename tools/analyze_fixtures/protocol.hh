// Miniature ServeStats for the metric-row-coverage rule.
// 'fixClients' is exported by exactly one serveMetrics() row in
// metrics.cc; 'fixOrphanServe' has no row (one finding, anchored here
// at the struct declaration). Both fields are kept alive for the
// stats-counter-dead rule by counters_user.cc.
#ifndef LBP_PROTOCOL_HH
#define LBP_PROTOCOL_HH

#include <cstdint>

struct ServeStats {
    std::uint64_t fixClients = 0;      // covered by one row: fine
    std::uint64_t fixOrphanServe = 0;  // expect: no serveMetrics() row
};

#endif
