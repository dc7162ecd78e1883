// Miniature runMetrics() table for the metric-row-coverage rule: a
// duplicated row name and a stale row referencing a field RunResult
// does not have (two findings anchored here), plus the double export
// of 'dup' reported against runner.hh. The serveMetrics() table below
// adds a stale ServeStats row (third finding here) and leaves
// protocol.hh's fixOrphanServe uncovered (finding anchored there);
// the storeMetrics() table adds a stale StoreStats row (fourth
// finding here) and leaves result_store.hh's fixOrphanStore
// uncovered (finding anchored there).
#include "protocol.hh"
#include "result_store.hh"
#include "runner.hh"

#include <vector>

template <typename T> struct MetricDesc {
    const char *name;
    double (*get)(const T &);
};

const std::vector<MetricDesc<RunResult>> &runMetrics()
{
    static const std::vector<MetricDesc<RunResult>> table = {
        {"fix_ipc", [](const RunResult &r) { return r.ipc; }},
        {"fix_cycles",
         [](const RunResult &r) {
             return static_cast<double>(r.stats.cycles);
         }},
        {"fix_dup", [](const RunResult &r) { return r.dup; }},
        {"fix_dup", [](const RunResult &r) { return r.dup; }},
        {"fix_ghost", [](const RunResult &r) { return r.ghost; }},
    };
    return table;
}

const std::vector<MetricDesc<ServeStats>> &serveMetrics()
{
    static const std::vector<MetricDesc<ServeStats>> table = {
        {"fix_serve_clients",
         [](const ServeStats &s) {
             return static_cast<double>(s.fixClients);
         }},
        {"fix_serve_ghost",
         [](const ServeStats &s) {
             return static_cast<double>(s.ghostServe);
         }},
    };
    return table;
}

const std::vector<MetricDesc<StoreStats>> &storeMetrics()
{
    static const std::vector<MetricDesc<StoreStats>> table = {
        {"fix_store_hits",
         [](const StoreStats &s) {
             return static_cast<double>(s.fixStoreHits);
         }},
        {"fix_store_ghost",
         [](const StoreStats &s) {
             return static_cast<double>(s.ghostStore);
         }},
    };
    return table;
}
