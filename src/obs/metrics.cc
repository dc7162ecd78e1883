#include "obs/metrics.hh"

#include <ostream>

#include "common/jsonl.hh"
#include "serve/protocol.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"

namespace lbp {

void
MetricsRegistry::counter(std::string name, std::string unit,
                         std::string help, std::uint64_t value)
{
    scalars_.push_back(Metric{std::move(name), std::move(unit),
                              std::move(help),
                              static_cast<double>(value), true});
}

void
MetricsRegistry::gauge(std::string name, std::string unit,
                       std::string help, double value)
{
    scalars_.push_back(Metric{std::move(name), std::move(unit),
                              std::move(help), value, false});
}

void
MetricsRegistry::histogram(std::string name, std::string unit,
                           std::string help, const FixedHistogram &hist)
{
    hists_.push_back(NamedHistogram{std::move(name), std::move(unit),
                                    std::move(help), hist});
}

namespace {

/** Full RFC 8259 escaping from common/jsonl.hh — byte-identical to
 *  the escaper this file used to own for every name/unit/help string
 *  (none carry control characters). */
void
jsonString(std::ostream &os, const std::string &s)
{
    jsonEscape(os, s);
}

} // namespace

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << "{\n  \"scalars\": [\n";
    for (std::size_t i = 0; i < scalars_.size(); ++i) {
        const Metric &m = scalars_[i];
        os << "    {\"name\": ";
        jsonString(os, m.name);
        os << ", \"unit\": ";
        jsonString(os, m.unit);
        os << ", \"help\": ";
        jsonString(os, m.help);
        os << ", \"value\": ";
        if (m.integral)
            os << static_cast<std::uint64_t>(m.value);
        else
            os << m.value;
        os << '}' << (i + 1 < scalars_.size() ? "," : "") << '\n';
    }
    os << "  ],\n  \"histograms\": [\n";
    for (std::size_t i = 0; i < hists_.size(); ++i) {
        const NamedHistogram &h = hists_[i];
        os << "    {\"name\": ";
        jsonString(os, h.name);
        os << ", \"unit\": ";
        jsonString(os, h.unit);
        os << ", \"help\": ";
        jsonString(os, h.help);
        os << ", \"count\": " << h.hist.count()
           << ", \"sum\": " << h.hist.sum()
           << ", \"max\": " << h.hist.max() << ", \"buckets\": [";
        for (unsigned b = 0; b < FixedHistogram::numBuckets; ++b)
            os << (b ? "," : "") << h.hist.bucket(b);
        os << "]}" << (i + 1 < hists_.size() ? "," : "") << '\n';
    }
    os << "  ]\n}\n";
}

namespace {

double
u64Field(std::uint64_t v)
{
    return static_cast<double>(v);
}

} // namespace

const std::vector<MetricDesc<RunResult>> &
runMetrics()
{
    // Column order is the historical lbpsim CSV order — downstream
    // plotting scripts key on these exact names; append, never reorder.
    static const std::vector<MetricDesc<RunResult>> table = {
        {"ipc", "instr/cycle",
         "Retired instructions per cycle over the measurement window "
         "(Figures 5/7/9 speedups derive from IPC ratios)",
         false, [](const RunResult &r) { return r.ipc; }},
        {"mpki", "misp/kinstr",
         "Mispredictions per 1000 retired instructions (Figures 4/6)",
         false, [](const RunResult &r) { return r.mpki; }},
        {"mispredicts", "count",
         "Execute-time misprediction flushes in the measurement window",
         true,
         [](const RunResult &r) { return u64Field(r.stats.mispredicts); }},
        {"instructions", "count",
         "True-path instructions retired in the measurement window",
         true,
         [](const RunResult &r) {
             return u64Field(r.stats.retiredInstrs);
         }},
        {"cycles", "cycles", "Cycles simulated in the measurement window",
         true, [](const RunResult &r) { return u64Field(r.stats.cycles); }},
        {"retired_cond", "count",
         "Conditional branches retired in the measurement window", true,
         [](const RunResult &r) { return u64Field(r.stats.retiredCond); }},
        {"fetched", "count",
         "Instructions fetched (true- and wrong-path)", true,
         [](const RunResult &r) {
             return u64Field(r.stats.fetchedInstrs);
         }},
        {"wrong_path_fetched", "count",
         "Wrong-path instructions fetched after mispredicted branches "
         "(the pollution source of section 2)",
         true,
         [](const RunResult &r) {
             return u64Field(r.stats.wrongPathFetched);
         }},
        {"btb_misses", "count", "BTB misses charged the resteer penalty",
         true, [](const RunResult &r) { return u64Field(r.stats.btbMisses); }},
        {"overrides", "count",
         "Local-predictor overrides of the TAGE direction (whole run)",
         true, [](const RunResult &r) { return u64Field(r.overrides); }},
        {"overrides_correct", "count",
         "Overrides whose direction matched the architectural outcome",
         true,
         [](const RunResult &r) { return u64Field(r.overridesCorrect); }},
        {"repairs", "count",
         "Repair episodes triggered by mispredictions (whole run)", true,
         [](const RunResult &r) { return u64Field(r.repairs); }},
        {"repair_writes", "count",
         "BHT writes performed by repair walks (whole run)", true,
         [](const RunResult &r) { return u64Field(r.repairWrites); }},
        {"early_resteers", "count",
         "Alloc-stage resteers fired by the multi-stage BHT-Defer "
         "(section 3.2)",
         true,
         [](const RunResult &r) { return u64Field(r.earlyResteers); }},
        {"early_resteers_wrong", "count",
         "Early resteers whose deferred direction was itself wrong", true,
         [](const RunResult &r) {
             return u64Field(r.earlyResteersWrong);
         }},
        {"uncheckpointed", "count",
         "Mispredictions with no protecting checkpoint (OBQ overflow — "
         "the unprotected-PC case of section 2.6)",
         true,
         [](const RunResult &r) {
             return u64Field(r.uncheckpointedMispredicts);
         }},
        {"denied_predictions", "count",
         "Lookups declined because the BHT was busy repairing "
         "(section 2.5 availability cost)",
         true,
         [](const RunResult &r) { return u64Field(r.deniedPredictions); }},
        {"skipped_spec_updates", "count",
         "Speculative BHT updates skipped while the table was busy",
         true,
         [](const RunResult &r) {
             return u64Field(r.skippedSpecUpdates);
         }},
        {"avg_walk_length", "entries",
         "Mean OBQ entries examined per repair walk (Figure 8 shape)",
         false, [](const RunResult &r) { return r.avgWalkLength; }},
        {"audit_checks", "count",
         "Invariant-auditor recovery+retire checks (audited runs)",
         true, [](const RunResult &r) { return u64Field(r.auditChecks); }},
        {"audit_violations", "count",
         "Invariant-auditor violations (must be 0)", true,
         [](const RunResult &r) { return u64Field(r.auditViolations); }},
        {"cache_accesses", "count",
         "Cache-hierarchy accesses, all levels (whole run)", true,
         [](const RunResult &r) { return u64Field(r.cacheAccesses); }},
        {"cache_misses", "count",
         "Cache-hierarchy misses, all levels (whole run)", true,
         [](const RunResult &r) { return u64Field(r.cacheMisses); }},
        {"cache_prefetch_fills", "count",
         "Lines installed by the next-line prefetcher", true,
         [](const RunResult &r) {
             return u64Field(r.cachePrefetchFills);
         }},
        {"core_early_resteers", "count",
         "Alloc-stage resteer flushes charged by the core (the "
         "pipeline-side view of early_resteers)",
         true,
         [](const RunResult &r) {
             return u64Field(r.stats.earlyResteers);
         }},
        {"avg_repairs_needed", "entries",
         "Mean distinct PCs polluted per misprediction (section 2.4 "
         "working-set size)",
         false, [](const RunResult &r) { return r.avgRepairsNeeded; }},
        {"max_repairs_needed", "entries",
         "Largest polluted-PC set any single misprediction produced",
         false,
         [](const RunResult &r) { return u64Field(r.maxRepairsNeeded); }},
        {"avg_repair_writes", "writes",
         "Mean BHT writes per repair episode (port-pressure proxy)",
         false, [](const RunResult &r) { return r.avgRepairWrites; }},
        {"avg_repair_cycles", "cycles",
         "Mean cycles the BHT spent busy per repair episode",
         false, [](const RunResult &r) { return r.avgRepairCycles; }},
        {"audit_resyncs", "count",
         "Golden chains re-anchored after a declared gap (audited runs)",
         true, [](const RunResult &r) { return u64Field(r.auditResyncs); }},
        {"audit_skipped", "count",
         "Auditor checks skipped inside declared gaps (audited runs)",
         true, [](const RunResult &r) { return u64Field(r.auditSkipped); }},
        {"audit_uncovered", "count",
         "Recoveries the auditor could not cover (uncheckpointed "
         "mispredictions; audited runs)",
         true,
         [](const RunResult &r) { return u64Field(r.auditUncovered); }},
        {"tage_kb", "KB", "TAGE storage budget of this configuration",
         false, [](const RunResult &r) { return r.tageKB; }},
        {"local_kb", "KB",
         "Local-predictor (BHT+PT) storage of this configuration",
         false, [](const RunResult &r) { return r.localKB; }},
        {"repair_kb", "KB",
         "Repair-scheme metadata storage (OBQ, snapshots, payloads)",
         false, [](const RunResult &r) { return r.repairKB; }},
    };
    return table;
}

const std::vector<MetricDesc<SweepStats>> &
sweepMetrics()
{
    // Manifest counter order — the serve-smoke CI job keys on these
    // exact names; append, never reorder.
    static const std::vector<MetricDesc<SweepStats>> table = {
        {"sweep_cells_total", "count",
         "(configuration x workload) cells scheduled by the sweep",
         true,
         [](const SweepStats &s) { return u64Field(s.cellsTotal); }},
        {"sweep_cells_simulated", "count",
         "Cells actually simulated (neither cache nor store had them)",
         true,
         [](const SweepStats &s) { return u64Field(s.cellsSimulated); }},
        {"sweep_cells_store_hit", "count",
         "Cells served from the persistent on-disk result store", true,
         [](const SweepStats &s) { return u64Field(s.cellsStoreHit); }},
        {"sweep_cells_cache_hit", "count",
         "Cells served from the in-process SuiteCache", true,
         [](const SweepStats &s) { return u64Field(s.cellsCacheHit); }},
        {"store_hits", "count",
         "Result-store loads that returned a usable entry", true,
         [](const SweepStats &s) { return u64Field(s.storeHits); }},
        {"store_misses", "count",
         "Result-store loads with no usable entry (includes stale)",
         true,
         [](const SweepStats &s) { return u64Field(s.storeMisses); }},
        {"store_stale", "count",
         "Store entries invalidated (fingerprint/key mismatch) and "
         "removed",
         true,
         [](const SweepStats &s) { return u64Field(s.storeStale); }},
        {"store_writes", "count",
         "Freshly simulated configs persisted to the result store",
         true,
         [](const SweepStats &s) { return u64Field(s.storeWrites); }},
        {"sweep_sim_instrs", "count",
         "Instructions simulated by the sweep (warm-up included)", true,
         [](const SweepStats &s) { return u64Field(s.simInstrs); }},
        {"sweep_wall_s", "seconds", "Whole-sweep wall-clock time",
         false, [](const SweepStats &s) { return s.wallSeconds; }},
        {"sweep_cell_wall_s", "seconds",
         "Sum of simulated cells' wall times (the event-log cell "
         "entries sum to this)",
         false, [](const SweepStats &s) { return s.cellWallSeconds; }},
        {"sweep_minstr_per_s", "Minstr/s",
         "Simulated-instruction throughput over the whole sweep wall "
         "time",
         false,
         [](const SweepStats &s) {
             return s.wallSeconds > 0.0
                        ? static_cast<double>(s.simInstrs) / 1e6 /
                              s.wallSeconds
                        : 0.0;
         }},
    };
    return table;
}

const std::vector<MetricDesc<ServeStats>> &
serveMetrics()
{
    // Wire order of the lbp-serve-v1 `stats` frame — clients and the
    // serve-smoke CI job key on these exact names; append, never
    // reorder.
    static const std::vector<MetricDesc<ServeStats>> table = {
        {"serve_clients_connected", "count",
         "Client connections accepted since startup", true,
         [](const ServeStats &s) {
             return u64Field(s.clientsConnected);
         }},
        {"serve_clients_disconnected", "count",
         "Client connections closed (either side)", true,
         [](const ServeStats &s) {
             return u64Field(s.clientsDisconnected);
         }},
        {"serve_requests_received", "count",
         "Submit frames parsed (accepted or not)", true,
         [](const ServeStats &s) {
             return u64Field(s.requestsReceived);
         }},
        {"serve_requests_accepted", "count",
         "Accepted replies sent (dedup joins included)", true,
         [](const ServeStats &s) {
             return u64Field(s.requestsAccepted);
         }},
        {"serve_requests_deduped", "count",
         "Requests coalesced onto an identical queued or running "
         "sweep",
         true,
         [](const ServeStats &s) {
             return u64Field(s.requestsDeduped);
         }},
        {"serve_requests_rejected", "count",
         "Rejected replies sent (admission, bad specs, draining, "
         "internal failures)",
         true,
         [](const ServeStats &s) {
             return u64Field(s.requestsRejected);
         }},
        {"serve_requests_timed_out", "count",
         "Queued requests expired past the queue timeout", true,
         [](const ServeStats &s) {
             return u64Field(s.requestsTimedOut);
         }},
        {"serve_requests_cancelled", "count",
         "Queued requests dropped when their last subscriber "
         "disconnected",
         true,
         [](const ServeStats &s) {
             return u64Field(s.requestsCancelled);
         }},
        {"serve_requests_completed", "count",
         "Result frames delivered to subscribers", true,
         [](const ServeStats &s) {
             return u64Field(s.requestsCompleted);
         }},
        {"serve_sweeps_executed", "count",
         "runSweep() invocations (deduped requests share one)", true,
         [](const ServeStats &s) {
             return u64Field(s.sweepsExecuted);
         }},
        {"serve_events_streamed", "count",
         "Event frames fanned out to subscribers", true,
         [](const ServeStats &s) {
             return u64Field(s.eventsStreamed);
         }},
        {"serve_queue_high_water", "count",
         "Maximum queued+running request depth observed", true,
         [](const ServeStats &s) {
             return u64Field(s.queueHighWater);
         }},
        {"serve_cells_served", "count",
         "Cells in delivered results (deduped subscribers count "
         "each)",
         true,
         [](const ServeStats &s) { return u64Field(s.cellsServed); }},
        {"serve_cells_simulated", "count",
         "Cells freshly simulated by executed sweeps", true,
         [](const ServeStats &s) {
             return u64Field(s.cellsSimulated);
         }},
        {"serve_cells_store_hit", "count",
         "Cells served from the persistent result store", true,
         [](const ServeStats &s) {
             return u64Field(s.cellsStoreHit);
         }},
        {"serve_cells_cache_hit", "count",
         "Cells served from the resident SuiteCache", true,
         [](const ServeStats &s) {
             return u64Field(s.cellsCacheHit);
         }},
        {"serve_drain_s", "seconds",
         "Drain request to clean exit (0 while serving)", false,
         [](const ServeStats &s) { return s.drainSeconds; }},
        {"serve_scrapes", "count",
         "Metrics expositions served (metrics frames + HTTP scrapes)",
         true,
         [](const ServeStats &s) { return u64Field(s.scrapesServed); }},
        {"serve_heartbeats", "count",
         "Heartbeat records emitted into the daemon event log", true,
         [](const ServeStats &s) {
             return u64Field(s.heartbeatsEmitted);
         }},
        {"serve_store_gc_passes", "count",
         "Idle-time result-store garbage-collection passes", true,
         [](const ServeStats &s) { return u64Field(s.gcPasses); }},
        {"serve_suite_builds", "count",
         "Workload suites built for submits (a repeat selection reuses "
         "the resident suite)",
         true,
         [](const ServeStats &s) { return u64Field(s.suiteBuilds); }},
    };
    return table;
}

const std::vector<MetricDesc<StoreStats>> &
storeMetrics()
{
    // Store-lifecycle counter order — the manifest "store" section and
    // the daemon scrape key on these exact names; append, never
    // reorder. (The sweep table's store_* rows are per-sweep deltas;
    // these are the store's own lifetime totals.)
    static const std::vector<MetricDesc<StoreStats>> table = {
        {"result_store_hits", "count",
         "Store loads that returned a usable entry (lifetime)", true,
         [](const StoreStats &s) { return u64Field(s.hits); }},
        {"result_store_misses", "count",
         "Store loads with no usable entry, stale included (lifetime)",
         true, [](const StoreStats &s) { return u64Field(s.misses); }},
        {"result_store_stale_deletes", "count",
         "Stale entries (fingerprint/key mismatch) deleted on load",
         true, [](const StoreStats &s) { return u64Field(s.stale); }},
        {"result_store_writes", "count",
         "Entries persisted to the store (lifetime)", true,
         [](const StoreStats &s) { return u64Field(s.writes); }},
        {"result_store_read_bytes", "bytes",
         "Bytes deserialized by successful store loads", true,
         [](const StoreStats &s) { return u64Field(s.bytesRead); }},
        {"result_store_written_bytes", "bytes",
         "Bytes serialized by store writes", true,
         [](const StoreStats &s) { return u64Field(s.bytesWritten); }},
        {"result_store_gc_evicted", "count",
         "Entries removed by garbage-collection passes (age/size cap)",
         true,
         [](const StoreStats &s) { return u64Field(s.gcEvicted); }},
        {"result_store_gc_evicted_bytes", "bytes",
         "Bytes reclaimed by garbage-collection passes", true,
         [](const StoreStats &s) {
             return u64Field(s.gcEvictedBytes);
         }},
    };
    return table;
}

void
RunAggregate::add(const RunResult &r)
{
    const std::vector<MetricDesc<RunResult>> &table = runMetrics();
    if (sums_.size() < table.size())
        sums_.resize(table.size(), 0.0);
    for (std::size_t i = 0; i < table.size(); ++i)
        sums_[i] += table[i].get(r);
    ++runs_;
}

void
RunAggregate::addTo(MetricsRegistry &reg) const
{
    const std::vector<MetricDesc<RunResult>> &table = runMetrics();
    for (std::size_t i = 0; i < table.size(); ++i) {
        const MetricDesc<RunResult> &d = table[i];
        const double sum = i < sums_.size() ? sums_[i] : 0.0;
        if (d.integral)
            reg.counter(d.name, d.unit, d.help,
                        static_cast<std::uint64_t>(sum));
        else
            reg.gauge(d.name, d.unit, d.help,
                      runs_ ? sum / static_cast<double>(runs_) : 0.0);
    }
}

namespace {

/** HELP-text escaping per the exposition format: backslash and
 *  newline only (label values additionally escape '"'). */
void
promEscape(std::ostream &os, const std::string &s, bool label)
{
    for (const char c : s) {
        if (c == '\\')
            os << "\\\\";
        else if (c == '\n')
            os << "\\n";
        else if (label && c == '"')
            os << "\\\"";
        else
            os << c;
    }
}

/** One sample value: counters as integers, gauges in full precision
 *  (shortest round-trippable form, deterministic across renders). */
void
promValue(std::ostream &os, double value, bool integral)
{
    if (integral)
        os << static_cast<std::uint64_t>(value);
    else
        os << jsonNumber(value);
}

void
promHeader(std::ostream &os, const std::string &name,
           const std::string &help, const char *type)
{
    os << "# HELP " << name << ' ';
    promEscape(os, help, false);
    os << '\n' << "# TYPE " << name << ' ' << type << '\n';
}

} // namespace

void
writePrometheus(std::ostream &os, const MetricsRegistry &reg)
{
    for (const Metric &m : reg.scalars()) {
        promHeader(os, m.name, m.help, m.integral ? "counter" : "gauge");
        os << m.name << ' ';
        promValue(os, m.value, m.integral);
        os << '\n';
    }
    for (const NamedHistogram &h : reg.histograms()) {
        promHeader(os, h.name, h.help, "histogram");
        // Buckets are cumulative in the exposition format; samples
        // beyond 2^23 clamp into the last finite bucket (see
        // FixedHistogram), so the last finite count equals _count.
        std::uint64_t cum = 0;
        for (unsigned b = 0; b < FixedHistogram::numBuckets; ++b) {
            cum += h.hist.bucket(b);
            os << h.name << "_bucket{le=\"" << (1ull << b) << "\"} "
               << cum << '\n';
        }
        os << h.name << "_bucket{le=\"+Inf\"} " << h.hist.count()
           << '\n';
        os << h.name << "_sum " << h.hist.sum() << '\n';
        os << h.name << "_count " << h.hist.count() << '\n';
    }
}

void
writePrometheusLabeled(
    std::ostream &os, const char *family, const char *help,
    const char *labelKey,
    const std::vector<std::pair<std::string, std::uint64_t>> &samples)
{
    if (samples.empty())
        return;
    promHeader(os, family, help, "counter");
    for (const auto &[label, value] : samples) {
        os << family << '{' << labelKey << "=\"";
        promEscape(os, label, true);
        os << "\"} " << value << '\n';
    }
}

} // namespace lbp
