/**
 * @file
 * Zero-cost-when-off pipeline observability: cycle-level event tracing
 * and misprediction forensics.
 *
 * The core holds a PipelineTracer pointer that is null unless the run
 * asked for observability (SimConfig::obs); every hook in the pipeline
 * stages is a single `if (tracer_)` test, so the trace-off hot path is
 * untouched and — because the tracer only ever *reads* simulation
 * state — a trace-on run retires the exact same instruction stream with
 * the exact same counters as a trace-off run (tests/test_trace.cc pins
 * this against the golden-stats fixture).
 *
 * Two channels:
 *  - Stage events (fetch/alloc/issue/resolve/retire/squash/resteer) go
 *    into a fixed-capacity ring sized from the requested cycle window,
 *    so memory stays bounded no matter how long the run is; the dump
 *    keeps the last `traceWindowCycles` cycles. Exported as Chrome
 *    `trace_event` JSON (chrome://tracing, Perfetto) and as a
 *    Konata-style pipeline log (docs/TRACING.md).
 *  - Squash forensics: one record per execute-time misprediction flush
 *    with the triggering PC, the predictor component that produced the
 *    wrong direction, the wrong-path fetch volume it caused, OBQ/ROB
 *    occupancy, and the repair-walk work it triggered. Exported as CSV
 *    and aggregated into top-N offender tables.
 */

#ifndef LBP_OBS_TRACE_HH
#define LBP_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"

namespace lbp {

/**
 * Per-run observability switches, carried inside SimConfig. All fields
 * are purely observational: they never change simulated behavior. The
 * tracing fields are therefore excluded from the suite-cache config
 * key; `audit` is keyed, because it fills the audit_* result columns.
 */
struct ObsConfig
{
    bool trace = false;      ///< collect stage events (ring-buffered)
    bool forensics = false;  ///< collect per-squash records + histograms
    /** Attach the speculative-state invariant auditor (src/verify);
     *  only for configurations auditableConfig() accepts. */
    bool audit = false;
    /** Cycle span the dumped event window covers (last N cycles). */
    std::uint64_t traceWindowCycles = 20000;
    /**
     * Forensics sampling stride: record every Nth squash starting with
     * the first (0 behaves as 1 = record all). Long runs keep the
     * capture bounded at 1/N records; the factor is recorded in
     * ObsRun::forensicsStride so sampled counts stay reconcilable —
     * records == ceil(totalMispredicts / stride) exactly.
     */
    std::uint64_t forensicsStride = 1;
};

/** Pipeline stage a trace event belongs to. */
enum class TraceStage : std::uint8_t
{
    Fetch,    ///< instruction materialized by the fetch stage
    Alloc,    ///< entered the ROB (span: fetch cycle -> alloc cycle)
    Issue,    ///< scheduled (span: issue cycle -> completion cycle)
    Retire,   ///< left the ROB in program order
    Resolve,  ///< mispredicted branch resolved at execute
    Squash,   ///< pipeline flush triggered by this branch
    Resteer,  ///< alloc-stage early resteer (multi-stage BHT-Defer)
};

/** Short lowercase label for @p st ("fetch", "alloc", ...). */
const char *traceStageName(TraceStage st);

/** One stage event: an instruction occupied @p stage over [begin,end]. */
struct TraceRecord
{
    Cycle begin = 0;
    Cycle end = 0;
    InstSeq seq = invalidSeq;
    Addr pc = 0;
    TraceStage stage = TraceStage::Fetch;
    bool wrongPath = false;
};

/** Which predictor component produced a squashed final direction. */
enum class MispredictSource : std::uint8_t
{
    Bimodal,       ///< TAGE base table provided, no local override
    TageTable,     ///< a tagged TAGE table provided
    LoopOverride,  ///< local CBPw-Loop override was used and wrong
    BhtDefer,      ///< multi-stage alloc-time resteer direction wrong
};

/** Short stable label for @p s ("bimodal", "tage", "loop", "bht-defer"). */
const char *mispredictSourceName(MispredictSource s);

/** Forensics record for one execute-time misprediction flush. */
struct SquashRecord
{
    Cycle cycle = 0;          ///< flush cycle
    Addr pc = 0;              ///< mispredicting branch PC
    InstSeq seq = invalidSeq; ///< its sequence number
    MispredictSource source = MispredictSource::Bimodal;
    std::int8_t provider = -1;       ///< TAGE providing table (-1 = base)
    Cycle resolveLatency = 0;        ///< fetch -> resolve cycles
    std::uint32_t wrongPathFetched = 0;  ///< instrs fetched past diverge
    std::uint32_t obqOccupancy = 0;  ///< repair-scheme OBQ entries live
    std::uint32_t robOccupancy = 0;  ///< ROB entries at the flush
    std::uint32_t walkLength = 0;    ///< OBQ entries examined by repair
    std::uint32_t repairWrites = 0;  ///< BHT writes the repair performed
};

/**
 * Everything one observed run produced, detached from the core so suite
 * runs on worker threads stay independent and results can outlive the
 * core. RunResult carries a shared_ptr to one of these when
 * observability was on.
 */
struct ObsRun
{
    std::string workload;  ///< workload name (set by the runner)
    std::string config;    ///< configLabel() of the run

    /** Stage events inside the final window, in emission order. */
    std::vector<TraceRecord> events;
    /**
     * Squash records, whole run, in order: every squash at the default
     * stride 1, every forensicsStride-th (starting with the first)
     * otherwise.
     */
    std::vector<SquashRecord> squashes;

    /**
     * Sampling factor the squashes were captured at. Reconciliation:
     * squashes.size() == ceil(totalMispredicts / forensicsStride).
     */
    std::uint64_t forensicsStride = 1;

    FixedHistogram resolveLatency;  ///< cycles, per squashed branch
    FixedHistogram robOccupancy;    ///< ROB entries at each squash
    FixedHistogram walkLength;      ///< OBQ entries per repair episode

    /** Events dropped because the ring wrapped (outside the window). */
    std::uint64_t eventsDropped = 0;

    // Whole-run totals snapshot for reconciliation (set by the runner;
    // tests assert squashes.size() == totalMispredicts exactly).
    std::uint64_t totalMispredicts = 0;
    std::uint64_t totalRepairs = 0;
    std::uint64_t totalCycles = 0;
};

/**
 * The collector the core hooks call. Construct per run, attach with
 * OooCore::attachTracer, harvest with finish(). Hooks are cheap:
 * ring-slot assignment for events, vector append for squashes (the
 * squash path is already the expensive flush path).
 */
class PipelineTracer
{
  public:
    explicit PipelineTracer(const ObsConfig &cfg);

    /** Record that @p seq occupied @p st over [begin, end]. */
    void
    stage(TraceStage st, Cycle begin, Cycle end, InstSeq seq, Addr pc,
          bool wrong_path)
    {
        if (!tracing_)
            return;
        TraceRecord &r = ring_[head_ & (ring_.size() - 1)];
        ++head_;
        r.begin = begin;
        r.end = end;
        r.seq = seq;
        r.pc = pc;
        r.stage = st;
        r.wrongPath = wrong_path;
    }

    /** Record one squash (forensics channel + histograms). */
    void squash(const SquashRecord &rec);

    /** Fetch diverged: remember the wrong-path-fetched counter so the
     *  eventual squash can report the delta it caused. */
    void noteDiverge(std::uint64_t wrong_path_fetched_so_far)
    {
        wrongPathAtDiverge_ = wrong_path_fetched_so_far;
    }

    /** Counter snapshot taken at the last diverge (see noteDiverge). */
    std::uint64_t wrongPathAtDiverge() const
    {
        return wrongPathAtDiverge_;
    }

    /** Whether stage-event collection is on (forensics may be on alone). */
    bool tracing() const { return tracing_; }
    /** Whether forensics collection is on. */
    bool forensics() const { return forensics_; }

    /**
     * Drain into an ObsRun: events trimmed to the last
     * traceWindowCycles cycles (relative to the newest event) and
     * restored to chronological emission order.
     */
    ObsRun finish();

  private:
    bool tracing_ = false;
    bool forensics_ = false;
    std::uint64_t windowCycles_ = 0;
    std::uint64_t stride_ = 1;      ///< forensics sampling factor
    std::uint64_t squashSeen_ = 0;  ///< squash() calls (incl. skipped)
    std::vector<TraceRecord> ring_;  ///< power-of-two capacity
    std::uint64_t head_ = 0;         ///< monotonic event count
    std::uint64_t wrongPathAtDiverge_ = 0;
    std::vector<SquashRecord> squashes_;
    FixedHistogram resolveLatency_;
    FixedHistogram robOccupancy_;
    FixedHistogram walkLength_;
};

/**
 * Emit Chrome trace_event JSON (the "JSON Array Format") for @p runs.
 * Loadable by chrome://tracing and https://ui.perfetto.dev. One process
 * (pid) per run; tid is the instruction's ring slot, which guarantees
 * begin/end pairs on one tid never overlap (two in-flight instructions
 * cannot share a slot). Timestamps are cycles reported as microseconds.
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<const ObsRun *> &runs);

/**
 * One service-side phase of a daemon request (queue wait, dedup join,
 * simulate, assemble, deliver): the serve-layer analogue of a
 * TraceRecord. Timestamps are microseconds on the daemon's own
 * monotonic clock, so one file's spans share a timeline.
 */
struct ServiceSpan
{
    std::string traceId;      ///< request trace id (args.trace_id)
    std::string phase;        ///< "queue" / "dedup" / "simulate" / ...
    std::uint64_t request = 0;   ///< request sequence number (tid)
    std::uint64_t beginUs = 0;   ///< span start, daemon-relative us
    std::uint64_t endUs = 0;     ///< span end, daemon-relative us
};

/**
 * Emit Chrome trace_event JSON for service spans, format-compatible
 * with writeChromeTrace() output (same array shape, B/E pairs, one
 * metadata record naming the daemon process) so a daemon timeline and
 * a pipeline trace can be concatenated into one Perfetto view. Spans
 * carry their trace_id in args for find-by-id.
 */
void writeServiceTrace(std::ostream &os,
                       const std::vector<ServiceSpan> &spans);

/**
 * Emit a Konata-compatible pipeline log ("Kanata\t0004" format) for one
 * run: per-instruction lanes with fetch/alloc/issue/retire stages, and
 * retirement/flush terminators. Open with the Konata viewer.
 */
void writeKonata(std::ostream &os, const ObsRun &run);

/**
 * Per-run output path for multi-run Konata dumps: the workload name
 * (with ':' and any other non-[A-Za-z0-9_-] byte sanitized to '_') is
 * inserted before the base path's extension —
 * konataRunPath("t.kanata", "Server:0") == "t.Server_0.kanata"; a base
 * without an extension gets the tag appended ("t" -> "t.Server_0").
 * Naming documented in docs/TRACING.md.
 */
std::string konataRunPath(const std::string &base,
                          const std::string &workload);

/**
 * Emit the forensics CSV: one row per squash across @p runs (a
 * `workload` column disambiguates suite dumps), with a header row.
 * Row count == sum of ObsRun::squashes sizes == total mispredicts.
 */
void writeForensicsCsv(std::ostream &os,
                       const std::vector<const ObsRun *> &runs);

/** One row of the top-offenders aggregation. */
struct OffenderRow
{
    std::string workload;
    Addr pc = 0;
    std::uint64_t squashes = 0;       ///< flushes this PC triggered
    std::uint64_t wrongPathFetched = 0;  ///< total pollution it caused
    std::uint64_t walkLength = 0;     ///< total repair work it caused
    MispredictSource dominantSource = MispredictSource::Bimodal;
};

/**
 * Aggregate squash records by (workload, PC) and return the @p n rows
 * with the most squashes, descending (ties broken by PC for
 * determinism).
 */
std::vector<OffenderRow>
topOffenders(const std::vector<const ObsRun *> &runs, std::size_t n);

/** Render @p rows as an aligned text table (lbpsim --top-offenders). */
std::string formatOffenders(const std::vector<OffenderRow> &rows);

} // namespace lbp

#endif // LBP_OBS_TRACE_HH
