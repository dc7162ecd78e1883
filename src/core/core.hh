/**
 * @file
 * The out-of-order core model: a 4-wide Skylake-like pipeline (Table 2)
 * with a branch-prediction-driven front-end that genuinely fetches down
 * mispredicted paths.
 *
 * Front-end: fetch follows *predicted* directions through the program
 * CFG. While predictions match the architectural outcomes the fetch
 * stream is the executor's true-path stream; on a final-prediction
 * mismatch the front-end keeps running down the wrong edge — performing
 * speculative predictor updates exactly as hardware would — until the
 * branch resolves at execute, at which point the pipeline flushes, the
 * TAGE global state restores from the branch's O(1) checkpoint, and the
 * local-predictor repair scheme does its (multi-cycle, port-limited)
 * work.
 *
 * Back-end: in-order alloc into a 224-entry ROB, dataflow issue with an
 * issue-width/load-port calendar, per-class latencies, loads timed by
 * the 3-level cache hierarchy, in-order 4-wide retire. Wrong-path
 * instructions consume fetch/alloc bandwidth (and, for the multi-stage
 * scheme, reach the alloc-stage BHT-Defer) but do not execute — the
 * standard fast-model simplification; their *predictor* side effects,
 * which are what this paper studies, are fully modeled.
 */

#ifndef LBP_CORE_CORE_HH
#define LBP_CORE_CORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "bpu/tage.hh"
#include "common/event_wheel.hh"
#include "common/ring_queue.hh"
#include "common/types.hh"
#include "core/branch_rec_pool.hh"
#include "core/cache.hh"
#include "core/dyn_inst.hh"
#include "obs/trace.hh"
#include "repair/scheme.hh"
#include "workload/executor.hh"
#include "workload/program.hh"

namespace lbp {

class SpecStateAuditor;

/** Pipeline geometry (Table 2 defaults). */
struct CoreConfig
{
    unsigned fetchWidth = 4;
    unsigned allocWidth = 4;
    unsigned retireWidth = 4;
    unsigned issueWidth = 8;
    unsigned robEntries = 224;
    unsigned fetchQueueEntries = 64;  ///< allocation queue
    unsigned loadQueue = 72;
    unsigned storeQueue = 56;
    unsigned frontEndDepth = 10;      ///< fetch-to-alloc latency
    unsigned deferDepth = 5;          ///< fetch-to-alloc-queue-entry
    unsigned btbEntries = 2048;
    unsigned btbWays = 4;
    unsigned btbMissPenalty = 8;
    unsigned maxLoadsPerCycle = 2;
    unsigned maxStoresPerCycle = 1;
    unsigned mulLatency = 3;
    unsigned fpLatency = 4;
    MemoryHierarchyConfig mem{};
};

/** Full simulation configuration. */
struct SimConfig
{
    CoreConfig core{};
    TageConfig tage = TageConfig::kb7();
    bool useLocal = false;          ///< attach a local predictor + scheme
    RepairConfig repair{};
    std::uint64_t warmupInstrs = 40000;
    std::uint64_t measureInstrs = 60000;
    /**
     * Observability switches (tracing, forensics, the invariant
     * auditor). Purely observational — never changes simulated
     * behavior; only the audit switch enters the config key, because
     * it fills result columns (suite_cache.cc).
     */
    ObsConfig obs{};
};

/** Plain counters; snapshot-and-subtract for warm-up exclusion. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t retiredInstrs = 0;
    std::uint64_t retiredCond = 0;
    std::uint64_t mispredicts = 0;      ///< execute-time flushes
    std::uint64_t earlyResteers = 0;    ///< alloc-stage (multi-stage)
    std::uint64_t wrongPathFetched = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t fetchedInstrs = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(retiredInstrs) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    double
    mpki() const
    {
        return retiredInstrs ? 1000.0 *
                                   static_cast<double>(mispredicts) /
                                   static_cast<double>(retiredInstrs)
                             : 0.0;
    }

    /** a - b, counter-wise. */
    static CoreStats delta(const CoreStats &a, const CoreStats &b);
};

/**
 * The core. Construct over a Program; run() advances until the target
 * number of true-path instructions has retired.
 */
class OooCore
{
  public:
    OooCore(const Program &prog, const SimConfig &cfg);

    /**
     * Construct with an externally-built repair scheme instead of the
     * one cfg.repair describes. Lets tests inject instrumented or
     * deliberately-broken schemes.
     */
    OooCore(const Program &prog, const SimConfig &cfg,
            std::unique_ptr<RepairScheme> scheme);

    ~OooCore();

    /** Simulate until @p instructions more have retired. */
    void run(std::uint64_t instructions);

    const CoreStats &stats() const { return stats_; }
    TagePredictor &tage() { return tage_; }

    /**
     * Attach a pipeline tracer (src/obs). The core never owns it; pass
     * nullptr to detach. Every pipeline hook is guarded by a null test,
     * so an unattached core pays nothing, and the tracer only reads
     * simulation state — attaching one cannot change results.
     */
    void attachTracer(PipelineTracer *tracer) { tracer_ = tracer; }

    /**
     * Attach the speculative-state invariant auditor (src/verify), on
     * the same terms as the tracer: never owned, nullptr detaches,
     * null-tested at its four hooks (the two predict sites, recovery
     * and retire), and read-only towards simulation state. Attach it
     * before the first run() so it shadows every prediction.
     */
    void attachAuditor(SpecStateAuditor *auditor) { auditor_ = auditor; }

    RepairScheme *scheme() { return scheme_.get(); }
    const MemoryHierarchy &mem() const { return mem_; }
    Cycle now() const { return now_; }

  private:
    struct Replayed
    {
        DynInstDesc desc;
        std::uint64_t dynIdx = 0;
        CfgCursor cursor{};
    };

    static constexpr unsigned ringLog = 13;
    static constexpr unsigned calLog = 10;
    static constexpr unsigned trueRingLog = 10;
    /** Resolve-wheel span; doneCycles past it fall to the far list. */
    static constexpr unsigned wheelLog = 11;

    DynInst &inst(InstSeq seq) { return ring_[seq & (ringSize() - 1)]; }
    static constexpr std::uint64_t ringSize() { return 1ull << ringLog; }

    void stepCycle();
    void retireStage();
    void resolveStage();
    void deferStage();
    void allocStage();
    void fetchStage();

    void scheduleInst(DynInst &di);
    void doFlush(DynInst &br);
    void handleEarlyResteer(DynInst &br, bool new_dir);
    void btbCheck(Addr pc);
    void icacheCheck(Addr pc);
    DynInst &makeInst(const DynInstDesc &desc, std::uint64_t dyn_idx,
                      bool wrong_path);

    Cycle nextWakeup();
    void fastForwardTo(Cycle t);

    /** Pooled record of an in-flight conditional branch (every br
     *  the core sets comes from brPool_). */
    static TageBranchRec &brRec(const DynInst &di)
    {
        return static_cast<TageBranchRec &>(*di.br);
    }
    /** Release a branch's pool record (idempotent). */
    void freeBrRec(DynInst &di)
    {
        if (di.br) {
            brPool_.free(&brRec(di));
            di.br = nullptr;
        }
    }

    const Program &prog_;
    SimConfig cfg_;
    Executor exec_;
    MemoryHierarchy mem_;
    TagePredictor tage_;
    std::unique_ptr<RepairScheme> scheme_;
    FlatTagLru btb_;

    // Fetch state.
    CfgCursor nav_{};
    bool wrongPath_ = false;
    InstSeq divergeSeq_ = invalidSeq;
    Cycle fetchStallUntil_ = 0;
    Addr lastFetchLine_ = invalidAddr;
    RingQueue<InstSeq> fetchQueue_;
    RingQueue<InstSeq> deferQueue_;  ///< pending alloc-queue-entry checks
    RingQueue<Replayed> replay_;

    // Back-end state.
    RingQueue<InstSeq> rob_;
    unsigned lqOcc_ = 0;
    unsigned sqOcc_ = 0;
    std::vector<std::uint8_t> issueCal_;
    std::vector<std::uint8_t> loadCal_;
    std::vector<std::uint8_t> storeCal_;
    /** Branch-resolution events, fired by resolveStage. */
    EventWheel resolveWheel_;
    /** Branch state of in-flight conditional branches. */
    BranchRecPool brPool_;

    std::vector<DynInst> ring_;
    std::vector<InstSeq> trueSeqRing_;
    InstSeq nextSeq_ = 0;
    Cycle now_ = 0;
    CoreStats stats_;
    /** Observability hooks; null (the default) = zero-cost off. */
    PipelineTracer *tracer_ = nullptr;
    SpecStateAuditor *auditor_ = nullptr;
};

} // namespace lbp

#endif // LBP_CORE_CORE_HH
