/**
 * @file
 * Run-time speculative-state invariant auditor.
 *
 * The paper's results stand or fall on the repair schemes restoring
 * wrong-path speculative BHT state *exactly* — a bug here does not
 * crash, it silently shifts MPKI/IPC. The auditor mechanizes the
 * paper's "perfect repair" reference model as a runtime checker: it
 * shadows every speculative BHT update the pipeline performs, replays
 * retired branches through a golden in-order chain of architectural
 * outcomes, and cross-checks the live predictor state at the two points
 * where correctness is decidable:
 *
 *  - At every misprediction recovery (after the scheme's repair and the
 *    pipeline squash): each PC polluted by a wrong-path speculative
 *    update must read back the pre-update state of its *oldest*
 *    wrong-path instance — for the mispredicting PC itself, advanced by
 *    the architectural outcome when the scheme checkpointed it.
 *  - At every conditional-branch retire: the pre-update state the
 *    branch observed at prediction time must equal the golden chain of
 *    architectural outcomes of all older same-PC branches, folded with
 *    the speculative updates the auditor knows survived.
 *
 * Both checks are exact for the schemes auditableKind() accepts
 * (backward-walk, forward-walk — with or without coalescing — snapshot,
 * limited-pc and multi-stage); coverage gaps those schemes declare by
 * design (OBQ overflow, snapshot eviction, busy-port skips, wrong-path
 * BHT allocations that cannot be rolled back, limited-pc's repair set)
 * are tracked and excluded instead of reported, so a clean run means
 * clean state, not a silent checker. Every build carries it:
 * OooCore::attachAuditor() hooks it into the pipeline the way the
 * tracer attaches, and runOne() does so when SimConfig::obs.audit is
 * set (`lbpsim --audit`, the `audit` spec modifier).
 */

#ifndef LBP_VERIFY_AUDITOR_HH
#define LBP_VERIFY_AUDITOR_HH

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "bpu/predictor.hh"
#include "common/types.hh"
#include "core/dyn_inst.hh"
#include "repair/scheme.hh"

namespace lbp {

/** Auditor outcome counters. */
struct AuditorStats
{
    std::uint64_t recoveryChecks = 0;    ///< PC states compared at recovery
    std::uint64_t retireChecks = 0;      ///< pre-states compared at retire
    std::uint64_t recoveryViolations = 0;
    std::uint64_t retireViolations = 0;
    std::uint64_t resyncs = 0;     ///< benign chain re-adoptions
    std::uint64_t skipped = 0;     ///< checks suppressed (declared gaps)
    std::uint64_t uncoveredRecoveries = 0;  ///< scheme declared no repair

    std::uint64_t
    violations() const
    {
        return recoveryViolations + retireViolations;
    }
};

/**
 * The shadow oracle. Wire its three event hooks next to the scheme's
 * pipeline hooks (an OooCore it is attached to does this; tests drive
 * it directly):
 *
 *   atPredict   -> onPredict(di)
 *   recover     -> onRecovery(di, live, outcome)
 *   atRetire    -> onRetire(di)   [before the scheme's own atRetire]
 */
class SpecStateAuditor
{
  public:
    /**
     * @param model supplies advanceState() semantics only; typically
     * the audited scheme's own predictor. Never mutated.
     */
    explicit SpecStateAuditor(const LocalPredictor &model);

    /** True for repair kinds whose claimed contract the auditor can
     *  check exactly (full immediate repair of speculative state). */
    static bool auditableKind(RepairKind kind);

    /** Record a conditional branch's fetch-stage prediction. */
    void onPredict(const DynInst &di);

    /**
     * Cross-check after a misprediction recovery. Call with what the
     * scheme's recover() returned, before the pipeline reuses the BHT.
     * An uncovered @p outcome is a recovery the scheme itself declared
     * unrepairable (e.g. OBQ overflow). A non-empty repairSet is the
     * scheme's declared coverage (LimitedPc's M-PC payload): polluted
     * PCs outside it are a designed gap — counted as skipped and
     * desynced, not asserted. The mispredicting PC itself is always
     * checked; every scheme repairs at least that.
     */
    void onRecovery(const DynInst &cause, const LocalPredictor &live,
                    const RepairOutcome &outcome);

    /** Cross-check and advance the golden chain at a conditional
     *  branch's retirement. Call before the scheme's atRetire. */
    void onRetire(const DynInst &di);

    const AuditorStats &stats() const { return stats_; }

  private:
    /** One shadowed in-flight prediction. */
    struct SpecRec
    {
        InstSeq seq = invalidSeq;
        Addr pc = 0;
        LocalState pre = 0;     ///< BHT state observed before the update
        bool bhtHit = false;
        bool specUpdated = false;
        bool checkpointed = false;  ///< pre-state captured (OBQ/snapshot)
        bool dir = false;       ///< direction written into the BHT
    };

    /** Golden per-PC chain: expected pre-state for the next retired
     *  branch of this PC. */
    struct Chain
    {
        LocalState state = 0;
        bool desynced = false;  ///< a declared gap made it unverifiable
        /**
         * The flush that caused the desync. Records predicted at or
         * before this seq observed pre-pollution state and must not be
         * adopted as resync points; only a fresh post-flush observation
         * reflects the (unrepaired) live state.
         */
        InstSeq desyncSeq = 0;
    };

    void desync(Addr pc, InstSeq cause_seq);

    void report(const char *what, const DynInst &di, LocalState expect,
                LocalState got);

    /** stderr diagnostics before going quiet. */
    static constexpr unsigned maxReports = 8;

    const LocalPredictor &model_;
    std::deque<SpecRec> inflight_;
    std::unordered_map<Addr, Chain> arch_;
    AuditorStats stats_;
    unsigned reported_ = 0;
};

} // namespace lbp

#endif // LBP_VERIFY_AUDITOR_HH
