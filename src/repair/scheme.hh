/**
 * @file
 * Local-predictor repair schemes.
 *
 * A RepairScheme owns a local predictor instance and the policy side of
 * integrating it into the OOO pipeline (section 2.4's event list): when
 * the BHT is looked up and speculatively updated, what gets checkpointed
 * where, what happens on a misprediction, and when the BHT is
 * unavailable because a repair is in flight (section 2.5's issue list).
 *
 * Implemented schemes (paper sections in parentheses):
 *  - PerfectRepair   — oracle upper bound: instantaneous, unbounded (6.1)
 *  - NoRepair        — speculative updates, never repaired (2.7)
 *  - RetireUpdate    — BHT written only at retirement (6.2)
 *  - BackwardWalk    — Skadron history-file walk, youngest first (2.6)
 *  - Snapshot        — whole-BHT snapshot queue (2.6)
 *  - ForwardWalk     — mispredict-first walk with repair bits, optional
 *                      OBQ coalescing (3.1)
 *  - LimitedPc       — repair only M heuristically-chosen PCs (3.3)
 *  - MultiStage      — split BHT-TAGE / BHT-Defer with alloc-stage
 *                      override and two-step repair (3.2)
 *
 * Timing model: a repair performing W BHT writes with the configured
 * ports sustains min(obqReadPorts, bhtWritePorts) writes per cycle and
 * occupies the BHT until done. Backward walks and snapshot restores
 * make the whole BHT unavailable for the duration; forward walks free
 * each entry the cycle it is rewritten (the paper's key timeliness
 * argument); limited-PC repair completes in a deterministic
 * ceil(M / writePorts) cycles.
 */

#ifndef LBP_REPAIR_SCHEME_HH
#define LBP_REPAIR_SCHEME_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bpu/local_two_level.hh"
#include "bpu/loop_predictor.hh"
#include "bpu/predictor.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/dyn_inst.hh"
#include "repair/obq.hh"

namespace lbp {

/** Which repair technique to instantiate. */
enum class RepairKind
{
    Perfect,
    NoRepair,
    RetireUpdate,
    BackwardWalk,
    Snapshot,
    ForwardWalk,
    LimitedPc,
    MultiStage,
    FutureFile,
};

const char *repairKindName(RepairKind kind);

/** Which local predictor design the scheme manages. */
enum class LocalKind
{
    CbpwLoop,   ///< the paper's demonstration vehicle
    TwoLevel,   ///< generic Yeh-Patt (extensibility claim)
};

/** M-N-P structure configuration from the paper's figures. */
struct RepairPorts
{
    /** Accepted M range for a user-supplied M-N-P: the OBQ needs two
     *  entries, and the cap keeps a typo from sizing a huge ring. */
    static constexpr unsigned minEntries = 2;
    static constexpr unsigned maxEntries = 4096;
    /** Accepted N and P range is [1, maxPorts]. */
    static constexpr unsigned maxPorts = 64;

    unsigned entries = 32;        ///< OBQ / snapshot-queue entries
    unsigned readPorts = 4;       ///< checkpoint-structure read ports
    unsigned bhtWritePorts = 2;   ///< BHT write ports usable for repair
};

/** Full repair-scheme configuration. */
struct RepairConfig
{
    RepairKind kind = RepairKind::ForwardWalk;
    LocalKind localKind = LocalKind::CbpwLoop;
    LoopConfig loop = LoopConfig::entries128();
    LocalTwoLevelConfig twoLevel{};
    RepairPorts ports{};
    bool coalesce = false;        ///< ForwardWalk: OBQ entry merging
    /** Largest limitedM: the width of LimitedPc's per-instruction
     *  payload. */
    static constexpr unsigned maxLimitedM = 16;
    unsigned limitedM = 4;        ///< LimitedPc: PCs repaired, >= 1
    bool limitedInvalidate = false;  ///< LimitedPc: invalidate the rest
    bool msSplitPt = false;       ///< MultiStage: split the PT
    /** FutureFile: associative-search window (entries from the tail a
     *  lookup can reach; the paper caps practical designs at 8-16). */
    unsigned ffWindow = 16;
    /**
     * Optional CBP-style global WITHLOOP chooser. Off by default: the
     * per-entry PT confidence (reset on a wrong used prediction) is the
     * override gate, which reproduces the paper's observation that an
     * unrepaired local predictor actively *loses* performance — a
     * global trust counter would just turn it off instead.
     */
    bool useChooser = false;
};

/** Counters every scheme maintains. */
struct RepairStats
{
    std::uint64_t repairsTriggered = 0;
    std::uint64_t repairWrites = 0;
    std::uint64_t uncheckpointedMispredicts = 0;
    std::uint64_t deniedPredictions = 0;  ///< BHT busy at lookup
    std::uint64_t skippedSpecUpdates = 0;
    std::uint64_t overrides = 0;
    std::uint64_t overridesCorrect = 0;
    std::uint64_t earlyResteers = 0;
    std::uint64_t earlyResteersWrong = 0;
    FixedHistogram walkLength;       ///< entries examined per repair
    FixedHistogram writesPerRepair;  ///< BHT writes per repair
    FixedHistogram repairsNeeded;    ///< distinct polluted PCs (Figure 8)
    FixedHistogram repairCycles;
};

/**
 * What one RepairScheme::recover() did. The pipeline learns about a
 * repair only from this: the misprediction-forensics record and the
 * invariant auditor read it, and recover() turns it into RepairStats
 * samples in one place.
 */
struct RepairOutcome
{
    /** How the scheme answered the misprediction. */
    enum class Action : std::uint8_t
    {
        None,       ///< the scheme never repairs (no-repair, retire-update)
        Uncovered,  ///< no checkpoint held for the cause: nothing repaired
        Restore,    ///< state restored without an OBQ walk
        Walk,       ///< an OBQ walk (backward, forward, multi-stage)
    };

    Action action = Action::None;
    unsigned walked = 0;  ///< OBQ entries the walk examined
    /** BHT writes through the repair ports (RepairStats::repairWrites).
     *  MultiStage's include its copies into BHT-TAGE; Perfect's
     *  instantaneous oracle restore spends none. */
    unsigned writes = 0;
    /** Writes into the repaired table (RepairStats::writesPerRepair). */
    unsigned tableWrites = 0;
    Cycle cycles = 0;  ///< until the repaired tables are whole again
    /** LimitedPc's declared coverage: the PCs its repair wrote, viewed
     *  in the scheme's own payload ring, so read it before the scheme's
     *  next hook. Empty for the schemes that repair every polluted PC. */
    std::span<const Addr> repairSet{};

    bool covered() const { return action != Action::Uncovered; }
};

/**
 * Base class: implements the common fetch-stage policy (lookup,
 * WITHLOOP-gated override, speculative update), the Figure-8
 * pollution accounting and the repair accounting. A scheme supplies
 * its repair through repair() and squash(); the default repairs
 * nothing, i.e. the NoRepair scheme.
 */
class RepairScheme
{
  public:
    struct AllocOutcome
    {
        bool resteer = false;
        bool dir = false;
    };

    RepairScheme(std::unique_ptr<LocalPredictor> lp,
                 const RepairConfig &cfg);
    virtual ~RepairScheme() = default;

    /**
     * Fetch-stage handling of a conditional branch: local lookup,
     * override decision against @p tage_dir, checkpointing, and
     * speculative BHT update. Fills *di.br (usedLoop included) and
     * returns the final direction.
     */
    virtual bool atPredict(DynInst &di, bool tage_dir, Cycle now);

    /** True-path fetch hook (oracle maintenance for PerfectRepair). */
    virtual void atTruePathFetch(const DynInst &di) { (void)di; }

    /** Alloc-stage hook; only MultiStage ever requests a resteer. */
    virtual AllocOutcome
    atAlloc(DynInst &di, Cycle now)
    {
        (void)di;
        (void)now;
        return {};
    }

    /**
     * Execute-time recovery of a mispredicted conditional branch: the
     * scheme repairs the BHT from its pre-squash checkpoints, then
     * drops the checkpoints of the squashed younger instructions.
     */
    RepairOutcome recover(DynInst &cause, Cycle now);

    /** Retirement of a conditional branch: training + housekeeping. */
    virtual void atRetire(DynInst &di);

    /** Additional storage beyond TAGE + the local predictor (KB). */
    virtual double storageKB() const { return 0.0; }

    /**
     * Live entries in the scheme's checkpoint structure (OBQ, snapshot
     * queue, future-file ring); 0 for schemes without one. Observability
     * only — the misprediction-forensics channel records it per squash.
     */
    virtual unsigned obqOccupancy() const { return 0; }

    /**
     * True when the checkpointed local state is read and written at
     * the alloc/defer stage rather than at fetch (MultiStage's
     * BHT-Defer): the auditor's record must then be taken after
     * atAlloc(), when di.br->local holds the audited table's lookup.
     */
    virtual bool auditsAtAlloc() const { return false; }

    /** The managed local predictor (primary one for MultiStage). */
    LocalPredictor &local() { return *lp_; }
    const LocalPredictor &local() const { return *lp_; }

    /** Local predictor storage (both tables for MultiStage). */
    virtual double localStorageKB() const { return lp_->storageKB(); }

    const RepairStats &stats() const { return stats_; }

  protected:
    /** The repair proper, run against the pre-squash checkpoints. The
     *  default repairs nothing (no-repair, retire-update). */
    virtual RepairOutcome
    repair(DynInst &cause, Cycle now)
    {
        (void)cause;
        (void)now;
        return {};
    }

    /** Drop the checkpoints of instructions younger than @p cause. */
    virtual void squash(const DynInst &cause) { (void)cause; }

    /** Can the BHT serve a prediction for @p pc right now? */
    virtual bool
    bhtUsable(Addr pc, Cycle now) const
    {
        (void)pc;
        (void)now;
        return true;
    }

    /** Can the BHT accept a speculative update for @p pc right now? */
    virtual bool
    bhtWritable(Addr pc, Cycle now) const
    {
        return bhtUsable(pc, now);
    }

    /** Subclass checkpointing hook, called before the spec update. */
    virtual void
    checkpoint(DynInst &di, Cycle now)
    {
        (void)di;
        (void)now;
    }

    /** Whether this scheme speculatively updates the BHT at predict. */
    virtual bool specUpdatesAtPredict() const { return true; }

    /** Whether a valid local lookup overrides TAGE: the one override
     *  gate, with the optional WITHLOOP chooser. */
    bool
    overrides(const LocalPred &lookup) const
    {
        return lookup.valid && (!cfg_.useChooser || withLoop_.value() >= 0);
    }

    /** Fetch-stage direction from br.local and @p tage_dir: fills
     *  tageDir, loopDir, usedLoop and finalPred. */
    void decide(BranchRec &br, bool tage_dir) const;

    /** Writes-per-cycle a repair can sustain. */
    unsigned
    repairThroughput() const
    {
        return std::max(1u, std::min(cfg_.ports.readPorts,
                                     cfg_.ports.bhtWritePorts));
    }

    static Cycle
    ceilDiv(std::uint64_t work, unsigned per_cycle)
    {
        return (work + per_cycle - 1) / per_cycle;
    }

    /**
     * Hold the BHT for a repair of @p writes writes at @p per_cycle: it
     * starts the cycle after @p now, or when the repair in flight ends,
     * and busyUntil_ becomes the cycle it ends. Returns its cycles.
     */
    Cycle holdBht(Cycle now, unsigned writes, unsigned per_cycle);

    /** Record a speculative update for Figure-8 pollution accounting. */
    void logSpecUpdate(InstSeq seq, Addr pc);

    /** Distinct PCs speculatively updated at or after @p seq (Figure
     *  8), in a scratch list that the next call overwrites. */
    const std::vector<Addr> &pollutedSince(InstSeq seq) const;

    std::unique_ptr<LocalPredictor> lp_;
    RepairConfig cfg_;
    RepairStats stats_;
    SignedSatCounter withLoop_;
    Cycle busyUntil_ = 0;  ///< the repaired table is held until then

  private:
    /** Ring of recent speculative updates (seq, pc). */
    std::vector<std::pair<InstSeq, Addr>> updateLog_;
    std::size_t updateLogPos_ = 0;
    /** Scratch for the per-misprediction pollution count — reused so
     *  the hot resolve path never allocates. */
    mutable std::vector<Addr> pollutedScratch_;
};

/**
 * Instantiate a scheme per @p cfg, constructing the local predictor(s)
 * it manages from cfg.localKind / cfg.loop / cfg.twoLevel.
 */
std::unique_ptr<RepairScheme> makeRepairScheme(const RepairConfig &cfg);

/** Construct a local predictor instance per the config (shared helper). */
std::unique_ptr<LocalPredictor> makeLocalPredictor(const RepairConfig &cfg);

} // namespace lbp

#endif // LBP_REPAIR_SCHEME_HH
