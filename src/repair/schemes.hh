/**
 * @file
 * Concrete repair-scheme classes. Declared in a header so unit tests
 * can instantiate and poke them directly; most users go through
 * makeRepairScheme().
 */

#ifndef LBP_REPAIR_SCHEMES_HH
#define LBP_REPAIR_SCHEMES_HH

#include <array>
#include <vector>

#include "repair/scheme.hh"

namespace lbp {

/**
 * A bounded ring of seq-tagged checkpoints (Snapshot's BHT images,
 * FutureFile's speculative states). Ids are monotonic positions and
 * id -> slot is id % capacity; records join at the tail, a squash
 * trims the tail and retirement drains the head.
 */
template <typename T>
class SeqRing
{
  public:
    explicit SeqRing(std::size_t capacity) : ring_(capacity) {}

    T &at(std::uint64_t id) { return ring_[id % ring_.size()]; }

    /** Whether record @p id is still held (not squashed or retired). */
    bool live(std::uint64_t id) const { return id >= head_ && id < tail_; }
    bool full() const { return tail_ - head_ == ring_.size(); }
    unsigned size() const { return static_cast<unsigned>(tail_ - head_); }
    std::size_t capacity() const { return ring_.size(); }
    std::uint64_t head() const { return head_; }
    std::uint64_t tail() const { return tail_; }

    /** Append a record; the caller makes room first. Returns its id. */
    std::uint64_t push() { return tail_++; }
    void dropOldest() { ++head_; }
    /** Drop every record from @p id on. */
    void truncate(std::uint64_t id) { tail_ = id; }

    void
    squashYoungerThan(InstSeq seq)
    {
        while (tail_ > head_ && at(tail_ - 1).seq > seq)
            --tail_;
    }

    void
    retireUpTo(InstSeq seq)
    {
        while (head_ < tail_ && at(head_).seq <= seq)
            ++head_;
    }

  private:
    std::vector<T> ring_;
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
};

/**
 * NoRepair: speculative BHT updates are applied on the predicted path
 * and never rolled back (section 2.7's cautionary baseline).
 */
class NoRepairScheme : public RepairScheme
{
  public:
    using RepairScheme::RepairScheme;
};

/**
 * RetireUpdate: the BHT is written only at retirement with the
 * architectural outcome, so there is no speculative state to repair —
 * at the price of stale state for tight loops (section 6.2).
 */
class RetireUpdateScheme : public RepairScheme
{
  public:
    using RepairScheme::RepairScheme;
    void atRetire(DynInst &di) override;

  protected:
    bool specUpdatesAtPredict() const override { return false; }
};

/**
 * PerfectRepair: oracle upper bound. A shadow BHT is updated with
 * architectural outcomes in fetch order; a misprediction restores the
 * live BHT from it instantaneously (section 6.1).
 */
class PerfectRepairScheme : public RepairScheme
{
  public:
    PerfectRepairScheme(std::unique_ptr<LocalPredictor> lp,
                        std::unique_ptr<LocalPredictor> oracle,
                        const RepairConfig &cfg);

    void atTruePathFetch(const DynInst &di) override;

  protected:
    RepairOutcome repair(DynInst &cause, Cycle now) override;

  private:
    std::unique_ptr<LocalPredictor> oracle_;
    /** The oracle's BHT image, refilled at every repair. */
    std::vector<std::uint64_t> oracleSnap_;
};

/**
 * Shared machinery for the OBQ-backed history-file walks: the OBQ's
 * checkpoint, squash, retire and storage, and the one forward walk.
 */
class WalkSchemeBase : public RepairScheme
{
  public:
    WalkSchemeBase(std::unique_ptr<LocalPredictor> lp,
                   const RepairConfig &cfg, bool coalesce);

    void atRetire(DynInst &di) override;
    double storageKB() const override;
    unsigned obqOccupancy() const override { return obq_.size(); }

  protected:
    void checkpoint(DynInst &di, Cycle now) override;
    void squash(const DynInst &cause) override;

    /**
     * Section 3.1's forward walk, from the mispredicting branch's entry
     * toward the tail. Repair bits give each PC one write: the oldest
     * instance's pre-state, which is the architectural one. A cause
     * sharing a coalesced entry first repairs its own PC from the state
     * it carries. Returns the entries walked; repaired_ lists the PCs
     * written, in write order.
     */
    unsigned forwardWalk(const DynInst &cause);

    Obq obq_;
    std::vector<Addr> repaired_;
};

/**
 * BackwardWalk: Skadron-style history-file repair — walk the OBQ from
 * the youngest entry down to the mispredicting one, rewriting every
 * entry (duplicate PCs rewritten multiple times); the BHT is
 * unavailable until the whole walk completes (section 2.6).
 */
class BackwardWalkScheme : public WalkSchemeBase
{
  public:
    BackwardWalkScheme(std::unique_ptr<LocalPredictor> lp,
                       const RepairConfig &cfg);

  protected:
    RepairOutcome repair(DynInst &cause, Cycle now) override;
    bool bhtUsable(Addr pc, Cycle now) const override;
};

/**
 * ForwardWalk: the paper's technique (section 3.1) — start at the
 * mispredicting entry and walk toward the tail; per-entry repair bits
 * guarantee one write per PC (the oldest instance's pre-state, which
 * is the architecturally-correct value), and each entry becomes usable
 * the cycle it is rewritten. Optional OBQ coalescing merges consecutive
 * same-PC checkpoints.
 */
class ForwardWalkScheme : public WalkSchemeBase
{
  public:
    ForwardWalkScheme(std::unique_ptr<LocalPredictor> lp,
                      const RepairConfig &cfg);

  protected:
    RepairOutcome repair(DynInst &cause, Cycle now) override;
    bool bhtUsable(Addr pc, Cycle now) const override;

  private:
    Cycle walkStart_ = 0;  ///< first write cycle of the latest walk
};

/**
 * Snapshot: whole-BHT snapshots pushed to a bounded snapshot queue at
 * every checkpointed prediction; a misprediction restores the full
 * table, paying storage and a long whole-BHT-busy restore (section 2.6).
 */
class SnapshotScheme : public RepairScheme
{
  public:
    SnapshotScheme(std::unique_ptr<LocalPredictor> lp,
                   const RepairConfig &cfg);

    void atRetire(DynInst &di) override;
    double storageKB() const override;
    unsigned obqOccupancy() const override { return ring_.size(); }

  protected:
    void checkpoint(DynInst &di, Cycle now) override;
    RepairOutcome repair(DynInst &cause, Cycle now) override;
    void squash(const DynInst &cause) override;
    bool bhtUsable(Addr pc, Cycle now) const override;

  private:
    struct Snap
    {
        InstSeq seq = invalidSeq;
        std::vector<std::uint64_t> data;
    };

    SeqRing<Snap> ring_;
};

/**
 * LimitedPc: repair exactly M PCs chosen by the paper's
 * utility-plus-recency heuristic — the mispredicting PC itself, recent
 * correct overriders, then recently-updated BHT entries. The pre-update
 * states of the chosen PCs travel with every instruction (24 bits per
 * PC), so repair needs no OBQ and completes in deterministic time
 * (section 3.3).
 */
class LimitedPcScheme : public RepairScheme
{
  public:
    LimitedPcScheme(std::unique_ptr<LocalPredictor> lp,
                    const RepairConfig &cfg);

    void atRetire(DynInst &di) override;
    double storageKB() const override;

  protected:
    void checkpoint(DynInst &di, Cycle now) override;
    /** Declares the payload's PCs as the outcome's repairSet. */
    RepairOutcome repair(DynInst &cause, Cycle now) override;

  private:
    static constexpr unsigned maxM = RepairConfig::maxLimitedM;
    static constexpr unsigned payloadRingLog = 13;

    /** The chosen PCs and their pre-update states; pcs is contiguous so
     *  a repair can declare it as its repair set. */
    struct Payload
    {
        std::array<Addr, maxM> pcs;
        std::array<LocalState, maxM> states;
        std::uint8_t count = 0;
        InstSeq seq = invalidSeq;
    };

    void noteRecentUpdate(Addr pc);

    std::vector<Payload> payloadRing_;
    std::vector<Addr> overrideLru_;   ///< recent correct overriders
    std::vector<Addr> recentUpdates_; ///< recent BHT-updated PCs
};

/**
 * FutureFile: the second Skadron organization (section 2.6). The
 * speculative per-PC state lives in the queue itself: a prediction
 * associatively searches the youngest entries for its PC (falling back
 * to the retirement-updated BHT), and repair is a single tail-pointer
 * revert — O(1), no BHT unavailability. The paper rejects the design
 * because the common-case prediction path needs the associative search
 * (a power/latency problem beyond 8-16 ways); we model that limit as a
 * bounded search window, so PCs whose latest update lies deeper than
 * the window read stale architectural state.
 */
class FutureFileScheme : public RepairScheme
{
  public:
    FutureFileScheme(std::unique_ptr<LocalPredictor> lp,
                     const RepairConfig &cfg);

    bool atPredict(DynInst &di, bool tage_dir, Cycle now) override;
    void atRetire(DynInst &di) override;
    double storageKB() const override;
    unsigned obqOccupancy() const override { return ring_.size(); }

  protected:
    RepairOutcome repair(DynInst &cause, Cycle now) override;
    void squash(const DynInst &cause) override;

  private:
    struct Entry
    {
        Addr pc = 0;
        LocalState state = 0;  ///< post-update speculative state
        InstSeq seq = invalidSeq;
    };

    SeqRing<Entry> ring_;
};

/**
 * MultiStage: split BHT (section 3.2). BHT-TAGE sits at the prediction
 * stage and overrides immediately; BHT-Defer sits at the allocation
 * stage, is the only checkpointed table, and can override with an early
 * pipeline resteer. Repair forward-walks BHT-Defer from the OBQ, then
 * copies the repaired PCs into BHT-TAGE using the prediction ports
 * (BHT-TAGE simply declines predictions during the repair period, so no
 * extra ports are needed).
 */
class MultiStageScheme : public WalkSchemeBase
{
  public:
    /** @p lp is BHT-Defer (checkpointed); @p bht_tage the fetch table. */
    MultiStageScheme(std::unique_ptr<LocalPredictor> lp,
                     std::unique_ptr<LocalPredictor> bht_tage,
                     bool shared_pt, const RepairConfig &cfg);

    bool atPredict(DynInst &di, bool tage_dir, Cycle now) override;
    AllocOutcome atAlloc(DynInst &di, Cycle now) override;
    void atRetire(DynInst &di) override;
    double storageKB() const override;
    double localStorageKB() const override;

    /** BHT-Defer (the checkpointed table) is looked up at atAlloc(). */
    bool auditsAtAlloc() const override { return true; }

    LocalPredictor &bhtTage() { return *bhtTage_; }

  protected:
    RepairOutcome repair(DynInst &cause, Cycle now) override;

  private:
    /** BHT-Defer is held by its repair walk until busyUntil_. */
    bool deferBusy(Cycle now) const { return now < busyUntil_; }
    bool tageBusy(Cycle now) const { return now < tageBusyUntil_; }

    std::unique_ptr<LocalPredictor> bhtTage_;
    bool sharedPt_;
    Cycle tageBusyUntil_ = 0;
};

} // namespace lbp

#endif // LBP_REPAIR_SCHEMES_HH
