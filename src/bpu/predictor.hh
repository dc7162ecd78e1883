/**
 * @file
 * Shared branch-predictor interfaces and in-flight prediction records.
 *
 * The repair layer (src/repair) is written against the LocalPredictor
 * interface, not against the loop predictor concretely: the paper's
 * repair techniques manipulate opaque per-PC BHT state (an 11-bit
 * counter for CBPw-Loop, a history register for a generic two-level
 * predictor), so any local predictor that exposes its state words this
 * way plugs into every repair scheme unchanged.
 */

#ifndef LBP_BPU_PREDICTOR_HH
#define LBP_BPU_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace lbp {

/** Packed per-PC local state carried through the pipeline (<= 16 bits). */
using LocalState = std::uint16_t;

/** Result of a local-predictor lookup at prediction time. */
struct LocalPred
{
    bool bhtHit = false;    ///< PC present in the BHT
    /** The predictor can compute a direction (state + second level hit),
     *  regardless of confidence. Drives confidence training. */
    bool predictable = false;
    bool valid = false;     ///< predictable AND confident: may override
    bool dir = false;       ///< computed direction when predictable
    LocalState preState = 0;  ///< pre-update BHT state (checkpoint payload)
};

/**
 * Abstract local (per-PC history) direction predictor with the state
 * save/restore hooks the repair schemes require.
 */
class LocalPredictor
{
  public:
    virtual ~LocalPredictor() = default;

    /** Read-only lookup; does not modify predictor state. */
    virtual LocalPred predict(Addr pc) = 0;

    /**
     * Lookup against an externally-supplied first-level state instead
     * of the BHT's own entry (the future-file organization reads the
     * speculative state from its queue; section 2.6).
     */
    virtual LocalPred predictFrom(Addr pc, LocalState state,
                                  bool known) = 0;

    /**
     * Speculative BHT update with the pipeline's chosen direction,
     * applied right after prediction. Allocates a BHT entry on miss.
     */
    virtual void specUpdate(Addr pc, bool dir) = 0;

    /**
     * Retirement-side training with the architectural outcome (updates
     * the second-level table / confidence, not the speculative BHT).
     */
    virtual void retireTrain(Addr pc, bool actual_dir) = 0;

    /**
     * Retirement-side feedback for a *used* (confident) prediction this
     * predictor made. Wrong predictions kill the entry's confidence —
     * the CBP-style self-silencing that stops a desynchronized BHT
     * entry from overriding at full confidence indefinitely.
     */
    virtual void
    predictionFeedback(Addr pc, bool predicted, bool actual)
    {
        (void)pc;
        (void)predicted;
        (void)actual;
    }

    // --- Raw state access for the repair layer -------------------------

    /** Read a PC's packed BHT state. @p present reports a hit. */
    virtual LocalState readState(Addr pc, bool *present) const = 0;

    /** Overwrite a PC's packed BHT state; no-op when absent. */
    virtual void writeState(Addr pc, LocalState state) = 0;

    /** Advance a packed state by one outcome (repair-side replay). */
    virtual LocalState advanceState(LocalState state, bool dir) const = 0;

    /** Invalidate a PC's BHT entry if present. */
    virtual void invalidateEntry(Addr pc) = 0;

    /** Set the repair bit on every BHT entry (start of a walk). */
    virtual void setAllRepairBits() = 0;

    /**
     * Test-and-clear a PC's repair bit; returns true when the bit was
     * set (i.e. this is the entry's first write of the current walk).
     * Returns false for absent PCs.
     */
    virtual bool testClearRepairBit(Addr pc) = 0;

    /**
     * Whole-BHT snapshot (for the snapshot-queue scheme & oracle),
     * written over @p snap; a buffer that already holds one snapshot
     * is refilled without allocating.
     */
    virtual void snapshotBhtInto(std::vector<std::uint64_t> &snap) const = 0;

    /** Restore a snapshot taken from an identically-configured table. */
    virtual void restoreBht(const std::vector<std::uint64_t> &snap) = 0;

    // --- Introspection --------------------------------------------------

    virtual unsigned bhtEntries() const = 0;
    virtual double storageKB() const = 0;
};

} // namespace lbp

#endif // LBP_BPU_PREDICTOR_HH
