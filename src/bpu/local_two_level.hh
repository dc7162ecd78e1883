/**
 * @file
 * Generic two-level local predictor (Yeh & Patt, PAg-style): per-PC
 * history registers in a set-associative BHT, feeding a shared pattern
 * table of saturating counters.
 *
 * Included to substantiate the paper's claim that the repair techniques
 * "can be directly extended to any local predictor design": this class
 * implements the same LocalPredictor interface as CBPw-Loop — the packed
 * state word is a shift register instead of a run counter — and plugs
 * into every repair scheme unchanged.
 *
 * Packed BHT state layout (LocalState): bits[histBits-1:0] history
 * (bit 0 = most recent outcome), bit 12 state-known flag.
 */

#ifndef LBP_BPU_LOCAL_TWO_LEVEL_HH
#define LBP_BPU_LOCAL_TWO_LEVEL_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bpu/predictor.hh"
#include "common/sat_counter.hh"
#include "common/set_assoc.hh"
#include "common/types.hh"

namespace lbp {

/** Geometry of a LocalTwoLevel instance. */
struct LocalTwoLevelConfig
{
    unsigned bhtEntries = 128;
    unsigned bhtWays = 8;
    unsigned histBits = 10;    ///< local history length (<= 11)
    unsigned ctrBits = 3;      ///< pattern-table counter width
    unsigned bhtTagBits = 8;
    /** Override only when the pattern counter is this far from the
     *  midpoint (confidence gate). */
    unsigned confMargin = 3;
};

class LocalTwoLevelPredictor : public LocalPredictor
{
  public:
    explicit LocalTwoLevelPredictor(
        const LocalTwoLevelConfig &cfg = LocalTwoLevelConfig{});

    LocalPred predict(Addr pc) override;
    LocalPred predictFrom(Addr pc, LocalState state,
                          bool known) override;
    void specUpdate(Addr pc, bool dir) override;
    void retireTrain(Addr pc, bool actual_dir) override;

    LocalState readState(Addr pc, bool *present) const override;
    void writeState(Addr pc, LocalState state) override;
    LocalState advanceState(LocalState state, bool dir) const override;
    void invalidateEntry(Addr pc) override;
    void setAllRepairBits() override;
    bool testClearRepairBit(Addr pc) override;
    void snapshotBhtInto(std::vector<std::uint64_t> &snap) const override;
    void restoreBht(const std::vector<std::uint64_t> &snap) override;

    unsigned bhtEntries() const override { return bht_.numEntries(); }
    double storageKB() const override;

    static constexpr LocalState knownBit = 1u << 12;

  private:
    struct BhtPayload
    {
        LocalState state = 0;
        bool repairBit = false;
    };

    struct RunState
    {
        std::uint16_t hist = 0;
        bool known = false;
    };

    std::uint64_t key(Addr pc) const { return pc >> 2; }
    unsigned histMask() const { return (1u << cfg_.histBits) - 1; }

    LocalTwoLevelConfig cfg_;
    SetAssocTable<BhtPayload> bht_;
    std::vector<std::int8_t> patternTable_;

    /** Retirement-side architectural history reconstruction (same
     *  idealization as LoopPredictor::retireRuns_). */
    std::unordered_map<Addr, RunState> retireHist_;
};

} // namespace lbp

#endif // LBP_BPU_LOCAL_TWO_LEVEL_HH
