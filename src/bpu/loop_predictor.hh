/**
 * @file
 * CBPw-Loop: the loop predictor of the CBP-2016 winner, redesigned as a
 * conventional two-level structure per section 2.3 of the paper:
 *
 *  - BHT (first level): set-associative, tracks the *current* iteration
 *    state of each PC — an 11-bit run counter plus the direction being
 *    counted. This is the speculative state that must be repaired after
 *    mispredictions, and it carries a repair bit per entry (Figure 1).
 *  - PT (second level): learns the final trip count (run length of the
 *    dominant direction) and a confidence, updated only after branches
 *    complete execution.
 *
 * Both backward loops (TTT..N) and forward if-then-else exits (NNN..T)
 * are covered: the dominant direction is learned, not assumed.
 *
 * Packed BHT state layout (LocalState): bits[10:0] run length,
 * bit 11 run direction, bit 12 state-known flag.
 */

#ifndef LBP_BPU_LOOP_PREDICTOR_HH
#define LBP_BPU_LOOP_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "bpu/predictor.hh"
#include "common/set_assoc.hh"
#include "common/types.hh"

namespace lbp {

/** Pack/unpack helpers for the loop predictor's BHT state word. */
struct LoopState
{
    static constexpr unsigned counterBits = 11;
    static constexpr LocalState counterMask = (1u << counterBits) - 1;
    static constexpr LocalState dirBit = 1u << 11;
    static constexpr LocalState knownBit = 1u << 12;

    static std::uint16_t count(LocalState s) { return s & counterMask; }
    static bool dir(LocalState s) { return (s & dirBit) != 0; }
    static bool known(LocalState s) { return (s & knownBit) != 0; }

    static LocalState
    make(std::uint16_t count, bool dir, bool known = true)
    {
        return static_cast<LocalState>((count & counterMask) |
                                       (dir ? dirBit : 0) |
                                       (known ? knownBit : 0));
    }

    /** One speculative state-machine step (shared with repair replay). */
    static LocalState
    advance(LocalState s, bool dir_taken)
    {
        if (!known(s) || dir(s) != dir_taken)
            return make(1, dir_taken);
        const std::uint16_t c = count(s);
        return make(c < counterMask ? c + 1 : c, dir_taken);
    }
};

/**
 * The trip-count pattern table (second level). Split out so the
 * multi-stage design can share one PT between BHT-TAGE and BHT-Defer
 * (section 3.2.1 studies both shared and split PT).
 */
class LoopPatternTable
{
  public:
    struct Entry
    {
        std::uint16_t trip = 0;  ///< learned dominant-run length
        std::uint8_t conf = 0;
        bool sense = false;      ///< dominant direction
    };

    LoopPatternTable(unsigned entries, unsigned ways, unsigned conf_bits,
                     unsigned conf_threshold, unsigned conf_penalty,
                     unsigned tag_bits);

    /** Look up a PC; nullptr on miss. Touches LRU when @p touch. */
    const Entry *lookup(Addr pc, bool touch = true);

    /** Retirement-side training with an observed dominant-run exit. */
    void train(Addr pc, bool sense, std::uint16_t period);

    /** CBP-style confidence: ++ on a correctly-called exit, reset to
     *  zero on any wrong computed prediction. */
    void feedback(Addr pc, bool predicted, bool actual);

    bool confident(const Entry &e) const { return e.conf >= confThresh_; }
    unsigned entries() const { return table_.numEntries(); }
    double storageKB() const;

  private:
    std::uint64_t key(Addr pc) const { return pc >> 2; }

    SetAssocTable<Entry> table_;
    unsigned confBits_;
    unsigned confThresh_;
    unsigned confPenalty_;
    unsigned tagBits_;
};

/** Geometry/knobs for a CBPw-Loop instance. */
struct LoopConfig
{
    unsigned bhtEntries = 128;
    unsigned bhtWays = 8;
    unsigned ptEntries = 128;
    unsigned ptWays = 4;
    unsigned ptConfBits = 3;
    unsigned ptConfThreshold = 3;
    unsigned ptConfPenalty = 2;  ///< trust lost on a wrong prediction
    unsigned bhtTagBits = 8;   ///< paper: 5-bit set + 8-bit tag + 11-bit ctr
    unsigned ptTagBits = 10;

    /** Table 2 configurations. */
    static LoopConfig entries64();
    static LoopConfig entries128();
    static LoopConfig entries256();
};

/**
 * The CBPw-Loop local predictor (BHT + PT).
 */
class LoopPredictor : public LocalPredictor
{
  public:
    /**
     * @param shared_pt when non-null, predictions/training use this
     * external PT (multi-stage shared-PT design) instead of an owned one.
     */
    explicit LoopPredictor(const LoopConfig &cfg = LoopConfig::entries128(),
                           LoopPatternTable *shared_pt = nullptr);

    LocalPred predict(Addr pc) override;
    LocalPred predictFrom(Addr pc, LocalState state,
                          bool known) override;
    void specUpdate(Addr pc, bool dir) override;
    void retireTrain(Addr pc, bool actual_dir) override;
    void predictionFeedback(Addr pc, bool predicted,
                            bool actual) override;

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

    LoopPatternTable &pt() { return *pt_; }

    /**
     * Derive a direction prediction from a state word and a PT entry;
     * exposed so tests can check the decision logic directly.
     */
    static bool statePredict(LocalState s, const LoopPatternTable::Entry &e,
                             bool *valid);

  private:
    struct BhtPayload
    {
        LocalState state = 0;
        bool repairBit = false;
    };

    struct RunState
    {
        std::uint16_t count = 0;
        bool dir = false;
        bool known = false;
    };

    std::uint64_t key(Addr pc) const { return pc >> 2; }

    RunState &runFor(Addr pc);

    LoopConfig cfg_;
    SetAssocTable<BhtPayload> bht_;
    LoopPatternTable ownPt_;
    LoopPatternTable *pt_;

    /**
     * Retirement-side architectural run reconstruction used to train the
     * PT with exact exit periods. Stands in for the paper's completion-
     * time PT update path; uniform across all repair schemes (DESIGN.md
     * section 6 idealization note). Stored in a linear-probe table
     * keyed by PC — this is queried once per retired conditional
     * branch, where a node-based map's hashing and pointer chasing was
     * measurable.
     */
    std::vector<std::pair<Addr, RunState>> retireRuns_;
    std::size_t retireRunCount_ = 0;
};

} // namespace lbp

#endif // LBP_BPU_LOOP_PREDICTOR_HH
