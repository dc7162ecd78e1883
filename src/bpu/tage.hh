/**
 * @file
 * TAGE: a tagless bimodal base plus partially-tagged tables indexed with
 * geometrically-increasing global history lengths (Seznec & Michaud).
 *
 * The implementation keeps the speculative global state — direction
 * history (GHIST), path history (PHIST) and per-table folded histories —
 * checkpointable per prediction, mirroring the paper's observation that
 * global-predictor repair is O(1): every in-flight branch carries its
 * pre-update state and a flush restores the registers directly
 * (section 2.3.1).
 *
 * Training happens at retirement using the table indices/tags computed
 * at prediction time (stored in the in-flight TagePred record), so
 * restores never invalidate pending updates.
 */

#ifndef LBP_BPU_TAGE_HH
#define LBP_BPU_TAGE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "bpu/bimodal.hh"
#include "common/sat_counter.hh"
#include "common/types.hh"

namespace lbp {

/** Compile-time cap on tagged tables (config may use fewer). */
constexpr unsigned tageMaxTables = 16;

/** Geometry of one tagged table. */
struct TageTableConfig
{
    unsigned sizeLog = 9;   ///< log2(entries)
    unsigned tagBits = 8;
    unsigned histLen = 8;   ///< global history length used for indexing
};

/** Full TAGE geometry. */
struct TageConfig
{
    unsigned bimodalLog = 12;
    unsigned ctrBits = 3;
    unsigned uBits = 2;
    unsigned phistBits = 16;
    std::vector<TageTableConfig> tables;

    /** ~7.1KB configuration matching the paper's baseline (Table 2). */
    static TageConfig kb7();

    /** Iso-storage scaled baseline for Fig 14A (~9KB). */
    static TageConfig kb9();

    /** Large configuration from the CBP 64KB category for Fig 14B. */
    static TageConfig kb57();

    /** Total storage in kilobytes (tables + bimodal). */
    double storageKB() const;
};

/**
 * Per-prediction record carried by each in-flight conditional branch.
 *
 * The per-table index/tag words live in externally-owned storage sized
 * to the predictor's actual table count (numTables), not to the
 * tageMaxTables compile-time cap: in-flight branches draw their slots
 * from the core's branch-record pool arena, so an 8K-entry instruction
 * ring never carries 16-table worth of dead weight per slot. Standalone
 * users (tests, microbenchmarks) bind inline storage via
 * TagePredStorage.
 */
struct TagePred
{
    bool pred = false;          ///< final TAGE direction
    bool altPred = false;       ///< alternate prediction
    bool bimodalPred = false;
    std::int8_t provider = -1;     ///< providing table, -1 = bimodal
    std::int8_t altProvider = -1;  ///< alt providing table, -1 = bimodal
    bool providerWeak = false;     ///< provider counter near midpoint
    bool usedAlt = false;          ///< alt chosen over a weak new entry
    std::uint16_t *indices = nullptr;  ///< numTables entries
    std::uint16_t *tags = nullptr;     ///< numTables entries
};

/** TagePred owning inline index/tag storage (standalone callers). */
struct TagePredStorage : TagePred
{
    TagePredStorage()
    {
        indices = buf.data();
        tags = buf.data() + tageMaxTables;
    }
    TagePredStorage(const TagePredStorage &) = delete;
    TagePredStorage &operator=(const TagePredStorage &) = delete;

    std::array<std::uint16_t, 2 * tageMaxTables> buf{};
};

/**
 * Checkpoint of the speculative global state (O(1) restore). The three
 * folded-history words per table live in externally-owned storage
 * (layout [table * 3 + {idx, tagA, tagB}]), sized to numTables like
 * TagePred's slots; TageCheckpointStorage binds inline storage.
 */
struct TageCheckpoint
{
    std::uint64_t ghistHead = 0;
    std::uint32_t phist = 0;
    std::uint16_t *folded = nullptr;  ///< 3 * numTables entries
};

/** TageCheckpoint owning inline folded storage (standalone callers). */
struct TageCheckpointStorage : TageCheckpoint
{
    TageCheckpointStorage() { folded = buf.data(); }
    TageCheckpointStorage(const TageCheckpointStorage &) = delete;
    TageCheckpointStorage &operator=(const TageCheckpointStorage &) =
        delete;

    std::array<std::uint16_t, 3 * tageMaxTables> buf{};
};

/**
 * The TAGE conditional branch predictor.
 */
class TagePredictor
{
  public:
    explicit TagePredictor(TageConfig cfg = TageConfig::kb7());

    /** Predict the direction of @p pc; fills the in-flight record. */
    bool predict(Addr pc, TagePred &out);

    /**
     * Speculative history push at prediction time. Conditional branches
     * push their (predicted) direction; unconditional transfers push a
     * constant taken bit so path context stays branch-count aligned.
     */
    void specUpdateHist(Addr pc, bool taken);

    /** Capture the speculative global state before a history push. */
    void checkpoint(TageCheckpoint &out) const;

    /** Restore the speculative global state (misprediction flush). */
    void restore(const TageCheckpoint &ckpt);

    /** Retirement-time training with the architectural outcome. */
    void train(Addr pc, bool actual, const TagePred &pred);

    double storageKB() const { return cfg_.storageKB(); }

    /** Number of tagged tables in use (sizes pool arenas). */
    unsigned numTables() const { return numTables_; }

  private:
    struct TageEntry
    {
        std::uint16_t tag = 0;
        std::int8_t ctr = 0;     ///< signed; >= 0 predicts taken
        std::uint8_t u = 0;      ///< usefulness
    };
    static_assert(sizeof(TageEntry) == 4, "TageEntry must stay packed");

    /**
     * Precomputed per-table geometry: arena offset plus the masks and
     * shifts tableIndex/tableTag recompute from TageTableConfig on
     * every lookup in the vector-of-vectors layout.
     */
    struct TableMeta
    {
        std::uint32_t offset = 0;    ///< first entry in arena_
        std::uint32_t idxMask = 0;   ///< (1 << sizeLog) - 1
        std::uint32_t phMask = 0;    ///< (1 << min(histLen,phistBits)) - 1
        std::uint16_t tagMask = 0;   ///< (1 << tagBits) - 1
        std::uint16_t histLen = 0;
        std::uint8_t sizeLog = 0;
        std::uint8_t keyShift = 0;   ///< sizeLog - (t % 4)
    };

    /** Folded (compressed) history register for one table purpose. */
    struct Folded
    {
        std::uint32_t comp = 0;
        unsigned compLen = 1;
        unsigned origLen = 1;
        unsigned outPoint = 0;

        void init(unsigned orig_len, unsigned comp_len);
        void update(bool new_bit, bool old_bit);
    };

    unsigned tableIndex(unsigned t, Addr pc) const;
    std::uint16_t tableTag(unsigned t, Addr pc) const;
    TageEntry &entry(unsigned t, unsigned idx)
    {
        return arena_[meta_[t].offset + idx];
    }
    const TageEntry &entry(unsigned t, unsigned idx) const
    {
        return arena_[meta_[t].offset + idx];
    }
    bool ghistAt(unsigned dist) const;
    int ctrMax() const { return (1 << (cfg_.ctrBits - 1)) - 1; }
    int ctrMin() const { return -(1 << (cfg_.ctrBits - 1)); }

    TageConfig cfg_;
    unsigned numTables_;
    unsigned maxHist_;

    BimodalPredictor bimodal_;
    /** All tagged tables in one contiguous arena; meta_[t].offset maps
     *  (table, index) to a flat position. */
    std::vector<TageEntry> arena_;
    std::array<TableMeta, tageMaxTables> meta_{};

    /** Per-table folded registers, interleaved so one table's history
     *  push touches a single cache line instead of three. */
    struct FoldedSet
    {
        Folded idx;
        Folded tagA;
        Folded tagB;
    };

    // Speculative global state.
    static constexpr unsigned ghistRingLog = 12;
    std::vector<std::uint8_t> ghistRing_;
    std::uint64_t ghistHead_ = 0;
    std::uint32_t phist_ = 0;
    std::array<FoldedSet, tageMaxTables> folded_;

    // Training-side state.
    SignedSatCounter useAltOnNa_{4, 0};
    std::uint64_t lfsr_ = 0x123456789ull;
    std::uint64_t trainCount_ = 0;
    std::uint64_t uResetPeriod_ = 1ull << 18;
};

} // namespace lbp

#endif // LBP_BPU_TAGE_HH
