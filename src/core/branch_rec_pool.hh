/**
 * @file
 * Recycled pool for all per-branch state.
 *
 * The paper's point about local-predictor "baggage" cuts both ways for
 * the simulator itself: carrying a full TagePred (per-table indices and
 * tags) plus a TageCheckpoint (folded histories) inside every slot of
 * the 8K-entry DynInst ring made DynInst ~300 bytes, most of it dead
 * for the non-branch majority. The pool stores branch state only for
 * branches actually in flight (bounded by fetch queue + ROB occupancy):
 * the BranchRec the repair schemes read, the CFG cursor a resteer
 * resumes fetch from, and the TAGE baggage in one contiguous uint16
 * arena sized to the predictor's real table count instead of the
 * tageMaxTables compile-time cap. A DynInst keeps only a BranchRec
 * pointer, so every ring slot fits one cache line.
 *
 * The record array is sized once and never reallocates, so a pointer
 * handed out by alloc() stays valid until it is returned to free().
 * Allocation and free are O(1) free-list operations; which record a
 * branch gets is internal bookkeeping that never influences simulated
 * behavior, so recycling order cannot break bit-identical determinism.
 */

#ifndef LBP_CORE_BRANCH_REC_POOL_HH
#define LBP_CORE_BRANCH_REC_POOL_HH

#include <cstdint>
#include <vector>

#include "bpu/tage.hh"
#include "common/logging.hh"
#include "core/dyn_inst.hh"
#include "workload/program.hh"

namespace lbp {

/**
 * The pooled per-branch record. DynInst::br points at the BranchRec
 * base; the rest is read only by the core.
 */
struct TageBranchRec : BranchRec
{
    /** CFG position of the branch (wrong-path navigation seed). */
    CfgCursor fetchCursor{};
    TagePred pred;
    TageCheckpoint ckpt;
};

class BranchRecPool
{
  public:
    /**
     * @param capacity   max simultaneously-live records; callers size
     *                   this to worst-case in-flight branches.
     * @param num_tables the predictor's table count; each record gets
     *                   2*num_tables (indices+tags) + 3*num_tables
     *                   (folded histories) arena slots.
     */
    BranchRecPool(std::uint32_t capacity, unsigned num_tables)
        : recs_(capacity),
          arena_(static_cast<std::size_t>(capacity) * 5 * num_tables, 0)
    {
        lbp_assert(capacity > 0 && num_tables > 0);
        freeList_.reserve(capacity);
        const std::size_t stride = 5u * num_tables;
        for (std::uint32_t i = 0; i < capacity; ++i) {
            std::uint16_t *base = arena_.data() + i * stride;
            recs_[i].pred.indices = base;
            recs_[i].pred.tags = base + num_tables;
            recs_[i].ckpt.folded = base + 2 * num_tables;
            // Descending push so indices are handed out ascending at
            // first — cosmetic only; order is behavior-invisible.
            freeList_.push_back(capacity - 1 - i);
        }
    }

    BranchRecPool(const BranchRecPool &) = delete;
    BranchRecPool &operator=(const BranchRecPool &) = delete;

    /** A free record; its contents are the previous holder's. */
    TageBranchRec *alloc()
    {
        lbp_assert(!freeList_.empty() &&
                   "branch-record pool exhausted: a squash path leaked "
                   "records");
        const std::uint32_t idx = freeList_.back();
        freeList_.pop_back();
        return &recs_[idx];
    }

    void free(TageBranchRec *rec)
    {
        lbp_assert(rec >= recs_.data() &&
                   rec < recs_.data() + recs_.size());
        freeList_.push_back(static_cast<std::uint32_t>(rec - recs_.data()));
    }

  private:
    std::vector<TageBranchRec> recs_;
    std::vector<std::uint16_t> arena_;
    std::vector<std::uint32_t> freeList_;
};

} // namespace lbp

#endif // LBP_CORE_BRANCH_REC_POOL_HH
