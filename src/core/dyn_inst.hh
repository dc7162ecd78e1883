/**
 * @file
 * The in-flight dynamic instruction record shared between the core
 * pipeline and the repair layer.
 *
 * Conditional branches carry the "baggage" the paper describes: the
 * pre-update TAGE global-state checkpoint (GHIST/PHIST/folded histories
 * — O(1) restore, section 2.3.1), the pre-update local BHT state (the
 * 11-bit counter of section 3.1), an OBQ entry id, and scheme-specific
 * slots (snapshot id, limited-PC payload index).
 *
 * None of it is inline. A DynInst holds only what every pipeline stage
 * reads and fits one 64-byte cache line; a conditional branch's state
 * lives in a record of the core's BranchRecPool that DynInst::br points
 * at, so the ~95% of fetched instructions that are not conditional
 * branches never write or read branch state.
 */

#ifndef LBP_CORE_DYN_INST_HH
#define LBP_CORE_DYN_INST_HH

#include <cstdint>

#include "bpu/predictor.hh"
#include "common/types.hh"

namespace lbp {

/**
 * Branch-prediction state carried by an in-flight conditional branch:
 * what the repair schemes and the auditor read and write. The core
 * keeps it in its BranchRecPool beside the TAGE baggage only the
 * core's fetch/retire/flush paths touch.
 */
struct BranchRec
{
    LocalPred local;        ///< local predictor lookup at fetch (or alloc)

    bool finalPred = false; ///< pipeline's current direction for fetch
    bool tageDir = false;
    bool usedLoop = false;  ///< local override applied
    bool loopDir = false;
    bool earlyResteered = false;  ///< multi-stage alloc-time override fired

    // Repair metadata.
    std::uint64_t obqId = invalidId;
    bool checkpointed = false;
    bool mergedEntry = false;     ///< shares a coalesced OBQ entry
    bool specUpdated = false;     ///< speculative BHT update was applied
    std::uint64_t snapId = invalidId;
    std::uint64_t limitedSlot = invalidId;
};

/** One in-flight instruction. Stored by value in bounded rings. */
struct DynInst
{
    InstSeq seq = invalidSeq;
    Addr pc = 0;
    InstClass cls = InstClass::Alu;
    std::uint8_t dep1 = 0;
    std::uint8_t dep2 = 0;
    bool wrongPath = false;
    bool actualDir = false;     ///< architectural direction (true path)
    bool mispredicted = false;  ///< fetch-time final pred != actual
    Addr memAddr = invalidAddr;

    /** Position in the true-path dynamic stream (dependency naming). */
    std::uint64_t dynIdx = 0;

    Cycle fetchCycle = 0;
    Cycle doneCycle = 0;

    /** Branch state; non-null only while a conditional branch holds a
     *  record (from fetch until retire or squash). */
    BranchRec *br = nullptr;

    bool isCond() const { return cls == InstClass::CondBranch; }
};

// One cache line per ring slot. Deliberately no alignas(64): it makes
// every ring an over-aligned allocation, which doubled the figure-sweep
// benchmark's peak RSS for no speed-up (EXPERIMENTS.md), whereas an
// unaligned ring only lets some slots straddle two lines.
static_assert(sizeof(DynInst) <= 64,
              "DynInst must fit one cache line; branch-only state "
              "belongs in BranchRec");

} // namespace lbp

#endif // LBP_CORE_DYN_INST_HH
