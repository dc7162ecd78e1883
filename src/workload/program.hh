/**
 * @file
 * Static program representation: a control-flow graph of basic blocks with
 * attached branch behaviours and memory stream models.
 *
 * Workloads are *programs*, not linear traces. This is deliberate: the
 * paper's subject is what happens to local-predictor state while the
 * front-end runs down mispredicted (wrong) paths, and a CFG gives the
 * wrong path a well-defined instruction stream (follow the other edge),
 * which a recorded trace cannot.
 */

#ifndef LBP_WORKLOAD_PROGRAM_HH
#define LBP_WORKLOAD_PROGRAM_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"
#include "workload/behavior.hh"

namespace lbp {

/** One static instruction slot inside a basic block. */
struct StaticInst
{
    Addr pc = 0;
    InstClass cls = InstClass::Alu;
    /**
     * Producer distances in dynamic instructions (0 = no dependency).
     * Distance d means "depends on the d-th most recent instruction".
     */
    std::uint8_t dep1 = 0;
    std::uint8_t dep2 = 0;
    /** Memory stream index for Load/Store instructions. */
    std::uint8_t stream = 0;
};

/**
 * A basic block: straight-line instructions, optionally terminated by a
 * conditional branch (branchId >= 0) or an unconditional jump.
 *
 * The body is the slice Program::insts[first, first + count); blocks
 * own consecutive slices in block order. When terminated by a
 * conditional branch, the branch is the last instruction of the body.
 * Successors: takenTarget on taken, fallThrough otherwise. A block with
 * no terminator falls through unconditionally.
 */
struct BasicBlock
{
    std::uint32_t first = 0;  ///< index of the body's first instruction
    std::uint32_t count = 0;  ///< body length in instructions
    int branchId = -1;
    bool endsWithJump = false;
    std::uint32_t takenTarget = 0;
    std::uint32_t fallThrough = 0;
};

/** A static conditional branch site. */
struct StaticBranch
{
    Addr pc = 0;
    std::uint32_t blockIdx = 0;
    unsigned stateOffset = 0;  ///< slice start in the executor state vector
    BehaviorPtr behavior;
};

/** A synthetic memory reference stream. */
struct MemStream
{
    Addr base = 0;
    std::uint32_t stride = 8;
    std::uint32_t footprint = 4096;  ///< bytes, power of two
    bool randomized = false;         ///< random offsets within footprint
    std::uint64_t seed = 0;
};

/** Census of branch behaviour kinds, for workload reporting (Table 1). */
struct BranchCensus
{
    unsigned loops = 0;         ///< backward TTT..N exits
    unsigned forwardExits = 0;  ///< forward NNN..T exits
    unsigned patterns = 0;
    unsigned correlated = 0;
    unsigned random = 0;
};

/**
 * A complete synthetic program. Execution starts at block 0 and never
 * terminates (the builder wraps everything in an infinite outer loop), so
 * any instruction budget can be simulated.
 */
class Program
{
  public:
    std::string name;
    std::string category;

    std::vector<BasicBlock> blocks;
    /** Every block's body, in block order (see BasicBlock). */
    std::vector<StaticInst> insts;
    std::vector<StaticBranch> branches;
    std::vector<MemStream> streams;
    unsigned totalStateWords = 0;

    /** Number of conditional branch sites. */
    unsigned numCondBranches() const
    {
        return static_cast<unsigned>(branches.size());
    }

    /** Count behaviour kinds for reporting. */
    BranchCensus census() const;

    /** The body of block @p block. */
    std::span<const StaticInst>
    body(std::uint32_t block) const
    {
        const BasicBlock &bb = blocks[block];
        return {insts.data() + bb.first, bb.count};
    }

    /**
     * Structural validation: every successor index in range, every block
     * non-empty, bodies contiguous in block order, branch back-pointers
     * consistent, state offsets contiguous. Panics on violation (builder
     * bug).
     */
    void validate() const;

    /** Total static instruction count across blocks. */
    std::size_t staticInstCount() const { return insts.size(); }
};

/**
 * Lightweight CFG position used by both the architectural executor and
 * the front-end's wrong-path navigation.
 */
struct CfgCursor
{
    std::uint32_t block = 0;
    std::uint32_t slot = 0;

    bool operator==(const CfgCursor &) const = default;
};

/**
 * Advance @p cur past the instruction it points at.
 *
 * For the block terminator the caller supplies the branch direction
 * (predicted on the wrong path, actual on the true path); for plain
 * instructions the direction argument is ignored.
 */
inline void
cfgAdvance(const Program &prog, CfgCursor &cur, bool taken)
{
    const BasicBlock &bb = prog.blocks[cur.block];
    if (cur.slot + 1 < bb.count) {
        ++cur.slot;
        return;
    }
    // Past the last instruction of the block: follow the terminator.
    if (bb.branchId >= 0)
        cur.block = taken ? bb.takenTarget : bb.fallThrough;
    else if (bb.endsWithJump)
        cur.block = bb.takenTarget;
    else
        cur.block = bb.fallThrough;
    cur.slot = 0;
}

/** The static instruction under the cursor. */
inline const StaticInst &
cfgInst(const Program &prog, const CfgCursor &cur)
{
    return prog.insts[prog.blocks[cur.block].first + cur.slot];
}

/** True when the cursor points at the block's terminating instruction. */
inline bool
cfgAtTerminator(const Program &prog, const CfgCursor &cur)
{
    const BasicBlock &bb = prog.blocks[cur.block];
    return (bb.branchId >= 0 || bb.endsWithJump) &&
           cur.slot + 1 == bb.count;
}

} // namespace lbp

#endif // LBP_WORKLOAD_PROGRAM_HH
