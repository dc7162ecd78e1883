/**
 * @file
 * The architectural executor: produces the true-path dynamic instruction
 * stream of a Program, advancing the behaviour state machines, memory
 * stream counters, and the architectural global branch history.
 *
 * The executor never rolls back: the core's front-end only consumes from
 * it while fetch is on the true path, pauses consumption when fetch
 * diverges down a mispredicted edge, and resumes after the resteer. All
 * wrong-path instruction descriptors come from cfgAdvance() navigation
 * instead (see core/frontend).
 */

#ifndef LBP_WORKLOAD_EXECUTOR_HH
#define LBP_WORKLOAD_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "workload/program.hh"

namespace lbp {

/** Fully-resolved dynamic instruction produced by the executor. */
struct DynInstDesc
{
    Addr pc = 0;
    InstClass cls = InstClass::Alu;
    std::uint8_t dep1 = 0;
    std::uint8_t dep2 = 0;
    int branchId = -1;    ///< static conditional branch id, or -1
    bool taken = false;   ///< actual direction (cond) / true (jump)
    Addr memAddr = invalidAddr;  ///< effective address for Load/Store
};

/**
 * Walks a Program along the architecturally-correct path.
 */
class Executor
{
  public:
    explicit Executor(const Program &prog);

    /** Produce the next true-path instruction and advance state. */
    const DynInstDesc &next();

    /** Position of the *next* instruction next() would return. */
    const CfgCursor &cursor() const { return cursor_; }

    /** Architectural global outcome history (bit 0 = most recent). */
    std::uint64_t globalHist() const { return ctx_.globalHist; }

    /** Instructions produced so far. */
    std::uint64_t instCount() const { return instCount_; }

    const Program &program() const { return prog_; }

  private:
    Addr streamAddr(const StaticInst &si);

    const Program &prog_;
    CfgCursor cursor_;
    std::vector<std::uint64_t> state_;
    std::vector<std::uint64_t> streamPos_;
    GlobalBranchCtx ctx_;
    DynInstDesc desc_;
    std::uint64_t instCount_ = 0;
};

} // namespace lbp

#endif // LBP_WORKLOAD_EXECUTOR_HH
