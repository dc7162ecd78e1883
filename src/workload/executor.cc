#include "workload/executor.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace lbp {

Executor::Executor(const Program &prog)
    : prog_(prog), state_(prog.totalStateWords, 0),
      streamPos_(prog.streams.size(), 0)
{
    lbp_assert(!prog.blocks.empty());
    for (const auto &br : prog.branches)
        br.behavior->reset(state_.data() + br.stateOffset);
}

Addr
Executor::streamAddr(const StaticInst &si)
{
    const MemStream &ms = prog_.streams[si.stream];
    const std::uint64_t k = streamPos_[si.stream]++;
    // footprint is asserted power-of-two at build time, so the wrap is a
    // mask — the % spelling costs a hardware divide per memory access.
    const std::uint64_t wrap = ms.footprint - 1;
    std::uint64_t offset;
    if (ms.randomized)
        offset = splitmix64(k ^ ms.seed) & wrap;
    else
        offset = (k * ms.stride) & wrap;
    return ms.base + (offset & ~static_cast<std::uint64_t>(7));
}

const DynInstDesc &
Executor::next()
{
    const StaticInst &si = cfgInst(prog_, cursor_);
    const BasicBlock &bb = prog_.blocks[cursor_.block];

    desc_.pc = si.pc;
    desc_.cls = si.cls;
    desc_.dep1 = si.dep1;
    desc_.dep2 = si.dep2;
    desc_.branchId = -1;
    desc_.taken = false;
    desc_.memAddr = invalidAddr;

    bool advance_taken = false;
    if (si.cls == InstClass::CondBranch) {
        lbp_assert(cfgAtTerminator(prog_, cursor_));
        const StaticBranch &br = prog_.branches[bb.branchId];
        const bool taken =
            br.behavior->next(state_.data() + br.stateOffset, ctx_);
        desc_.branchId = bb.branchId;
        desc_.taken = taken;
        advance_taken = taken;
        ctx_.globalHist = (ctx_.globalHist << 1) | (taken ? 1 : 0);
    } else if (si.cls == InstClass::Jump) {
        desc_.taken = true;
        advance_taken = true;
    } else if (si.cls == InstClass::Load || si.cls == InstClass::Store) {
        desc_.memAddr = streamAddr(si);
    }

    cfgAdvance(prog_, cursor_, advance_taken);
    ++instCount_;
    return desc_;
}

} // namespace lbp
