#include "workload/program.hh"

#include <typeinfo>

#include "common/logging.hh"

namespace lbp {

BranchCensus
Program::census() const
{
    BranchCensus c;
    for (const auto &br : branches) {
        const BranchBehavior *b = br.behavior.get();
        if (auto *loop = dynamic_cast<const LoopExitBehavior *>(b)) {
            if (loop->dominantTaken())
                ++c.loops;
            else
                ++c.forwardExits;
        } else if (dynamic_cast<const PatternBehavior *>(b)) {
            ++c.patterns;
        } else if (dynamic_cast<const CorrelatedBehavior *>(b)) {
            ++c.correlated;
        } else {
            ++c.random;
        }
    }
    return c;
}

void
Program::validate() const
{
    lbp_assert(!blocks.empty());
    // Bodies tile insts in block order: each starts where the previous
    // one ended, and together they cover it exactly.
    std::size_t next_first = 0;
    for (std::uint32_t b = 0; b < blocks.size(); ++b) {
        const BasicBlock &bb = blocks[b];
        lbp_assert(bb.first == next_first);
        next_first += bb.count;
        lbp_assert(next_first <= insts.size());
        const auto bb_body = body(b);
        lbp_assert(!bb_body.empty());
        lbp_assert(bb.fallThrough < blocks.size());
        if (bb.branchId >= 0 || bb.endsWithJump)
            lbp_assert(bb.takenTarget < blocks.size());
        lbp_assert(!(bb.branchId >= 0 && bb.endsWithJump));
        if (bb.endsWithJump)
            lbp_assert(bb_body.back().cls == InstClass::Jump);
        for (const auto &si : bb_body) {
            if (si.cls == InstClass::Load || si.cls == InstClass::Store)
                lbp_assert(si.stream < streams.size());
        }
    }
    lbp_assert(next_first == insts.size());

    unsigned expected_offset = 0;
    for (std::size_t i = 0; i < branches.size(); ++i) {
        const StaticBranch &br = branches[i];
        lbp_assert(br.behavior != nullptr);
        lbp_assert(br.blockIdx < blocks.size());
        lbp_assert(blocks[br.blockIdx].branchId == static_cast<int>(i));
        const auto bb_body = body(br.blockIdx);
        lbp_assert(bb_body.back().cls == InstClass::CondBranch);
        lbp_assert(bb_body.back().pc == br.pc);
        lbp_assert(br.stateOffset == expected_offset);
        expected_offset += br.behavior->stateWords();
    }
    lbp_assert(expected_offset == totalStateWords);
}

} // namespace lbp
