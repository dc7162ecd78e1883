#include "workload/builder.hh"

#include <utility>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/set_assoc.hh"

namespace lbp {

Seg
Seg::straight(unsigned n)
{
    Seg s;
    s.kind = Kind::Straight;
    s.numInstrs = n;
    return s;
}

Seg
Seg::loop(BehaviorPtr b, bool continue_on_taken, std::vector<Seg> body)
{
    Seg s;
    s.kind = Kind::Loop;
    s.behavior = std::move(b);
    s.continueOnTaken = continue_on_taken;
    s.body = std::move(body);
    return s;
}

Seg
Seg::diamond(BehaviorPtr b, std::vector<Seg> then_arm,
             std::vector<Seg> else_arm)
{
    Seg s;
    s.kind = Kind::Diamond;
    s.behavior = std::move(b);
    s.body = std::move(then_arm);
    s.elseBody = std::move(else_arm);
    return s;
}

ProgramBuilder::ProgramBuilder(std::string name, std::string category,
                               std::uint64_t seed)
    : name_(std::move(name)), category_(std::move(category)), seed_(seed)
{
    prog_.name = name_;
    prog_.category = category_;
}

unsigned
ProgramBuilder::addStream(const MemStream &ms)
{
    lbp_assert(isPowerOf2(ms.footprint));
    prog_.streams.push_back(ms);
    return static_cast<unsigned>(prog_.streams.size() - 1);
}

std::uint32_t
ProgramBuilder::newBlock()
{
    BasicBlock &bb = prog_.blocks.emplace_back();
    bb.first = static_cast<std::uint32_t>(prog_.insts.size());
    return static_cast<std::uint32_t>(prog_.blocks.size() - 1);
}

void
ProgramBuilder::appendInst(std::uint32_t block_idx, const StaticInst &si)
{
    // Bodies are slices of one array, so only the newest block can grow.
    lbp_assert(block_idx + 1 == prog_.blocks.size());
    prog_.insts.push_back(si);
    ++prog_.blocks[block_idx].count;
}

void
ProgramBuilder::fillBody(std::uint32_t block_idx, unsigned n_instrs)
{
    for (unsigned i = 0; i < n_instrs; ++i) {
        const std::uint64_t h =
            hashCombine(seed_, 0x11e57ull + fillCounter_++);
        StaticInst si;
        const double roll =
            static_cast<double>(h & 0xffff) / 65536.0;
        if (!prog_.streams.empty() && roll < mix_.loadFrac) {
            si.cls = InstClass::Load;
            si.stream = static_cast<std::uint8_t>(
                (h >> 16) % prog_.streams.size());
        } else if (!prog_.streams.empty() &&
                   roll < mix_.loadFrac + mix_.storeFrac) {
            si.cls = InstClass::Store;
            si.stream = static_cast<std::uint8_t>(
                (h >> 16) % prog_.streams.size());
        } else if (roll < mix_.loadFrac + mix_.storeFrac + mix_.fpFrac) {
            si.cls = InstClass::FpOp;
        } else if (roll <
                   mix_.loadFrac + mix_.storeFrac + mix_.fpFrac +
                       mix_.mulFrac) {
            si.cls = InstClass::Mul;
        } else {
            si.cls = InstClass::Alu;
        }
        // Producer distances: a fraction of instructions are independent;
        // the rest depend on one or two recent results.
        const std::uint64_t h2 = splitmix64(h);
        if (static_cast<double>(h2 & 0xffff) / 65536.0 >=
            mix_.depNoneFrac) {
            si.dep1 = static_cast<std::uint8_t>(
                1 + ((h2 >> 16) % mix_.depDistMax));
            if (((h2 >> 40) & 3) == 0) {
                si.dep2 = static_cast<std::uint8_t>(
                    1 + ((h2 >> 24) % mix_.depDistMax));
            }
        }
        appendInst(block_idx, si);
    }
}

int
ProgramBuilder::addBranch(std::uint32_t block_idx, BehaviorPtr behavior)
{
    lbp_assert(behavior != nullptr);
    StaticBranch br;
    br.blockIdx = block_idx;
    br.stateOffset = prog_.totalStateWords;
    prog_.totalStateWords += behavior->stateWords();
    br.behavior = std::move(behavior);
    prog_.branches.push_back(std::move(br));

    // A good fraction of real conditional branches compare a loaded
    // value, so their resolution waits on the memory hierarchy; the
    // rest feed off nearby ALU results.
    const std::uint64_t h =
        hashCombine(seed_, 0xb4a2c0ull + prog_.branches.size());
    if (!prog_.streams.empty() && (h & 0xff) < 0x80) {  // ~50%
        StaticInst feed;
        feed.cls = InstClass::Load;
        feed.stream =
            static_cast<std::uint8_t>((h >> 9) % prog_.streams.size());
        appendInst(block_idx, feed);
        StaticInst term;
        term.cls = InstClass::CondBranch;
        term.dep1 = 1;
        appendInst(block_idx, term);
    } else {
        StaticInst term;
        term.cls = InstClass::CondBranch;
        term.dep1 = static_cast<std::uint8_t>(1 + (h % 3));
        appendInst(block_idx, term);
    }
    prog_.blocks[block_idx].branchId =
        static_cast<int>(prog_.branches.size() - 1);
    return prog_.blocks[block_idx].branchId;
}

std::uint32_t
ProgramBuilder::emitSeq(std::vector<Seg> &segs, std::uint32_t exit_to)
{
    std::uint32_t entry = exit_to;
    for (auto it = segs.rbegin(); it != segs.rend(); ++it)
        entry = emitSeg(*it, entry);
    return entry;
}

std::uint32_t
ProgramBuilder::emitSeg(Seg &seg, std::uint32_t exit_to)
{
    switch (seg.kind) {
      case Seg::Kind::Straight: {
        const std::uint32_t idx = newBlock();
        fillBody(idx, std::max(1u, seg.numInstrs));
        prog_.blocks[idx].fallThrough = exit_to;
        return idx;
      }
      case Seg::Kind::Loop: {
        // Bottom-of-loop branch block; body flows into it, and its
        // "continue" edge re-enters the body.
        const std::uint32_t br_block = newBlock();
        fillBody(br_block, 2);
        addBranch(br_block, std::move(seg.behavior));
        const std::uint32_t body_entry = emitSeq(seg.body, br_block);
        if (seg.continueOnTaken) {
            prog_.blocks[br_block].takenTarget = body_entry;
            prog_.blocks[br_block].fallThrough = exit_to;
        } else {
            prog_.blocks[br_block].takenTarget = exit_to;
            prog_.blocks[br_block].fallThrough = body_entry;
        }
        return body_entry;
      }
      case Seg::Kind::Diamond: {
        const std::uint32_t br_block = newBlock();
        fillBody(br_block, 2);
        addBranch(br_block, std::move(seg.behavior));
        const std::uint32_t then_entry = emitSeq(seg.body, exit_to);
        const std::uint32_t else_entry = emitSeq(seg.elseBody, exit_to);
        prog_.blocks[br_block].takenTarget = then_entry;
        prog_.blocks[br_block].fallThrough = else_entry;
        return br_block;
      }
    }
    lbp_panic("unreachable segment kind");
}

void
ProgramBuilder::assignAddresses()
{
    Addr pc = 0x400000;
    for (const auto &bb : prog_.blocks) {
        for (std::uint32_t i = 0; i < bb.count; ++i) {
            prog_.insts[bb.first + i].pc = pc;
            pc += 4;
        }
        // Leave a gap between blocks so taken targets look like real
        // discontinuities to the BTB and I-cache.
        pc += 4;
    }
    for (auto &br : prog_.branches)
        br.pc = prog_.body(br.blockIdx).back().pc;
}

Program
ProgramBuilder::build(std::vector<Seg> top_level)
{
    lbp_assert(prog_.blocks.empty());

    // Block 0: entry stub the back-jump returns to.
    const std::uint32_t entry_stub = newBlock();
    fillBody(entry_stub, 1);

    // Back-jump block closing the infinite outer loop.
    const std::uint32_t back_jump = newBlock();
    fillBody(back_jump, 1);
    StaticInst jmp;
    jmp.cls = InstClass::Jump;
    appendInst(back_jump, jmp);
    prog_.blocks[back_jump].endsWithJump = true;
    prog_.blocks[back_jump].takenTarget = entry_stub;

    const std::uint32_t seq_entry = emitSeq(top_level, back_jump);
    prog_.blocks[entry_stub].fallThrough = seq_entry;

    assignAddresses();
    prog_.validate();
    return std::move(prog_);
}

} // namespace lbp
