/**
 * @file
 * Structured CFG construction: segments (straight code, loops, diamonds)
 * composed into a Program wrapped in an infinite outer loop.
 */

#ifndef LBP_WORKLOAD_BUILDER_HH
#define LBP_WORKLOAD_BUILDER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/program.hh"

namespace lbp {

/**
 * A segment tree node. Segments are built bottom-up by the workload
 * generator and lowered to basic blocks by ProgramBuilder::build().
 */
struct Seg
{
    enum class Kind { Straight, Loop, Diamond };

    Kind kind = Kind::Straight;
    unsigned numInstrs = 0;           ///< Straight: filler length
    BehaviorPtr behavior;             ///< Loop/Diamond: branch behaviour
    bool continueOnTaken = true;      ///< Loop: which edge stays in loop
    std::vector<Seg> body;            ///< Loop body / Diamond then-arm
    std::vector<Seg> elseBody;        ///< Diamond else-arm

    static Seg straight(unsigned n);
    static Seg loop(BehaviorPtr b, bool continue_on_taken,
                    std::vector<Seg> body);
    static Seg diamond(BehaviorPtr b, std::vector<Seg> then_arm,
                       std::vector<Seg> else_arm);
};

/**
 * Lowers a segment tree into a validated Program.
 */
class ProgramBuilder
{
  public:
    /** Instruction-mix knobs for filler instruction synthesis. */
    struct Mix
    {
        double loadFrac = 0.22;
        double storeFrac = 0.10;
        double fpFrac = 0.05;
        double mulFrac = 0.03;
        unsigned depDistMax = 14; ///< max producer distance
        double depNoneFrac = 0.45; ///< fraction of instrs with no deps
    };

    ProgramBuilder(std::string name, std::string category,
                   std::uint64_t seed);

    void setMix(const Mix &mix) { mix_ = mix; }

    /** Register a memory stream; returns its index. */
    unsigned addStream(const MemStream &ms);

    /**
     * Lower the top-level segment list into a Program. The sequence is
     * wrapped in an infinite loop (unconditional back-jump) so execution
     * never runs off the end.
     */
    Program build(std::vector<Seg> top_level);

  private:
    std::uint32_t newBlock();
    void appendInst(std::uint32_t block_idx, const StaticInst &si);
    std::uint32_t emitSeq(std::vector<Seg> &segs, std::uint32_t exit_to);
    std::uint32_t emitSeg(Seg &seg, std::uint32_t exit_to);
    void fillBody(std::uint32_t block_idx, unsigned n_instrs);
    int addBranch(std::uint32_t block_idx, BehaviorPtr behavior);
    void assignAddresses();

    std::string name_;
    std::string category_;
    std::uint64_t seed_;
    Mix mix_;
    Program prog_;
    unsigned fillCounter_ = 0;
};

} // namespace lbp

#endif // LBP_WORKLOAD_BUILDER_HH
