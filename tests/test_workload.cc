/**
 * @file
 * Tests for the workload substrate: branch behaviours, CFG programs,
 * the architectural executor, and the 202-workload suite.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/builder.hh"
#include "workload/executor.hh"
#include "workload/suite.hh"

using namespace lbp;

// ---------------------------------------------------------------------
// Behaviours
// ---------------------------------------------------------------------

namespace {

std::vector<bool>
drive(BranchBehavior &b, unsigned n, std::uint64_t ghist = 0)
{
    std::vector<std::uint64_t> state(b.stateWords(), 0);
    b.reset(state.data());
    GlobalBranchCtx ctx;
    ctx.globalHist = ghist;
    std::vector<bool> out;
    out.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        out.push_back(b.next(state.data(), ctx));
    return out;
}

} // namespace

class LoopPeriod : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LoopPeriod, BackwardLoopShape)
{
    const unsigned period = GetParam();
    LoopExitBehavior b(true, {{period, 1}}, 42);
    const auto seq = drive(b, period * 5);
    // Every block of `period` outcomes is (period-1) taken + 1 not.
    for (unsigned rep = 0; rep < 5; ++rep) {
        for (unsigned i = 0; i < period; ++i) {
            const bool expect_taken = i + 1 < period;
            EXPECT_EQ(seq[rep * period + i], expect_taken)
                << "period " << period << " rep " << rep << " i " << i;
        }
    }
}

TEST_P(LoopPeriod, ForwardExitIsInverted)
{
    const unsigned period = GetParam();
    LoopExitBehavior b(false, {{period, 1}}, 42);
    const auto seq = drive(b, period * 3);
    for (unsigned i = 0; i < seq.size(); ++i)
        EXPECT_EQ(seq[i], (i % period) + 1 == period);
}

INSTANTIATE_TEST_SUITE_P(Periods, LoopPeriod,
                         ::testing::Values(2u, 3u, 5u, 8u, 24u, 100u));

TEST(Behavior, LoopEntropyDrawsBothPeriods)
{
    LoopExitBehavior b(true, {{4, 1}, {7, 1}}, 9);
    const auto seq = drive(b, 600);
    // Measure run lengths between not-takens.
    std::set<unsigned> runs;
    unsigned run = 0;
    for (bool t : seq) {
        if (t) {
            ++run;
        } else {
            runs.insert(run + 1);
            run = 0;
        }
    }
    EXPECT_TRUE(runs.count(4));
    EXPECT_TRUE(runs.count(7));
    EXPECT_EQ(runs.size(), 2u);
}

TEST(Behavior, LoopIsDeterministicAcrossResets)
{
    LoopExitBehavior b(true, {{5, 3}, {9, 1}}, 1234);
    EXPECT_EQ(drive(b, 200), drive(b, 200));
}

TEST(Behavior, PatternRepeatsExactly)
{
    PatternBehavior b(0b0110, 4);
    const auto seq = drive(b, 16);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(seq[i], ((0b0110 >> (i % 4)) & 1) != 0);
}

TEST(Behavior, CorrelatedFollowsParity)
{
    CorrelatedBehavior b(0b101, false, 0, 3);
    std::vector<std::uint64_t> state(1);
    b.reset(state.data());
    GlobalBranchCtx ctx;
    ctx.globalHist = 0b111;
    EXPECT_EQ(b.next(state.data(), ctx),
              (__builtin_popcountll(0b111 & 0b101) & 1) != 0);
    ctx.globalHist = 0b100;
    EXPECT_EQ(b.next(state.data(), ctx), true);
    ctx.globalHist = 0b000;
    EXPECT_EQ(b.next(state.data(), ctx), false);
}

TEST(Behavior, CorrelatedInvertFlips)
{
    CorrelatedBehavior plain(0b11, false, 0, 3);
    CorrelatedBehavior inv(0b11, true, 0, 3);
    std::vector<std::uint64_t> s1(1), s2(1);
    plain.reset(s1.data());
    inv.reset(s2.data());
    GlobalBranchCtx ctx;
    ctx.globalHist = 0b01;
    EXPECT_NE(plain.next(s1.data(), ctx), inv.next(s2.data(), ctx));
}

TEST(Behavior, BiasedRandomMatchesRate)
{
    BiasedRandomBehavior b(250, 77);
    const auto seq = drive(b, 20000);
    unsigned taken = 0;
    for (bool t : seq)
        taken += t;
    EXPECT_NEAR(static_cast<double>(taken) / seq.size(), 0.25, 0.03);
}

// ---------------------------------------------------------------------
// Program / builder
// ---------------------------------------------------------------------

TEST(Program, BuilderProducesValidCfg)
{
    ProgramBuilder b("t", "Test", 1);
    b.addStream({0x1000, 8, 4096, false, 0});
    std::vector<Seg> top;
    top.push_back(Seg::straight(5));
    std::vector<Seg> body;
    body.push_back(Seg::straight(3));
    top.push_back(Seg::loop(
        std::make_unique<LoopExitBehavior>(
            true, std::vector<LoopExitBehavior::PeriodChoice>{{4, 1}},
            2),
        true, std::move(body)));
    const Program p = b.build(std::move(top));  // build() validates
    EXPECT_EQ(p.numCondBranches(), 1u);
    EXPECT_GE(p.blocks.size(), 4u);
}

TEST(Program, AddressesAreUniqueAndOrdered)
{
    const Program p =
        buildWorkload(categoryProfiles()[0], 0, SuiteOptions{}.seed);
    std::set<Addr> pcs;
    Addr last = 0;
    for (std::uint32_t b = 0; b < p.blocks.size(); ++b) {
        for (const auto &si : p.body(b)) {
            EXPECT_TRUE(pcs.insert(si.pc).second)
                << "duplicate pc " << si.pc;
            EXPECT_GT(si.pc, last);
            last = si.pc;
        }
    }
}

TEST(Program, CensusMatchesBranchCount)
{
    const Program p =
        buildWorkload(categoryProfiles()[2], 3, SuiteOptions{}.seed);
    const BranchCensus c = p.census();
    EXPECT_EQ(c.loops + c.forwardExits + c.patterns + c.correlated +
                  c.random,
              p.numCondBranches());
    EXPECT_GT(c.loops + c.forwardExits, 0u);
}

TEST(Program, CfgAdvanceFollowsEdges)
{
    ProgramBuilder b("t", "Test", 1);
    std::vector<Seg> top;
    std::vector<Seg> then_arm, else_arm;
    then_arm.push_back(Seg::straight(2));
    else_arm.push_back(Seg::straight(2));
    top.push_back(Seg::diamond(
        std::make_unique<PatternBehavior>(0b1, 1), std::move(then_arm),
        std::move(else_arm)));
    const Program p = b.build(std::move(top));

    // Find the diamond's branch block and check both successors.
    const std::uint32_t br_block = p.branches[0].blockIdx;
    CfgCursor cur{br_block,
                  static_cast<std::uint32_t>(p.body(br_block).size() - 1)};
    ASSERT_TRUE(cfgAtTerminator(p, cur));
    CfgCursor taken = cur;
    cfgAdvance(p, taken, true);
    EXPECT_EQ(taken.block, p.blocks[br_block].takenTarget);
    CfgCursor fall = cur;
    cfgAdvance(p, fall, false);
    EXPECT_EQ(fall.block, p.blocks[br_block].fallThrough);
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

TEST(Executor, DeterministicStream)
{
    const Program p =
        buildWorkload(categoryProfiles()[4], 1, SuiteOptions{}.seed);
    Executor a(p), b(p);
    for (unsigned i = 0; i < 20000; ++i) {
        const DynInstDesc &da = a.next();
        const DynInstDesc &db = b.next();
        ASSERT_EQ(da.pc, db.pc);
        ASSERT_EQ(da.taken, db.taken);
        ASSERT_EQ(da.memAddr, db.memAddr);
    }
}

TEST(Executor, GlobalHistTracksCondOutcomes)
{
    const Program p =
        buildWorkload(categoryProfiles()[0], 2, SuiteOptions{}.seed);
    Executor e(p);
    std::uint64_t shadow = 0;
    for (unsigned i = 0; i < 5000; ++i) {
        const DynInstDesc &d = e.next();
        if (d.cls == InstClass::CondBranch)
            shadow = (shadow << 1) | (d.taken ? 1 : 0);
        ASSERT_EQ(e.globalHist(), shadow);
    }
}

TEST(Executor, CursorMatchesNextInstruction)
{
    const Program p =
        buildWorkload(categoryProfiles()[1], 0, SuiteOptions{}.seed);
    Executor e(p);
    for (unsigned i = 0; i < 3000; ++i) {
        const CfgCursor cur = e.cursor();
        const Addr expect_pc = cfgInst(p, cur).pc;
        const DynInstDesc &d = e.next();
        ASSERT_EQ(d.pc, expect_pc);
    }
}

TEST(Executor, MemAddrsStayInsideFootprint)
{
    const Program p =
        buildWorkload(categoryProfiles()[0], 1, SuiteOptions{}.seed);
    Executor e(p);
    for (unsigned i = 0; i < 30000; ++i) {
        const DynInstDesc &d = e.next();
        if (d.memAddr == invalidAddr)
            continue;
        bool inside = false;
        for (const MemStream &ms : p.streams) {
            if (d.memAddr >= ms.base &&
                d.memAddr < ms.base + ms.footprint)
                inside = true;
        }
        ASSERT_TRUE(inside) << "addr " << d.memAddr;
    }
}

TEST(Executor, CondBranchesMatchBehaviorReplay)
{
    // The executor's outcomes for each branch must equal a standalone
    // replay of its behaviour state machine.
    const Program p =
        buildWorkload(categoryProfiles()[5], 0, SuiteOptions{}.seed);
    Executor e(p);
    std::vector<std::vector<std::uint64_t>> states;
    for (const auto &br : p.branches) {
        states.emplace_back(br.behavior->stateWords(), 0);
        br.behavior->reset(states.back().data());
    }
    std::uint64_t shadow_hist = 0;
    for (unsigned i = 0; i < 20000; ++i) {
        const DynInstDesc &d = e.next();
        if (d.cls != InstClass::CondBranch)
            continue;
        GlobalBranchCtx ctx;
        ctx.globalHist = shadow_hist;
        const bool expect =
            p.branches[d.branchId].behavior->next(
                states[d.branchId].data(), ctx);
        ASSERT_EQ(d.taken, expect) << "branch " << d.branchId;
        shadow_hist = (shadow_hist << 1) | (d.taken ? 1 : 0);
    }
}

// ---------------------------------------------------------------------
// Suite
// ---------------------------------------------------------------------

TEST(Suite, FullSuiteHas202Workloads)
{
    const auto &profiles = categoryProfiles();
    unsigned total = 0;
    for (const auto &p : profiles)
        total += p.count;
    EXPECT_EQ(total, 202u);
    EXPECT_EQ(profiles.size(), 7u);
}

TEST(Suite, SubsampleKeepsEveryCategory)
{
    SuiteOptions opts;
    opts.maxWorkloads = 21;
    const auto suite = buildSuite(opts);
    EXPECT_EQ(suite.size(), 21u);
    std::set<std::string> cats;
    for (const auto &p : suite)
        cats.insert(p.category);
    EXPECT_EQ(cats.size(), 7u);
}

TEST(Suite, SizeMatchesBuiltSuite)
{
    // Below seven the cap rounds up to one workload per category; above
    // 202 it is the full suite.
    for (const unsigned cap : {0u, 1u, 8u, 21u, 201u, 202u, 500u}) {
        SuiteOptions opts;
        opts.maxWorkloads = cap;
        EXPECT_EQ(suiteSize(opts), buildSuite(opts).size()) << cap;
    }
    SuiteOptions one;
    one.maxWorkloads = 1;
    EXPECT_EQ(suiteSize(one), 7u);
    EXPECT_EQ(suiteSize(), 202u);
}

TEST(Suite, NamedWorkloadsExist)
{
    SuiteOptions opts;
    const auto suite = buildSuite(opts);
    std::set<std::string> names;
    for (const auto &p : suite)
        names.insert(p.name);
    for (const char *n : {"cloud-compression", "tabletmark-email",
                          "sysmark-photoshop", "eembc-dither"})
        EXPECT_TRUE(names.count(n)) << n;
}

TEST(Suite, WorkloadsAreSeedDeterministic)
{
    const Program a =
        buildWorkload(categoryProfiles()[3], 7, SuiteOptions{}.seed);
    const Program b =
        buildWorkload(categoryProfiles()[3], 7, SuiteOptions{}.seed);
    EXPECT_EQ(a.blocks.size(), b.blocks.size());
    EXPECT_EQ(a.numCondBranches(), b.numCondBranches());
    Executor ea(a), eb(b);
    for (unsigned i = 0; i < 5000; ++i)
        ASSERT_EQ(ea.next().pc, eb.next().pc);
}

TEST(Suite, DitherThrashesBht)
{
    const Program p =
        buildWorkload(categoryProfiles()[6], 1, SuiteOptions{}.seed);
    EXPECT_EQ(p.name, "eembc-dither");
    EXPECT_GT(p.numCondBranches(), 128u)
        << "the thrash workload must exceed the 128-entry BHT";
}

namespace {

/** FNV-1a 64 over a stream of integers and strings. */
class StructureDigest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(const std::string &s)
    {
        add(s.size());
        for (const char c : s) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Every structural field of @p p: what a workload is, not how it is
 *  stored. */
void
addProgram(StructureDigest &d, const Program &p)
{
    d.add(p.name);
    d.add(p.category);
    d.add(p.streams.size());
    for (const MemStream &ms : p.streams) {
        d.add(ms.base);
        d.add(ms.stride);
        d.add(ms.footprint);
        d.add(ms.randomized);
        d.add(ms.seed);
    }
    d.add(p.totalStateWords);
    d.add(p.blocks.size());
    for (std::uint32_t b = 0; b < p.blocks.size(); ++b) {
        const BasicBlock &bb = p.blocks[b];
        d.add(p.body(b).size());
        d.add(bb.takenTarget);
        d.add(bb.fallThrough);
        d.add(static_cast<std::uint64_t>(bb.branchId));
        d.add(bb.endsWithJump);
        for (const StaticInst &si : p.body(b)) {
            d.add(si.pc);
            d.add(static_cast<std::uint64_t>(si.cls));
            d.add(si.dep1);
            d.add(si.dep2);
            d.add(si.stream);
        }
    }
    d.add(p.branches.size());
    for (const StaticBranch &br : p.branches) {
        d.add(br.pc);
        d.add(br.blockIdx);
        d.add(br.stateOffset);
        d.add(br.behavior->describe());
    }
}

} // namespace

TEST(Suite, StructureDigestIsPinned)
{
    // suiteKey counts only shapes and the golden-stats fixture runs 7
    // programs, so this pins every instruction of all 202. The constant
    // was computed with the per-block instruction vectors that preceded
    // the flat Program::insts layout: the layout change moved no field.
    const std::vector<Program> suite = buildSuite(SuiteOptions{});
    ASSERT_EQ(suite.size(), 202u);
    StructureDigest d;
    std::size_t insts = 0;
    for (const Program &p : suite) {
        addProgram(d, p);
        insts += p.staticInstCount();
    }
    EXPECT_EQ(insts, 266950u);
    EXPECT_EQ(d.value(), 0x0797e4aee0098d15ull);
}
