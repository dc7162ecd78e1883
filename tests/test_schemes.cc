/**
 * @file
 * Hand-driven scenario tests for every repair scheme: exact restored
 * states, repair-bit single-write semantics, coalesced self-repair,
 * snapshot eviction, limited-PC payload selection, timing windows, and
 * the multi-stage resteer protocol.
 */

#include <gtest/gtest.h>

#include <deque>

#include "bpu/loop_predictor.hh"
#include "repair/schemes.hh"

using namespace lbp;

namespace {

/** Minimal pipeline stand-in driving a scheme's event hooks. */
class Driver
{
  public:
    explicit Driver(const RepairConfig &cfg)
        : scheme_(makeRepairScheme(cfg))
    {
    }

    RepairScheme &scheme() { return *scheme_; }
    LocalPredictor &lp() { return scheme_->local(); }

    /** Fetch-stage prediction of a conditional branch. */
    DynInst &
    predict(Addr pc, bool tage_dir, bool actual,
            bool wrong_path = false)
    {
        insts_.emplace_back();
        DynInst &di = insts_.back();
        di.br = &recs_.emplace_back();
        di.seq = seq_++;
        di.pc = pc;
        di.cls = InstClass::CondBranch;
        di.wrongPath = wrong_path;
        di.actualDir = actual;
        scheme_->atPredict(di, tage_dir, now_);
        if (!wrong_path)
            scheme_->atTruePathFetch(di);
        return di;
    }

    RepairOutcome
    mispredict(DynInst &di)
    {
        return scheme_->recover(di, now_);
    }

    void retire(DynInst &di) { scheme_->atRetire(di); }
    void advanceTime(Cycle c) { now_ += c; }
    Cycle now() const { return now_; }

    LocalState
    state(Addr pc, bool *present = nullptr)
    {
        bool here = false;
        const LocalState s = lp().readState(pc, &here);
        if (present)
            *present = here;
        return s;
    }

  private:
    std::unique_ptr<RepairScheme> scheme_;
    std::deque<DynInst> insts_;
    std::deque<BranchRec> recs_;  ///< stands in for the core's pool
    InstSeq seq_ = 0;
    Cycle now_ = 100;
};

RepairConfig
config(RepairKind kind, RepairPorts ports = {32, 4, 2},
       bool coalesce = false)
{
    RepairConfig cfg;
    cfg.kind = kind;
    cfg.ports = ports;
    cfg.coalesce = coalesce;
    return cfg;
}

constexpr Addr pcA = 0x400100;
constexpr Addr pcB = 0x400200;
constexpr Addr pcC = 0x400300;

} // namespace

// ---------------------------------------------------------------------
// Forward walk
// ---------------------------------------------------------------------

TEST(ForwardWalk, RestoresPolludedStatesExactly)
{
    Driver d(config(RepairKind::ForwardWalk));
    // Warm both PCs so later instances hit the BHT and checkpoint.
    d.predict(pcA, true, true);
    d.predict(pcB, true, true);
    d.predict(pcA, true, true);                       // A = {2,T}
    DynInst &b = d.predict(pcB, true, false);         // B = {2,T}, wrong
    d.predict(pcA, true, true, /*wrong_path=*/true);  // A = {3,T}
    d.predict(pcA, true, true, /*wrong_path=*/true);  // A = {4,T}

    EXPECT_EQ(LoopState::count(d.state(pcA)), 4);
    d.mispredict(b);

    // A restored to its oldest wrong-path pre-state {3,T}... that
    // instance's pre-state was {2,T}: state after the last good update.
    EXPECT_EQ(d.state(pcA), LoopState::make(2, true));
    // B restored to pre-state {1,T} advanced by the actual not-taken.
    EXPECT_EQ(d.state(pcB), LoopState::make(1, false));
}

TEST(ForwardWalk, RepairBitGivesOneWritePerPc)
{
    Driver d(config(RepairKind::ForwardWalk));
    d.predict(pcA, true, true);
    DynInst &b = d.predict(pcB, true, false);
    d.predict(pcA, true, true, true);
    d.predict(pcA, true, true, true);
    d.predict(pcA, true, true, true);
    const RepairOutcome out = d.mispredict(b);
    // 3 entries walked (the wrong-path A instances; B missed at its
    // own predict and only marks the walk's start)... writes counted
    // must equal distinct PCs written.
    EXPECT_EQ(out.walked, 3u);
    EXPECT_EQ(out.writes, 1u)
        << "three A instances must collapse to one write";
    EXPECT_EQ(d.scheme().stats().writesPerRepair.max(), 1u);
}

TEST(ForwardWalk, PerEntryAvailabilityDuringRepair)
{
    Driver d(config(RepairKind::ForwardWalk, {32, 1, 1}));
    d.predict(pcA, true, true);
    d.predict(pcB, true, true);
    d.predict(pcC, true, true);
    DynInst &b = d.predict(pcB, true, false);
    d.predict(pcA, true, true, true);
    d.predict(pcC, true, true, true);
    d.mispredict(b);
    // With 1 write/cycle and 3 writes (B, A, C), the BHT entries under
    // repair are unavailable until their write lands; untouched PCs
    // stay usable. We can't probe bhtUsable directly, but predictions
    // through atPredict on a fresh PC must not be denied.
    const auto before = d.scheme().stats().deniedPredictions;
    d.predict(0x400999, true, true);
    EXPECT_EQ(d.scheme().stats().deniedPredictions, before)
        << "PCs outside the walk range must stay predictable";
    const auto denied_before = d.scheme().stats().deniedPredictions;
    d.predict(pcC, true, true);  // under repair, same cycle
    EXPECT_GT(d.scheme().stats().deniedPredictions, denied_before)
        << "an entry awaiting its repair write must be denied";
    d.advanceTime(10);
    const auto denied_after = d.scheme().stats().deniedPredictions;
    d.predict(pcC, true, true);
    EXPECT_EQ(d.scheme().stats().deniedPredictions, denied_after)
        << "after the walk completes everything is usable again";
}

TEST(ForwardWalk, UncheckpointedMispredictIsUnrecovered)
{
    Driver d(config(RepairKind::ForwardWalk, {2, 4, 2}));
    d.predict(pcA, true, true);
    d.predict(pcA, true, true);  // A hits -> entry (queue: 1 used)
    d.predict(pcB, true, true);
    d.predict(pcB, true, true);  // B hits -> entry (queue full)
    DynInst &c = d.predict(pcC, true, false);
    DynInst &c2 = d.predict(pcC, true, false);
    (void)c;
    // c2 hits the BHT but the OBQ is full: no id at all.
    EXPECT_EQ(c2.br->obqId, invalidId);
    EXPECT_FALSE(d.mispredict(c2).covered());
    EXPECT_GE(d.scheme().stats().uncheckpointedMispredicts, 1u);
}

TEST(ForwardWalk, CoalescedSelfRepairUsesCarriedState)
{
    Driver d(config(RepairKind::ForwardWalk, {32, 4, 2},
                    /*coalesce=*/true));
    d.predict(pcA, true, true);            // miss, marker
    d.predict(pcA, true, true);            // entry #1 (pre {1,T})
    d.predict(pcA, true, true);            // entry #2 (pre {2,T})
    DynInst &m = d.predict(pcA, true, false);  // merged into #2
    EXPECT_TRUE(m.br->mergedEntry);
    d.predict(pcA, true, true, true);      // wrong path merges again
    d.mispredict(m);
    // Self-repair from m's carried pre-state {3,T} + actual N.
    EXPECT_EQ(d.state(pcA), LoopState::make(1, false));
}

// ---------------------------------------------------------------------
// Backward walk
// ---------------------------------------------------------------------

TEST(BackwardWalk, FinalStateMatchesForwardWalk)
{
    Driver fwd(config(RepairKind::ForwardWalk));
    Driver bwd(config(RepairKind::BackwardWalk));
    for (Driver *d : {&fwd, &bwd}) {
        d->predict(pcA, true, true);
        d->predict(pcB, true, true);
        d->predict(pcA, true, true);
        DynInst &b = d->predict(pcB, true, false);
        d->predict(pcA, true, true, true);
        d->predict(pcA, true, true, true);
        d->predict(pcB, true, true, true);
        d->mispredict(b);
    }
    EXPECT_EQ(fwd.state(pcA), bwd.state(pcA));
    EXPECT_EQ(fwd.state(pcB), bwd.state(pcB));
}

TEST(BackwardWalk, WalksMoreEntriesThanForward)
{
    Driver fwd(config(RepairKind::ForwardWalk));
    Driver bwd(config(RepairKind::BackwardWalk));
    for (Driver *d : {&fwd, &bwd}) {
        d->predict(pcA, true, true);
        DynInst &b = d->predict(pcB, true, false);
        for (int i = 0; i < 6; ++i)
            d->predict(pcA, true, true, true);
        d->mispredict(b);
    }
    EXPECT_GT(bwd.scheme().stats().writesPerRepair.max(),
              fwd.scheme().stats().writesPerRepair.max())
        << "backward rewrites duplicate PCs, forward writes each once";
}

TEST(BackwardWalk, WholeBhtBlockedDuringRepair)
{
    Driver d(config(RepairKind::BackwardWalk, {32, 1, 1}));
    d.predict(pcA, true, true);
    d.predict(pcA, true, true);
    DynInst &b = d.predict(pcB, true, false);
    d.predict(pcB, true, false);
    for (int i = 0; i < 5; ++i)
        d.predict(pcA, true, true, true);
    d.mispredict(b);
    const auto denied_before = d.scheme().stats().deniedPredictions;
    d.predict(pcC, true, true);  // untouched PC — still blocked
    EXPECT_GT(d.scheme().stats().deniedPredictions, denied_before);
    d.advanceTime(20);
    const auto denied_later = d.scheme().stats().deniedPredictions;
    d.predict(pcC, true, true);
    EXPECT_EQ(d.scheme().stats().deniedPredictions, denied_later);
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

TEST(Snapshot, RestoreRewindsWholeBht)
{
    Driver d(config(RepairKind::Snapshot, {8, 4, 4}));
    d.predict(pcB, true, true);  // warm B so it owns an entry
    d.predict(pcA, true, true);
    d.predict(pcA, true, true);
    DynInst &b = d.predict(pcB, true, false);
    d.predict(pcA, true, true, true);
    d.predict(pcA, true, true, true);
    d.mispredict(b);
    EXPECT_EQ(d.state(pcA), LoopState::make(2, true));
    // B's pre-snapshot state {1,T} advanced by the actual not-taken.
    EXPECT_EQ(d.state(pcB), LoopState::make(1, false));
}

TEST(Snapshot, RestoreDropsEntriesAllocatedAfterSnapshot)
{
    Driver d(config(RepairKind::Snapshot, {8, 4, 4}));
    d.predict(pcA, true, true);
    DynInst &b = d.predict(pcB, true, false);  // B's first sighting
    d.mispredict(b);
    bool present = true;
    d.state(pcB, &present);
    EXPECT_FALSE(present)
        << "the snapshot predates B's allocation, so restore removes "
           "its speculatively-allocated entry";
}

TEST(Snapshot, EvictedSnapshotMeansNoRecovery)
{
    Driver d(config(RepairKind::Snapshot, {2, 4, 4}));
    DynInst &a = d.predict(pcA, true, false);
    d.predict(pcB, true, true);
    d.predict(pcC, true, true);  // a's snapshot evicted (capacity 2)
    EXPECT_FALSE(d.mispredict(a).covered());
    EXPECT_GE(d.scheme().stats().uncheckpointedMispredicts, 1u);
}

// ---------------------------------------------------------------------
// Limited-PC
// ---------------------------------------------------------------------

TEST(LimitedPc, SelfAndRecentNeighbourRepaired)
{
    RepairConfig cfg = config(RepairKind::LimitedPc);
    cfg.limitedM = 2;
    Driver d(cfg);
    d.predict(pcA, true, true);
    d.predict(pcB, true, true);
    d.predict(pcA, true, true);               // A = {2,T}
    DynInst &b = d.predict(pcB, true, false);  // payload: {B, A}
    d.predict(pcA, true, true, true);          // pollution A = {3,T}
    d.predict(pcB, true, true, true);          // pollution B = {3,T}
    const RepairOutcome out = d.mispredict(b);
    ASSERT_EQ(out.repairSet.size(), 2u) << "the declared set is the payload";
    EXPECT_EQ(out.repairSet[0], pcB);
    EXPECT_EQ(out.repairSet[1], pcA);
    EXPECT_EQ(d.state(pcA), LoopState::make(2, true))
        << "the recency slot must cover the hot neighbour";
    EXPECT_EQ(d.state(pcB), LoopState::make(1, false))
        << "the mispredicting branch always repairs itself";
}

TEST(LimitedPc, UnselectedPcStaysPolluted)
{
    RepairConfig cfg = config(RepairKind::LimitedPc);
    cfg.limitedM = 2;
    Driver d(cfg);
    // C is older than the recent window relative to b's fetch.
    d.predict(pcC, true, true);
    d.predict(pcC, true, true);  // C = {2,T}
    d.predict(pcA, true, true);
    d.predict(pcA, true, true);
    DynInst &b = d.predict(pcB, true, false);
    d.predict(pcC, true, true, true);  // pollution C = {3,T}
    d.mispredict(b);
    EXPECT_EQ(d.state(pcC), LoopState::make(3, true))
        << "leave-as-is policy: unrepaired pollution persists";
}

TEST(LimitedPc, PayloadSizeBoundsWrites)
{
    for (unsigned m : {1u, 2u, 4u, 8u, 16u}) {
        RepairConfig cfg = config(RepairKind::LimitedPc);
        cfg.limitedM = m;
        Driver d(cfg);
        for (int i = 0; i < 20; ++i)
            d.predict(0x400000 + 8 * i, true, true);
        for (int i = 0; i < 20; ++i)
            d.predict(0x400000 + 8 * i, true, true);
        DynInst &b = d.predict(pcB, true, false);
        d.mispredict(b);
        EXPECT_LE(d.scheme().stats().writesPerRepair.max(), m);
    }
}

TEST(LimitedPc, DeterministicRepairLatency)
{
    RepairConfig cfg = config(RepairKind::LimitedPc, {32, 0, 2});
    cfg.limitedM = 4;
    Driver d(cfg);
    for (int i = 0; i < 8; ++i)
        d.predict(0x400000 + 8 * i, true, true);
    for (int i = 0; i < 8; ++i)
        d.predict(0x400000 + 8 * i, true, true);
    DynInst &b = d.predict(pcB, true, false);
    d.predict(pcB, true, true);
    DynInst &b2 = d.predict(pcB, true, false);
    d.mispredict(b);
    d.mispredict(b2);
    // ceil(4 writes / 2 ports) = 2 cycles, always.
    EXPECT_EQ(d.scheme().stats().repairCycles.min(), 2u);
    EXPECT_EQ(d.scheme().stats().repairCycles.max(), 2u);
}

// ---------------------------------------------------------------------
// Perfect repair
// ---------------------------------------------------------------------

TEST(Perfect, RestoreMatchesArchitecturalState)
{
    Driver d(config(RepairKind::Perfect));
    // Mispredicted path: predicted taken, actual alternating.
    d.predict(pcA, true, true);
    d.predict(pcA, true, true);
    DynInst &b = d.predict(pcB, true, false);
    // Heavy wrong-path pollution of both PCs.
    for (int i = 0; i < 10; ++i)
        d.predict(pcA, true, true, true);
    d.mispredict(b);
    EXPECT_EQ(d.state(pcA), LoopState::make(2, true));
    EXPECT_EQ(d.state(pcB), LoopState::make(1, false));
}

TEST(Perfect, RepairIsInstant)
{
    Driver d(config(RepairKind::Perfect));
    d.predict(pcA, true, true);
    DynInst &b = d.predict(pcB, true, false);
    d.mispredict(b);
    const auto denied = d.scheme().stats().deniedPredictions;
    d.predict(pcA, true, true);
    EXPECT_EQ(d.scheme().stats().deniedPredictions, denied);
    EXPECT_EQ(d.scheme().stats().repairCycles.max(), 0u);
}

// ---------------------------------------------------------------------
// Retire update / no repair
// ---------------------------------------------------------------------

TEST(RetireUpdate, BhtOnlyWrittenAtRetire)
{
    Driver d(config(RepairKind::RetireUpdate));
    DynInst &a = d.predict(pcA, true, true);
    bool present = true;
    d.state(pcA, &present);
    EXPECT_FALSE(present) << "no speculative update at predict";
    d.retire(a);
    d.state(pcA, &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(LoopState::count(d.state(pcA)), 1);
}

TEST(NoRepair, PollutionPersistsThroughMispredicts)
{
    Driver d(config(RepairKind::NoRepair));
    d.predict(pcA, true, true);
    DynInst &b = d.predict(pcB, true, false);
    d.predict(pcA, true, true, true);
    d.predict(pcA, true, true, true);
    d.mispredict(b);
    EXPECT_EQ(d.state(pcA), LoopState::make(3, true))
        << "no-repair leaves the wrong-path updates in place";
}

// ---------------------------------------------------------------------
// Future file (section 2.6)
// ---------------------------------------------------------------------

TEST(FutureFile, ReadsSpeculativeStateFromQueue)
{
    Driver d(config(RepairKind::FutureFile));
    // Three speculative instances of A; the architectural BHT is only
    // written at retirement, so the queue is the sole source of the
    // running count.
    d.predict(pcA, true, true);
    d.predict(pcA, true, true);
    DynInst &a3 = d.predict(pcA, true, true);
    EXPECT_EQ(a3.br->local.preState, LoopState::make(2, true))
        << "third instance must see the two queued updates";
    bool present = true;
    d.state(pcA, &present);
    EXPECT_FALSE(present) << "architectural BHT untouched pre-retire";
}

TEST(FutureFile, MispredictIsTailRevert)
{
    Driver d(config(RepairKind::FutureFile));
    d.predict(pcA, true, true);
    DynInst &b = d.predict(pcB, true, false);
    d.predict(pcA, true, true, true);
    d.predict(pcA, true, true, true);
    d.mispredict(b);
    // Next A instance must see the pre-pollution count.
    DynInst &a = d.predict(pcA, true, true);
    EXPECT_EQ(a.br->local.preState, LoopState::make(1, true));
    EXPECT_EQ(d.scheme().stats().repairCycles.max(), 0u)
        << "future-file repair is O(1)";
}

TEST(FutureFile, WindowLimitsVisibility)
{
    RepairConfig cfg = config(RepairKind::FutureFile, {64, 4, 2});
    cfg.ffWindow = 2;
    Driver d(cfg);
    d.predict(pcA, true, true);
    d.predict(pcB, true, true);
    d.predict(pcC, true, true);
    // A's entry is now 3 deep: beyond the 2-entry associative window,
    // and not yet retired into the BHT.
    DynInst &a = d.predict(pcA, true, true);
    EXPECT_FALSE(a.br->local.bhtHit)
        << "state deeper than the search window reads as unknown";
}

TEST(FutureFile, RetireDrainsIntoArchitecturalBht)
{
    Driver d(config(RepairKind::FutureFile));
    DynInst &a = d.predict(pcA, true, true);
    d.retire(a);
    bool present = false;
    const LocalState s = d.state(pcA, &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(s, LoopState::make(1, true));
}

// ---------------------------------------------------------------------
// Multi-stage (split BHT)
// ---------------------------------------------------------------------

namespace {

/**
 * Drive a full event cycle through a MultiStage scheme, emulating what
 * the core does: a branch whose final prediction is wrong flushes and
 * repairs (otherwise the defer counter would desynchronize forever,
 * which is exactly the pathology repair exists to prevent).
 */
void
msCycle(Driver &d, MultiStageScheme &ms, Addr pc, bool tage_dir,
        bool actual)
{
    DynInst &di = d.predict(pc, tage_dir, actual);
    const auto out = ms.atAlloc(di, d.now());
    if (out.resteer)
        di.br->finalPred = out.dir;
    if (di.br->finalPred != actual)
        d.mispredict(di);
    ms.atRetire(di);
    d.advanceTime(4);
}

} // namespace

TEST(MultiStage, DeferOverrideRequestsResteer)
{
    RepairConfig cfg = config(RepairKind::MultiStage, {32, 4, 4});
    Driver d(cfg);
    auto &ms = dynamic_cast<MultiStageScheme &>(d.scheme());

    // Train a trip-5 loop through both stages until confident.
    for (int rep = 0; rep < 12; ++rep)
        for (int i = 0; i < 5; ++i)
            msCycle(d, ms, pcA, /*tage says continue*/ true,
                    /*actual*/ i + 1 < 5);

    // Kill the fetch-stage copy so only BHT-Defer can catch the exit.
    // Walk to the exit point first: 4 continues.
    for (int i = 0; i < 4; ++i)
        msCycle(d, ms, pcA, true, true);
    ms.bhtTage().invalidateEntry(pcA);
    DynInst &exit_br = d.predict(pcA, /*tage*/ true, /*actual*/ false);
    EXPECT_FALSE(exit_br.br->usedLoop)
        << "fetch stage must have no override after invalidation";
    const auto out = ms.atAlloc(exit_br, d.now());
    EXPECT_TRUE(out.resteer) << "BHT-Defer must catch the exit";
    EXPECT_FALSE(out.dir);
    EXPECT_TRUE(exit_br.br->earlyResteered);
    ms.atRetire(exit_br);
}

TEST(MultiStage, RepairCopiesDeferIntoFetchTable)
{
    RepairConfig cfg = config(RepairKind::MultiStage, {32, 4, 4});
    Driver d(cfg);
    auto &ms = dynamic_cast<MultiStageScheme &>(d.scheme());

    // Seed defer with checkpointed state for pcA.
    for (int i = 0; i < 3; ++i) {
        DynInst &di = d.predict(pcA, true, true);
        ms.atAlloc(di, d.now());
    }
    DynInst &b = d.predict(pcB, true, false);
    ms.atAlloc(b, d.now());
    // Wrong-path instance pollutes both tables.
    DynInst &wp = d.predict(pcA, true, true, true);
    ms.atAlloc(wp, d.now());

    d.mispredict(b);

    bool present = false;
    const LocalState defer_state =
        ms.local().readState(pcA, &present);
    ASSERT_TRUE(present);
    EXPECT_EQ(LoopState::count(defer_state), 3)
        << "defer walked back to its pre-wrong-path state";
    const LocalState tage_state =
        ms.bhtTage().readState(pcA, &present);
    ASSERT_TRUE(present);
    EXPECT_EQ(tage_state, defer_state)
        << "repaired PCs must be copied into BHT-TAGE";
}

// ---------------------------------------------------------------------
// Cross-scheme invariants
// ---------------------------------------------------------------------

class AllSchemes : public ::testing::TestWithParam<RepairKind>
{
};

TEST_P(AllSchemes, SurvivesRandomEventSoup)
{
    RepairConfig cfg = config(GetParam(), {16, 2, 2});
    cfg.limitedM = 2;
    Driver d(cfg);
    std::uint64_t rng = 12345;
    std::deque<DynInst *> inflight;
    for (int i = 0; i < 3000; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const Addr pc = 0x400000 + 8 * ((rng >> 13) % 24);
        const bool tdir = (rng >> 20) & 1;
        const bool actual = (rng >> 21) & 1;
        const bool wrong = ((rng >> 22) & 7) == 0;
        DynInst &di = d.predict(pc, tdir, actual, wrong);
        if (!wrong)
            inflight.push_back(&di);
        if (((rng >> 25) & 15) == 0 && !inflight.empty()) {
            DynInst *victim = inflight.back();
            d.mispredict(*victim);
            inflight.pop_back();
        }
        if (((rng >> 29) & 3) == 0 && !inflight.empty()) {
            d.retire(*inflight.front());
            inflight.pop_front();
        }
        if ((i & 63) == 0)
            d.advanceTime(1 + ((rng >> 33) & 7));
    }
    SUCCEED() << "no assertion failures across the event soup";
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllSchemes,
    ::testing::Values(RepairKind::Perfect, RepairKind::NoRepair,
                      RepairKind::RetireUpdate,
                      RepairKind::BackwardWalk, RepairKind::Snapshot,
                      RepairKind::ForwardWalk, RepairKind::LimitedPc,
                      RepairKind::FutureFile),
    [](const auto &info) {
        return std::string(repairKindName(info.param)) == "no-repair"
                   ? std::string("NoRepair")
                   : [&] {
                         std::string n = repairKindName(info.param);
                         for (auto &c : n)
                             if (c == '-')
                                 c = '_';
                         return n;
                     }();
    });
