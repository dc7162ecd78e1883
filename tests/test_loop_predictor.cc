/**
 * @file
 * Tests for the CBPw-Loop predictor (BHT + PT) and the generic
 * two-level local predictor: state packing, the prediction decision
 * table, confidence dynamics, repair-bit mechanics, snapshot/restore.
 */

#include <gtest/gtest.h>

#include "bpu/local_two_level.hh"
#include "bpu/loop_predictor.hh"

using namespace lbp;

// ---------------------------------------------------------------------
// LoopState packing & state machine
// ---------------------------------------------------------------------

TEST(LoopState, PackUnpackRoundTrip)
{
    const LocalState s = LoopState::make(1234, true);
    EXPECT_EQ(LoopState::count(s), 1234);
    EXPECT_TRUE(LoopState::dir(s));
    EXPECT_TRUE(LoopState::known(s));
    const LocalState u = LoopState::make(7, false, false);
    EXPECT_FALSE(LoopState::known(u));
    EXPECT_FALSE(LoopState::dir(u));
}

TEST(LoopState, AdvanceCountsRuns)
{
    LocalState s = 0;  // unknown
    s = LoopState::advance(s, true);
    EXPECT_EQ(LoopState::count(s), 1);
    EXPECT_TRUE(LoopState::dir(s));
    s = LoopState::advance(s, true);
    s = LoopState::advance(s, true);
    EXPECT_EQ(LoopState::count(s), 3);
    s = LoopState::advance(s, false);  // flip resets the run
    EXPECT_EQ(LoopState::count(s), 1);
    EXPECT_FALSE(LoopState::dir(s));
}

TEST(LoopState, AdvanceSaturatesAtCounterMax)
{
    LocalState s = LoopState::make(LoopState::counterMask, true);
    s = LoopState::advance(s, true);
    EXPECT_EQ(LoopState::count(s), LoopState::counterMask);
}

// ---------------------------------------------------------------------
// statePredict decision table
// ---------------------------------------------------------------------

TEST(LoopPredict, MidRunPredictsContinue)
{
    LoopPatternTable::Entry e{9, 7, true};  // trip 9, sense taken
    bool valid = false;
    EXPECT_TRUE(LoopPredictor::statePredict(LoopState::make(4, true), e,
                                            &valid));
    EXPECT_TRUE(valid);
}

TEST(LoopPredict, ExitAtExactTrip)
{
    LoopPatternTable::Entry e{9, 7, true};
    bool valid = false;
    EXPECT_FALSE(LoopPredictor::statePredict(LoopState::make(9, true),
                                             e, &valid));
    EXPECT_TRUE(valid);
}

TEST(LoopPredict, OvercountPredictsContinueNotExit)
{
    // Polluted counter past the trip: the equality rule keeps
    // predicting the dominant direction instead of cascading early
    // exits (section 3.3 observation d).
    LoopPatternTable::Entry e{9, 7, true};
    bool valid = false;
    EXPECT_TRUE(LoopPredictor::statePredict(LoopState::make(12, true),
                                            e, &valid));
    EXPECT_TRUE(valid);
}

TEST(LoopPredict, AfterFlipPredictsReturnToDominant)
{
    LoopPatternTable::Entry e{9, 7, true};
    bool valid = false;
    EXPECT_TRUE(LoopPredictor::statePredict(LoopState::make(1, false),
                                            e, &valid));
    EXPECT_TRUE(valid);
}

TEST(LoopPredict, LongNonDominantRunIsNotPredictable)
{
    LoopPatternTable::Entry e{9, 7, true};
    bool valid = true;
    LoopPredictor::statePredict(LoopState::make(3, false), e, &valid);
    EXPECT_FALSE(valid);
}

TEST(LoopPredict, UnknownStateIsNotPredictable)
{
    LoopPatternTable::Entry e{9, 7, true};
    bool valid = true;
    LoopPredictor::statePredict(LoopState::make(0, false, false), e,
                                &valid);
    EXPECT_FALSE(valid);
}

// ---------------------------------------------------------------------
// End-to-end functional behaviour
// ---------------------------------------------------------------------

namespace {

/**
 * Feed a perfect (always-correct speculative update) stream for a loop
 * with the given trip count and return the number of wrong computed
 * predictions over the last @p measure occurrences.
 */
unsigned
driveLoop(LoopPredictor &lp, Addr pc, unsigned trip, unsigned reps,
          unsigned measure_from, unsigned *overrides = nullptr)
{
    unsigned wrong = 0;
    unsigned n = 0;
    for (unsigned r = 0; r < reps; ++r) {
        for (unsigned i = 0; i < trip; ++i) {
            const bool actual = i + 1 < trip;
            const LocalPred pred = lp.predict(pc);
            if (n >= measure_from) {
                if (pred.valid) {
                    if (overrides)
                        ++*overrides;
                    if (pred.dir != actual)
                        ++wrong;
                }
            }
            lp.specUpdate(pc, actual);
            lp.retireTrain(pc, actual);
            if (pred.predictable)
                lp.predictionFeedback(pc, pred.dir, actual);
            ++n;
        }
    }
    return wrong;
}

} // namespace

class LoopTrips : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LoopTrips, ConstantLoopBecomesPerfect)
{
    const unsigned trip = GetParam();
    LoopPredictor lp;
    unsigned overrides = 0;
    const unsigned wrong =
        driveLoop(lp, 0x400100, trip, 12, trip * 6, &overrides);
    EXPECT_EQ(wrong, 0u) << "trip " << trip;
    EXPECT_GT(overrides, 0u) << "must become confident";
}

INSTANTIATE_TEST_SUITE_P(Trips, LoopTrips,
                         ::testing::Values(3u, 5u, 9u, 24u, 60u, 200u));

TEST(LoopPredictor, ForwardExitLearned)
{
    // NNN..T shape: dominant not-taken.
    LoopPredictor lp;
    const Addr pc = 0x400200;
    unsigned wrong = 0, total = 0;
    for (unsigned r = 0; r < 15; ++r) {
        for (unsigned i = 0; i < 6; ++i) {
            const bool actual = i + 1 == 6;  // taken only at the end
            const LocalPred pred = lp.predict(pc);
            if (r >= 8 && pred.valid) {
                ++total;
                wrong += pred.dir != actual;
            }
            lp.specUpdate(pc, actual);
            lp.retireTrain(pc, actual);
            if (pred.predictable)
                lp.predictionFeedback(pc, pred.dir, actual);
        }
    }
    EXPECT_EQ(wrong, 0u);
    EXPECT_GT(total, 0u);
}

TEST(LoopPredictor, WrongPredictionDropsConfidence)
{
    LoopPredictor lp;
    const Addr pc = 0x400300;
    driveLoop(lp, pc, 8, 10, 1 << 30);  // train to confidence
    ASSERT_TRUE(lp.predict(pc).valid);
    // Wrong used predictions (simulated feedback) must gate overrides;
    // each costs ptConfPenalty (2) of the 3-bit confidence.
    lp.predictionFeedback(pc, true, false);
    lp.predictionFeedback(pc, true, false);
    lp.predictionFeedback(pc, true, false);
    EXPECT_FALSE(lp.predict(pc).valid)
        << "confidence must fall below threshold";
}

TEST(LoopPredictor, TripChangeRelearned)
{
    LoopPredictor lp;
    const Addr pc = 0x400400;
    driveLoop(lp, pc, 7, 10, 1 << 30);
    // Behaviour changes to trip 11; after re-training the predictor
    // must be wrong-free again.
    const unsigned wrong = driveLoop(lp, pc, 11, 14, 11 * 8);
    EXPECT_EQ(wrong, 0u);
}

// ---------------------------------------------------------------------
// Repair-facing state access
// ---------------------------------------------------------------------

TEST(LoopPredictor, ReadWriteStateRoundTrip)
{
    LoopPredictor lp;
    lp.specUpdate(0x400500, true);
    bool present = false;
    const LocalState s = lp.readState(0x400500, &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(LoopState::count(s), 1);

    lp.writeState(0x400500, LoopState::make(5, true));
    const LocalState s2 = lp.readState(0x400500, &present);
    EXPECT_EQ(LoopState::count(s2), 5);

    // Writes to absent PCs are dropped, never allocated.
    lp.writeState(0x999900, LoopState::make(3, false));
    lp.readState(0x999900, &present);
    EXPECT_FALSE(present);
}

TEST(LoopPredictor, RepairBitsTestAndClear)
{
    LoopPredictor lp;
    lp.specUpdate(0x400600, true);
    lp.specUpdate(0x400604, false);
    lp.setAllRepairBits();
    EXPECT_TRUE(lp.testClearRepairBit(0x400600));
    EXPECT_FALSE(lp.testClearRepairBit(0x400600))
        << "second touch must see a cleared bit";
    EXPECT_TRUE(lp.testClearRepairBit(0x400604));
    EXPECT_FALSE(lp.testClearRepairBit(0xdead00))
        << "absent PCs report false";
}

TEST(LoopPredictor, SnapshotRestoreExact)
{
    LoopPredictor lp;
    for (unsigned i = 0; i < 50; ++i)
        lp.specUpdate(0x400000 + 8 * (i % 10), i % 7 != 0);
    std::vector<std::uint64_t> snap;
    lp.snapshotBhtInto(snap);

    for (unsigned i = 0; i < 40; ++i)
        lp.specUpdate(0x500000 + 8 * i, true);  // clobber
    std::vector<std::uint64_t> again;
    lp.snapshotBhtInto(again);
    ASSERT_NE(again, snap);
    lp.restoreBht(snap);

    bool present = false;
    for (unsigned i = 0; i < 10; ++i) {
        const Addr pc = 0x400000 + 8 * i;
        lp.readState(pc, &present);
        EXPECT_TRUE(present) << "entry " << i << " must be restored";
    }
    // Refilling a buffer that holds another snapshot overwrites it all.
    lp.snapshotBhtInto(again);
    EXPECT_EQ(again, snap);
}

TEST(LoopPredictor, InvalidateRemovesEntry)
{
    LoopPredictor lp;
    lp.specUpdate(0x400700, true);
    bool present = false;
    lp.readState(0x400700, &present);
    ASSERT_TRUE(present);
    lp.invalidateEntry(0x400700);
    lp.readState(0x400700, &present);
    EXPECT_FALSE(present);
}

TEST(LoopPredictor, BhtEvictsLruWithinSet)
{
    LoopConfig cfg;
    cfg.bhtEntries = 8;  // 1 set x 8 ways
    cfg.bhtWays = 8;
    cfg.ptEntries = 8;
    cfg.ptWays = 4;
    LoopPredictor lp(cfg);
    for (unsigned i = 0; i < 9; ++i)
        lp.specUpdate(0x400000 + 4 * i, true);
    bool present = true;
    lp.readState(0x400000, &present);
    EXPECT_FALSE(present) << "oldest entry must be evicted";
    lp.readState(0x400000 + 4 * 8, &present);
    EXPECT_TRUE(present);
}

TEST(LoopPredictor, StorageMatchesTable2)
{
    EXPECT_NEAR(LoopPredictor(LoopConfig::entries256()).storageKB(),
                0.75 + 1.5, 0.8);
    const double kb128 =
        LoopPredictor(LoopConfig::entries128()).storageKB();
    const double kb64 =
        LoopPredictor(LoopConfig::entries64()).storageKB();
    EXPECT_GT(kb128, kb64);
    EXPECT_NEAR(kb128 / kb64, 2.0, 0.1);
}

TEST(LoopPredictor, SharedPtIsShared)
{
    LoopConfig half = LoopConfig::entries64();
    LoopPredictor defer(half);
    LoopPredictor tage_side(half, &defer.pt());

    // Train through the defer side; the tage side must see confidence.
    const Addr pc = 0x400800;
    for (unsigned r = 0; r < 10; ++r) {
        for (unsigned i = 0; i < 6; ++i) {
            const bool actual = i + 1 < 6;
            const LocalPred pred = defer.predict(pc);
            defer.specUpdate(pc, actual);
            tage_side.specUpdate(pc, actual);
            defer.retireTrain(pc, actual);
            if (pred.predictable)
                defer.predictionFeedback(pc, pred.dir, actual);
        }
    }
    EXPECT_TRUE(tage_side.predict(pc).valid)
        << "shared PT confidence must serve both BHTs";
}

// ---------------------------------------------------------------------
// Generic two-level predictor
// ---------------------------------------------------------------------

TEST(TwoLevel, LearnsShortPattern)
{
    LocalTwoLevelPredictor lp;
    const Addr pc = 0x400900;
    const bool pattern[] = {true, true, false};
    unsigned wrong = 0, valid = 0;
    for (unsigned i = 0; i < 600; ++i) {
        const bool actual = pattern[i % 3];
        const LocalPred pred = lp.predict(pc);
        if (i > 300 && pred.valid) {
            ++valid;
            wrong += pred.dir != actual;
        }
        lp.specUpdate(pc, actual);
        lp.retireTrain(pc, actual);
    }
    EXPECT_GT(valid, 200u);
    EXPECT_EQ(wrong, 0u);
}

TEST(TwoLevel, StateIsShiftRegister)
{
    LocalTwoLevelPredictor lp;
    LocalState s = 0;
    s = lp.advanceState(s, true);
    s = lp.advanceState(s, false);
    s = lp.advanceState(s, true);
    EXPECT_EQ(s & 0x7u, 0b101u);
    EXPECT_TRUE((s & LocalTwoLevelPredictor::knownBit) != 0);
}

TEST(TwoLevel, RepairInterfaceParity)
{
    // The repair layer's contract must hold identically.
    LocalTwoLevelPredictor lp;
    lp.specUpdate(0x400a00, true);
    lp.setAllRepairBits();
    EXPECT_TRUE(lp.testClearRepairBit(0x400a00));
    EXPECT_FALSE(lp.testClearRepairBit(0x400a00));
    std::vector<std::uint64_t> snap;
    lp.snapshotBhtInto(snap);
    lp.specUpdate(0x400a00, false);
    std::vector<std::uint64_t> again;
    lp.snapshotBhtInto(again);
    ASSERT_NE(again, snap);
    lp.restoreBht(snap);
    lp.snapshotBhtInto(again);
    EXPECT_EQ(again, snap);
}
