/**
 * @file
 * The speculative-state invariant auditor, tested from both sides:
 * positive (a correct walk scheme runs silent — non-zero checks, zero
 * violations) and negative (injected BHT corruption and a
 * deliberately-broken repair scheme are flagged). The negative tests
 * are the auditor's own acceptance test: a checker that cannot catch a
 * seeded bug is worse than no checker.
 */

#include <gtest/gtest.h>

#include <deque>

#include "bpu/loop_predictor.hh"
#include "repair/schemes.hh"
#include "sim/runner.hh"
#include "verify/auditor.hh"
#include "workload/suite.hh"

using namespace lbp;

namespace {

RepairConfig
walkConfig(RepairKind kind, RepairPorts ports = {32, 4, 2})
{
    RepairConfig cfg;
    cfg.kind = kind;
    cfg.ports = ports;
    cfg.localKind = LocalKind::CbpwLoop;
    cfg.loop = LoopConfig::entries128();
    return cfg;
}

/**
 * Drives a real scheme and the auditor side by side, exactly as
 * OooCore's hooks drive an attached auditor.
 */
class AuditDriver
{
  public:
    explicit AuditDriver(const RepairConfig &cfg)
        : AuditDriver(makeRepairScheme(cfg))
    {
    }

    /** Drive a hand-built (e.g. deliberately broken) scheme. */
    explicit AuditDriver(std::unique_ptr<RepairScheme> scheme)
        : scheme_(std::move(scheme)), auditor_(scheme_->local())
    {
    }

    RepairScheme &scheme() { return *scheme_; }
    LocalPredictor &lp() { return scheme_->local(); }
    SpecStateAuditor &auditor() { return auditor_; }
    const AuditorStats &astats() const { return auditor_.stats(); }

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
        // MultiStage reads/writes the audited table at the defer/alloc
        // stage; record afterwards, as OooCore does.
        if (scheme_->auditsAtAlloc())
            scheme_->atAlloc(di, now_);
        auditor_.onPredict(di);
        if (!wrong_path)
            scheme_->atTruePathFetch(di);
        return di;
    }

    RepairOutcome
    mispredict(DynInst &di)
    {
        const RepairOutcome out = scheme_->recover(di, now_);
        auditor_.onRecovery(di, scheme_->local(), out);
        return out;
    }

    void
    retire(DynInst &di)
    {
        auditor_.onRetire(di);
        scheme_->atRetire(di);
    }

    void advanceTime(Cycle c) { now_ += c; }

  private:
    std::unique_ptr<RepairScheme> scheme_;
    SpecStateAuditor auditor_;
    std::deque<DynInst> insts_;
    std::deque<BranchRec> recs_;  ///< stands in for the core's pool
    InstSeq seq_ = 0;
    Cycle now_ = 100;
};

constexpr Addr pcA = 0x1000;
constexpr Addr pcB = 0x2000;

} // namespace

TEST(Auditor, AuditableKinds)
{
    EXPECT_TRUE(SpecStateAuditor::auditableKind(RepairKind::BackwardWalk));
    EXPECT_TRUE(SpecStateAuditor::auditableKind(RepairKind::ForwardWalk));
    EXPECT_TRUE(SpecStateAuditor::auditableKind(RepairKind::Snapshot));
    EXPECT_TRUE(SpecStateAuditor::auditableKind(RepairKind::LimitedPc));
    EXPECT_TRUE(SpecStateAuditor::auditableKind(RepairKind::MultiStage));
    EXPECT_FALSE(SpecStateAuditor::auditableKind(RepairKind::Perfect));
    EXPECT_FALSE(SpecStateAuditor::auditableKind(RepairKind::NoRepair));
    EXPECT_FALSE(SpecStateAuditor::auditableKind(RepairKind::RetireUpdate));
    EXPECT_FALSE(SpecStateAuditor::auditableKind(RepairKind::FutureFile));
}

TEST(Auditor, CleanRunIsSilentWithNonZeroChecks)
{
    AuditDriver d(walkConfig(RepairKind::BackwardWalk));

    // A few true-path iterations of two PCs, each retired in order.
    std::deque<DynInst *> inflight;
    for (int i = 0; i < 6; ++i) {
        inflight.push_back(&d.predict(pcA, true, true));
        inflight.push_back(&d.predict(pcB, false, false));
        d.advanceTime(1);
    }
    while (!inflight.empty()) {
        d.retire(*inflight.front());
        inflight.pop_front();
    }
    EXPECT_GT(d.astats().retireChecks, 0u);
    EXPECT_EQ(d.astats().violations(), 0u);
}

TEST(Auditor, CorrectRepairPassesRecoveryCheck)
{
    AuditDriver d(walkConfig(RepairKind::BackwardWalk));

    // Warm the BHT on the true path.
    DynInst &warmA = d.predict(pcA, true, true);
    DynInst &warmB = d.predict(pcB, true, true);
    d.advanceTime(1);

    // A mispredicted branch followed by wrong-path pollution of both
    // PCs, then recovery: the walk must restore both and the auditor
    // must verify it did (checks > 0, violations == 0).
    DynInst &cause = d.predict(pcA, true, false);
    d.predict(pcB, true, true, /*wrong_path=*/true);
    d.predict(pcA, true, true, /*wrong_path=*/true);
    d.advanceTime(5);
    d.mispredict(cause);

    EXPECT_GT(d.astats().recoveryChecks, 0u);
    EXPECT_EQ(d.astats().recoveryViolations, 0u);

    d.retire(warmA);
    d.retire(warmB);
    d.retire(cause);
    EXPECT_EQ(d.astats().violations(), 0u);
}

TEST(Auditor, InjectedCorruptionAtRecoveryIsFlagged)
{
    AuditDriver d(walkConfig(RepairKind::BackwardWalk));

    DynInst &warmA = d.predict(pcA, true, true);
    DynInst &warmB = d.predict(pcB, true, true);
    d.advanceTime(1);

    DynInst &cause = d.predict(pcA, true, false);
    d.predict(pcB, true, true, /*wrong_path=*/true);
    d.advanceTime(5);

    // Simulate a buggy repair: run the real walk, then corrupt the
    // repaired entry before the auditor's cross-check.
    const RepairOutcome out = d.scheme().recover(cause, 105);
    d.lp().writeState(pcB, LoopState::make(999, true));
    d.auditor().onRecovery(cause, d.lp(), out);

    EXPECT_GE(d.astats().recoveryViolations, 1u);

    d.retire(warmA);
    d.retire(warmB);
    d.retire(cause);
}

TEST(Auditor, InjectedCorruptionAtRetireIsFlagged)
{
    AuditDriver d(walkConfig(RepairKind::BackwardWalk));

    std::deque<DynInst *> inflight;
    for (int i = 0; i < 4; ++i)
        inflight.push_back(&d.predict(pcA, true, true));

    // Corrupt the live BHT entry mid-flight (no recovery event to
    // declare it): the next prediction observes the corrupt state and
    // the golden chain catches the discontinuity at its retire.
    d.lp().writeState(pcA, LoopState::make(777, false));
    inflight.push_back(&d.predict(pcA, true, true));

    while (!inflight.empty()) {
        d.retire(*inflight.front());
        inflight.pop_front();
    }
    EXPECT_GE(d.astats().retireViolations, 1u);
}

TEST(Auditor, ObqOverflowIsDeclaredNotFlagged)
{
    // Two OBQ entries: the third checkpointed branch overflows. The
    // scheme declares the gap; the auditor must count it as uncovered
    // or skipped rather than as a violation.
    AuditDriver d(walkConfig(RepairKind::BackwardWalk, {2, 4, 2}));

    DynInst &warmA = d.predict(pcA, true, true);
    DynInst &warmB = d.predict(pcB, true, true);
    d.advanceTime(1);

    DynInst &cause = d.predict(pcA, true, false);
    d.predict(pcB, true, true, /*wrong_path=*/true);
    d.predict(pcA, true, true, /*wrong_path=*/true);
    d.predict(pcB, true, false, /*wrong_path=*/true);
    d.advanceTime(5);
    d.mispredict(cause);

    EXPECT_EQ(d.astats().violations(), 0u);

    d.retire(warmA);
    d.retire(warmB);
    d.retire(cause);
    EXPECT_EQ(d.astats().violations(), 0u);
}

TEST(Auditor, LimitedPcCleanRecovery)
{
    RepairConfig cfg = walkConfig(RepairKind::LimitedPc);
    cfg.limitedM = 8;
    AuditDriver d(cfg);

    DynInst &warmA = d.predict(pcA, true, true);
    DynInst &warmB = d.predict(pcB, true, true);
    d.advanceTime(1);

    // Both polluted PCs land inside the M=8 payload (the cause itself
    // plus the recently-updated neighbour), so the repair is total and
    // the auditor checks it exactly.
    DynInst &cause = d.predict(pcA, true, false);
    d.predict(pcB, true, true, /*wrong_path=*/true);
    d.predict(pcA, true, true, /*wrong_path=*/true);
    d.advanceTime(5);
    d.mispredict(cause);

    EXPECT_GT(d.astats().recoveryChecks, 0u);
    EXPECT_EQ(d.astats().violations(), 0u);

    d.retire(warmA);
    d.retire(warmB);
    d.retire(cause);
    EXPECT_EQ(d.astats().violations(), 0u);
}

TEST(Auditor, LimitedPcOutOfSetIsCountedNotAsserted)
{
    // M=1: the payload holds only the mispredicting PC, so wrong-path
    // pollution of pcB is *designed* divergence (section 3.3). The
    // auditor must count it (skipped, chain desync) — never assert.
    RepairConfig cfg = walkConfig(RepairKind::LimitedPc);
    cfg.limitedM = 1;
    AuditDriver d(cfg);

    DynInst &warmA = d.predict(pcA, true, true);
    DynInst &warmB = d.predict(pcB, true, true);
    d.advanceTime(1);

    DynInst &cause = d.predict(pcA, true, false);
    d.predict(pcB, true, true, /*wrong_path=*/true);
    d.advanceTime(5);
    const std::uint64_t skipped_before = d.astats().skipped;
    const RepairOutcome out = d.mispredict(cause);

    ASSERT_EQ(out.repairSet.size(), 1u);
    EXPECT_EQ(out.repairSet[0], pcA);
    EXPECT_GT(d.astats().skipped, skipped_before)
        << "out-of-set pollution must be counted as a declared gap";
    EXPECT_GT(d.astats().recoveryChecks, 0u)
        << "the mispredicting PC itself is still checked";
    EXPECT_EQ(d.astats().violations(), 0u);

    d.retire(warmA);
    d.retire(warmB);
    d.retire(cause);
    EXPECT_EQ(d.astats().violations(), 0u);
}

TEST(Auditor, MultiStageCleanRecovery)
{
    AuditDriver d(walkConfig(RepairKind::MultiStage));
    ASSERT_TRUE(d.scheme().auditsAtAlloc());

    DynInst &warmA = d.predict(pcA, true, true);
    DynInst &warmB = d.predict(pcB, true, true);
    d.advanceTime(1);

    DynInst &cause = d.predict(pcA, true, false);
    d.predict(pcB, true, true, /*wrong_path=*/true);
    d.predict(pcA, true, true, /*wrong_path=*/true);
    d.advanceTime(5);
    d.mispredict(cause);

    EXPECT_GT(d.astats().recoveryChecks, 0u);
    EXPECT_EQ(d.astats().violations(), 0u);

    d.retire(warmA);
    d.retire(warmB);
    d.retire(cause);
    EXPECT_EQ(d.astats().violations(), 0u);
}

namespace {

/**
 * Broken LimitedPc: runs the real repair, then corrupts the
 * mispredicting PC's restored entry — the failure the auditor's
 * always-checked cause PC exists to catch.
 */
class BrokenLimitedPcScheme : public LimitedPcScheme
{
  public:
    using LimitedPcScheme::LimitedPcScheme;

  protected:
    RepairOutcome
    repair(DynInst &di, Cycle now) override
    {
        const RepairOutcome out = LimitedPcScheme::repair(di, now);
        lp_->writeState(di.pc, LoopState::make(999, true));
        return out;
    }
};

/** Broken MultiStage: same corruption, against BHT-Defer. */
class BrokenMultiStageScheme : public MultiStageScheme
{
  public:
    using MultiStageScheme::MultiStageScheme;

  protected:
    RepairOutcome
    repair(DynInst &di, Cycle now) override
    {
        const RepairOutcome out = MultiStageScheme::repair(di, now);
        lp_->writeState(di.pc, LoopState::make(999, true));
        return out;
    }
};

} // namespace

TEST(Auditor, BrokenLimitedPcIsDetected)
{
    RepairConfig cfg = walkConfig(RepairKind::LimitedPc);
    cfg.limitedM = 4;
    AuditDriver d(std::make_unique<BrokenLimitedPcScheme>(
        makeLocalPredictor(cfg), cfg));

    DynInst &warmA = d.predict(pcA, true, true);
    DynInst &warmB = d.predict(pcB, true, true);
    d.advanceTime(1);

    DynInst &cause = d.predict(pcA, true, false);
    d.predict(pcB, true, true, /*wrong_path=*/true);
    d.advanceTime(5);
    d.mispredict(cause);

    EXPECT_GE(d.astats().recoveryViolations, 1u)
        << "a limited-PC repair that corrupts its own cause must trip";

    d.retire(warmA);
    d.retire(warmB);
    d.retire(cause);
}

TEST(Auditor, BrokenMultiStageIsDetected)
{
    RepairConfig cfg = walkConfig(RepairKind::MultiStage);
    AuditDriver d(std::make_unique<BrokenMultiStageScheme>(
        makeLocalPredictor(cfg), makeLocalPredictor(cfg),
        /*shared_pt=*/true, cfg));

    DynInst &warmA = d.predict(pcA, true, true);
    DynInst &warmB = d.predict(pcB, true, true);
    d.advanceTime(1);

    DynInst &cause = d.predict(pcA, true, false);
    d.predict(pcB, true, true, /*wrong_path=*/true);
    d.advanceTime(5);
    d.mispredict(cause);

    EXPECT_GE(d.astats().recoveryViolations, 1u)
        << "a defer-side repair that corrupts its cause must trip";

    d.retire(warmA);
    d.retire(warmB);
    d.retire(cause);
}

namespace {

/**
 * A deliberately-broken backward walk: claims every recovery is
 * covered but never rewrites the BHT. The paper's point is that this
 * failure mode does not crash — it just silently corrupts speculative
 * state. The end-to-end negative test proves the auditor catches it
 * on the real pipeline.
 */
class BrokenWalkScheme : public BackwardWalkScheme
{
  public:
    BrokenWalkScheme(std::unique_ptr<LocalPredictor> lp,
                     const RepairConfig &cfg)
        : BackwardWalkScheme(std::move(lp), cfg)
    {
    }

  protected:
    RepairOutcome
    repair(DynInst &, Cycle) override
    {
        // No repair and no declared gap; the OBQ squash still runs.
        return {};
    }
};

/** A run of @p kind with the auditor attached (SimConfig::obs.audit). */
SimConfig
auditedConfig(RepairKind kind)
{
    SimConfig cfg;
    cfg.warmupInstrs = 20000;
    cfg.measureInstrs = 40000;
    cfg.useLocal = true;
    cfg.repair.kind = kind;
    cfg.obs.audit = true;
    return cfg;
}

Program
serverWorkload()
{
    return buildWorkload(categoryProfiles()[0], 0, SuiteOptions{}.seed);
}

} // namespace

TEST(AuditorIntegration, RealPipelineRunsClean)
{
    const RunResult r =
        runOne(serverWorkload(), auditedConfig(RepairKind::BackwardWalk));
    EXPECT_GT(r.auditChecks, 0u)
        << "the auditor must actually check something";
    EXPECT_EQ(r.auditViolations, 0u);
}

TEST(AuditorIntegration, LimitedPcPipelineRunsClean)
{
    const RunResult r =
        runOne(serverWorkload(), auditedConfig(RepairKind::LimitedPc));
    EXPECT_GT(r.auditChecks, 0u);
    EXPECT_EQ(r.auditViolations, 0u);
}

TEST(AuditorIntegration, MultiStagePipelineRunsClean)
{
    const RunResult r =
        runOne(serverWorkload(), auditedConfig(RepairKind::MultiStage));
    EXPECT_GT(r.auditChecks, 0u);
    EXPECT_EQ(r.auditViolations, 0u);
}

TEST(AuditorIntegration, BrokenRepairSchemeIsDetected)
{
    const SimConfig cfg = auditedConfig(RepairKind::BackwardWalk);
    const Program prog = serverWorkload();
    OooCore core(prog, cfg,
                 std::make_unique<BrokenWalkScheme>(
                     makeLocalPredictor(cfg.repair), cfg.repair));
    SpecStateAuditor auditor(core.scheme()->local());
    core.attachAuditor(&auditor);
    core.run(cfg.warmupInstrs + cfg.measureInstrs);

    EXPECT_GT(auditor.stats().violations(), 0u)
        << "a repair scheme that never repairs must be flagged";
}
