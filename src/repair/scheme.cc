#include "repair/scheme.hh"

#include "common/logging.hh"
#include "repair/schemes.hh"

namespace lbp {

const char *
repairKindName(RepairKind kind)
{
    switch (kind) {
      case RepairKind::Perfect: return "perfect";
      case RepairKind::NoRepair: return "no-repair";
      case RepairKind::RetireUpdate: return "retire-update";
      case RepairKind::BackwardWalk: return "backward-walk";
      case RepairKind::Snapshot: return "snapshot";
      case RepairKind::ForwardWalk: return "forward-walk";
      case RepairKind::LimitedPc: return "limited-pc";
      case RepairKind::MultiStage: return "multi-stage";
      case RepairKind::FutureFile: return "future-file";
    }
    return "unknown";
}

RepairScheme::RepairScheme(std::unique_ptr<LocalPredictor> lp,
                           const RepairConfig &cfg)
    // The WITHLOOP chooser starts distrusting the local predictor.
    : lp_(std::move(lp)), cfg_(cfg), withLoop_(7, -4),
      updateLog_(1u << 13)
{
    lbp_assert(lp_ != nullptr);
}

void
RepairScheme::logSpecUpdate(InstSeq seq, Addr pc)
{
    updateLog_[updateLogPos_] = {seq, pc};
    updateLogPos_ = (updateLogPos_ + 1) % updateLog_.size();
}

const std::vector<Addr> &
RepairScheme::pollutedSince(InstSeq seq) const
{
    // Walk the update log backwards collecting distinct PCs updated at
    // or after the mispredicting branch. Seqs are monotonic in fetch
    // order, so the walk stops at the first older record. The scratch
    // buffer is a member so the every-misprediction count stays
    // allocation-free.
    std::vector<Addr> &distinct = pollutedScratch_;
    distinct.clear();
    std::size_t pos = updateLogPos_;
    for (std::size_t n = 0; n < updateLog_.size(); ++n) {
        pos = (pos + updateLog_.size() - 1) % updateLog_.size();
        const auto &[s, pc] = updateLog_[pos];
        if (s < seq || s == invalidSeq)
            break;
        if (std::find(distinct.begin(), distinct.end(), pc) ==
            distinct.end()) {
            distinct.push_back(pc);
        }
    }
    return distinct;
}

void
RepairScheme::decide(BranchRec &br, bool tage_dir) const
{
    br.tageDir = tage_dir;
    br.loopDir = br.local.dir;
    br.usedLoop = overrides(br.local);
    br.finalPred = br.usedLoop ? br.local.dir : tage_dir;
}

bool
RepairScheme::atPredict(DynInst &di, bool tage_dir, Cycle now)
{
    BranchRec &br = *di.br;
    const bool usable = bhtUsable(di.pc, now);
    if (!usable)
        ++stats_.deniedPredictions;
    br.local = usable ? lp_->predict(di.pc) : LocalPred{};
    decide(br, tage_dir);

    if (specUpdatesAtPredict()) {
        if (bhtWritable(di.pc, now)) {
            checkpoint(di, now);
            lp_->specUpdate(di.pc, br.finalPred);
            br.specUpdated = true;
            logSpecUpdate(di.seq, di.pc);
        } else {
            ++stats_.skippedSpecUpdates;
        }
    }
    return br.finalPred;
}

RepairOutcome
RepairScheme::recover(DynInst &cause, Cycle now)
{
    ++stats_.repairsTriggered;
    stats_.repairsNeeded.sample(pollutedSince(cause.seq).size());
    const RepairOutcome out = repair(cause, now);
    squash(cause);

    // The stats quirks the result CSVs pin: only the walks sample a walk
    // length, and writes/tableWrites differ for Perfect and MultiStage.
    switch (out.action) {
      case RepairOutcome::Action::None:
        break;
      case RepairOutcome::Action::Uncovered:
        ++stats_.uncheckpointedMispredicts;
        break;
      case RepairOutcome::Action::Walk:
        stats_.walkLength.sample(out.walked);
        [[fallthrough]];
      case RepairOutcome::Action::Restore:
        stats_.repairWrites += out.writes;
        stats_.writesPerRepair.sample(out.tableWrites);
        stats_.repairCycles.sample(out.cycles);
        break;
    }
    return out;
}

Cycle
RepairScheme::holdBht(Cycle now, unsigned writes, unsigned per_cycle)
{
    const Cycle cycles = ceilDiv(writes, per_cycle);
    busyUntil_ = std::max<Cycle>(now + 1, busyUntil_) + cycles;
    return cycles;
}

void
RepairScheme::atRetire(DynInst &di)
{
    BranchRec &br = *di.br;
    lp_->retireTrain(di.pc, di.actualDir);
    if (br.local.predictable)
        lp_->predictionFeedback(di.pc, br.loopDir, di.actualDir);
    // Train the WITHLOOP chooser (when enabled) on disagreements.
    if (br.local.valid && br.loopDir != br.tageDir)
        withLoop_.update(br.loopDir == di.actualDir);
    if (br.usedLoop) {
        ++stats_.overrides;
        if (br.loopDir == di.actualDir)
            ++stats_.overridesCorrect;
    }
}

std::unique_ptr<LocalPredictor>
makeLocalPredictor(const RepairConfig &cfg)
{
    if (cfg.localKind == LocalKind::CbpwLoop)
        return std::make_unique<LoopPredictor>(cfg.loop);
    return std::make_unique<LocalTwoLevelPredictor>(cfg.twoLevel);
}

std::unique_ptr<RepairScheme>
makeRepairScheme(const RepairConfig &cfg)
{
    auto lp = makeLocalPredictor(cfg);
    switch (cfg.kind) {
      case RepairKind::Perfect:
        return std::make_unique<PerfectRepairScheme>(
            std::move(lp), makeLocalPredictor(cfg), cfg);
      case RepairKind::NoRepair:
        return std::make_unique<NoRepairScheme>(std::move(lp), cfg);
      case RepairKind::RetireUpdate:
        return std::make_unique<RetireUpdateScheme>(std::move(lp), cfg);
      case RepairKind::BackwardWalk:
        return std::make_unique<BackwardWalkScheme>(std::move(lp), cfg);
      case RepairKind::Snapshot:
        return std::make_unique<SnapshotScheme>(std::move(lp), cfg);
      case RepairKind::ForwardWalk:
        return std::make_unique<ForwardWalkScheme>(std::move(lp), cfg);
      case RepairKind::LimitedPc:
        return std::make_unique<LimitedPcScheme>(std::move(lp), cfg);
      case RepairKind::FutureFile:
        return std::make_unique<FutureFileScheme>(std::move(lp), cfg);
      case RepairKind::MultiStage: {
        // Two half-size tables; the second one optionally shares the
        // first's PT (only meaningful for the CBPw-Loop design).
        lbp_assert(cfg.localKind == LocalKind::CbpwLoop);
        LoopConfig half = cfg.loop;
        half.bhtEntries = std::max(cfg.loop.bhtWays,
                                   cfg.loop.bhtEntries / 2);
        half.ptEntries = std::max(cfg.loop.ptWays,
                                  cfg.loop.ptEntries / 2);
        auto defer = std::make_unique<LoopPredictor>(half);
        std::unique_ptr<LocalPredictor> bht_tage;
        const bool shared_pt = !cfg.msSplitPt;
        if (shared_pt) {
            bht_tage =
                std::make_unique<LoopPredictor>(half, &defer->pt());
        } else {
            bht_tage = std::make_unique<LoopPredictor>(half);
        }
        return std::make_unique<MultiStageScheme>(
            std::move(defer), std::move(bht_tage), shared_pt, cfg);
      }
    }
    lbp_panic("unknown repair kind");
}

} // namespace lbp
