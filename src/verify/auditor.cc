#include "verify/auditor.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"

namespace lbp {

SpecStateAuditor::SpecStateAuditor(const LocalPredictor &model)
    : model_(model)
{
}

bool
SpecStateAuditor::auditableKind(RepairKind kind)
{
    // Exact auditing needs the scheme's claimed contract to be "every
    // polluted BHT entry the scheme declares covered is restored,
    // immediately and in full, from checkpoints of the live table".
    // That covers both walks and the snapshot queue outright. Two
    // schemes with *declared* gaps are auditable through the gap
    // model: LimitedPc declares its M-PC repair set in each recovery's
    // RepairOutcome, so pollution outside the set is counted as a
    // designed divergence rather than asserted; MultiStage checkpoints
    // only BHT-Defer, whose alloc-stage records (auditsAtAlloc()) make
    // its forward walk exactly checkable — BHT-TAGE is disposable by
    // design (invalidated during repair, refilled by copy) and stays
    // outside the audited surface. PerfectRepair is excluded
    // deliberately: it restores from an independently-managed oracle
    // table whose (legitimate) eviction-history divergence from the
    // live table makes exact comparison against live checkpoints
    // ill-defined — it *is* the reference model the auditor
    // replicates. The rest (no-repair, retire-update, future-file) do
    // not claim a repair contract at all.
    switch (kind) {
      case RepairKind::BackwardWalk:
      case RepairKind::ForwardWalk:
      case RepairKind::Snapshot:
      case RepairKind::LimitedPc:
      case RepairKind::MultiStage:
        return true;
      default:
        return false;
    }
}

void
SpecStateAuditor::report(const char *what, const DynInst &di,
                         LocalState expect, LocalState got)
{
    if (reported_ < maxReports) {
        ++reported_;
        std::fprintf(stderr,
                     "audit: %s mismatch pc=%#llx seq=%llu "
                     "expect=%#x got=%#x\n",
                     what,
                     static_cast<unsigned long long>(di.pc),
                     static_cast<unsigned long long>(di.seq),
                     static_cast<unsigned>(expect),
                     static_cast<unsigned>(got));
    }
}

void
SpecStateAuditor::desync(Addr pc, InstSeq cause_seq)
{
    Chain &c = arch_[pc];
    c.desynced = true;
    if (cause_seq > c.desyncSeq)
        c.desyncSeq = cause_seq;
}

void
SpecStateAuditor::onPredict(const DynInst &di)
{
    lbp_assert(di.isCond());
    SpecRec rec;
    rec.seq = di.seq;
    rec.pc = di.pc;
    rec.pre = di.br->local.preState;
    rec.bhtHit = di.br->local.bhtHit;
    rec.specUpdated = di.br->specUpdated;
    rec.checkpointed = di.br->checkpointed;
    rec.dir = di.br->finalPred;
    inflight_.push_back(rec);
}

void
SpecStateAuditor::onRecovery(const DynInst &cause,
                             const LocalPredictor &live,
                             const RepairOutcome &outcome)
{
    const bool covered = outcome.covered();
    const std::span<const Addr> repairSet = outcome.repairSet;
    // The wrong-path window: the mispredicting branch's own (wrong-
    // direction) update plus everything fetched after it.
    std::size_t first = inflight_.size();
    while (first > 0 && inflight_[first - 1].seq >= cause.seq)
        --first;

    if (!covered) {
        // The scheme declared this recovery unrepairable (OBQ overflow,
        // snapshot-queue eviction). Every polluted PC becomes
        // unverifiable until the golden chain re-syncs on a later
        // observation.
        ++stats_.uncoveredRecoveries;
        for (std::size_t i = first; i < inflight_.size(); ++i) {
            if (inflight_[i].specUpdated)
                desync(inflight_[i].pc, cause.seq);
        }
    } else {
        // Oldest polluting instance per PC decides the expected
        // post-repair state: its pre-update checkpoint is the
        // architecturally-correct value (advanced by the resolved
        // outcome for the mispredicting PC itself).
        for (std::size_t i = first; i < inflight_.size(); ++i) {
            const SpecRec &rec = inflight_[i];
            if (!rec.specUpdated)
                continue;
            bool oldest = true;
            for (std::size_t j = first; j < i; ++j) {
                if (inflight_[j].pc == rec.pc &&
                    inflight_[j].specUpdated) {
                    oldest = false;
                    break;
                }
            }
            if (!oldest)
                continue;
            if (!repairSet.empty() && rec.pc != cause.pc &&
                std::find(repairSet.begin(), repairSet.end(), rec.pc) ==
                    repairSet.end()) {
                // Declared partial coverage (LimitedPc): the scheme
                // repairs only its M chosen PCs and leaves the rest
                // polluted by design (section 3.3). The divergence is
                // expected — count it and desync the chain instead of
                // asserting. The mispredicting PC never lands here:
                // every covered recovery repairs at least its cause.
                ++stats_.skipped;
                desync(rec.pc, cause.seq);
                continue;
            }
            if (!rec.bhtHit || !rec.checkpointed) {
                // Two declared gaps share this shape. A wrong-path BHT
                // allocation: no checkpoint exists and the walks cannot
                // remove the entry. An uncheckpointed update: the OBQ
                // (or snapshot ring) was full at this branch's predict,
                // so the paper's overflow rule drops the pre-state and
                // the repair cannot restore this PC.
                ++stats_.skipped;
                desync(rec.pc, cause.seq);
                continue;
            }
            LocalState expect = rec.pre;
            if (rec.seq == cause.seq && cause.br->checkpointed)
                expect = model_.advanceState(expect, cause.actualDir);
            bool present = false;
            const LocalState got = live.readState(rec.pc, &present);
            if (!present) {
                // Evicted on the wrong path; repair writes no-op on
                // absent entries by contract.
                ++stats_.skipped;
                continue;
            }
            ++stats_.recoveryChecks;
            if (got != expect) {
                ++stats_.recoveryViolations;
                report("recovery", cause, expect, got);
            }
        }
    }

    // Squash the wrong-path records; the mispredicting branch itself
    // survives to retirement with its BHT entry folded to the resolved
    // outcome (when the scheme checkpointed it).
    while (!inflight_.empty() && inflight_.back().seq > cause.seq)
        inflight_.pop_back();
    if (!inflight_.empty() && inflight_.back().seq == cause.seq &&
        covered && cause.br->checkpointed) {
        inflight_.back().dir = cause.actualDir;
    }
}

void
SpecStateAuditor::onRetire(const DynInst &di)
{
    lbp_assert(di.isCond());
    lbp_assert(!inflight_.empty());
    lbp_assert(inflight_.front().seq == di.seq);
    const SpecRec rec = inflight_.front();
    inflight_.pop_front();

    if (rec.bhtHit) {
        auto it = arch_.find(rec.pc);
        if (it == arch_.end()) {
            // First observation of this PC: adopt the live state.
            it = arch_.emplace(rec.pc, Chain{rec.pre, false, 0}).first;
            ++stats_.resyncs;
        } else if (it->second.desynced) {
            if (rec.seq <= it->second.desyncSeq) {
                // Predicted before the desyncing flush: this pre-state
                // predates the unrepaired pollution and would resync
                // the chain to a stale value. Wait for a fresh
                // post-flush observation.
                ++stats_.skipped;
                return;
            }
            it->second.state = rec.pre;
            it->second.desynced = false;
            ++stats_.resyncs;
        } else {
            ++stats_.retireChecks;
            if (rec.pre != it->second.state) {
                ++stats_.retireViolations;
                report("retire", di, it->second.state, rec.pre);
                // Re-adopt so one corruption doesn't cascade into a
                // violation per subsequent retire.
                it->second.state = rec.pre;
            }
        }
        if (rec.specUpdated)
            it->second.state = model_.advanceState(rec.pre, rec.dir);
        else
            it->second.state = rec.pre;
    } else if (rec.specUpdated) {
        // Fresh allocation observed: the chain restarts from the
        // unknown state, exactly as specUpdate() allocates.
        Chain &c = arch_[rec.pc];
        if (c.desynced && rec.seq <= c.desyncSeq) {
            // Allocated before the desyncing flush: the entry may have
            // been polluted (and not repaired) since.
            ++stats_.skipped;
            return;
        }
        c.state = model_.advanceState(LocalState{}, rec.dir);
        c.desynced = false;
    } else {
        // Denied lookup (BHT busy during a repair): the branch neither
        // observed nor modified the entry — nothing to learn.
        ++stats_.skipped;
    }
}

} // namespace lbp
