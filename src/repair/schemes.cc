#include "repair/schemes.hh"

#include <algorithm>

#include "common/logging.hh"

namespace lbp {

namespace {

/** ROB entries charged for per-instruction repair baggage (Table 2/3). */
constexpr unsigned robEntriesForStorage = 224;

using Action = RepairOutcome::Action;

} // namespace

// ---------------------------------------------------------------------
// RetireUpdate
// ---------------------------------------------------------------------

void
RetireUpdateScheme::atRetire(DynInst &di)
{
    RepairScheme::atRetire(di);
    // The only BHT write: architectural outcome at retirement.
    lp_->specUpdate(di.pc, di.actualDir);
}

// ---------------------------------------------------------------------
// PerfectRepair
// ---------------------------------------------------------------------

PerfectRepairScheme::PerfectRepairScheme(
    std::unique_ptr<LocalPredictor> lp,
    std::unique_ptr<LocalPredictor> oracle, const RepairConfig &cfg)
    : RepairScheme(std::move(lp), cfg), oracle_(std::move(oracle))
{
    lbp_assert(oracle_ != nullptr);
    lbp_assert(oracle_->bhtEntries() == lp_->bhtEntries());
}

void
PerfectRepairScheme::atTruePathFetch(const DynInst &di)
{
    if (di.isCond())
        oracle_->specUpdate(di.pc, di.actualDir);
}

RepairOutcome
PerfectRepairScheme::repair(DynInst &, Cycle)
{
    // Instant, unbounded restore: the shadow table already reflects the
    // architectural path up to and including this branch. It spends no
    // repair port, so it counts no port writes.
    oracle_->snapshotBhtInto(oracleSnap_);
    lp_->restoreBht(oracleSnap_);
    return {.action = Action::Restore, .tableWrites = lp_->bhtEntries()};
}

// ---------------------------------------------------------------------
// WalkSchemeBase
// ---------------------------------------------------------------------

WalkSchemeBase::WalkSchemeBase(std::unique_ptr<LocalPredictor> lp,
                               const RepairConfig &cfg, bool coalesce)
    : RepairScheme(std::move(lp), cfg),
      obq_(cfg.ports.entries, coalesce)
{
    // One write per PC, plus a coalesced cause's own: never reallocates.
    repaired_.reserve(cfg.ports.entries + 1);
}

void
WalkSchemeBase::checkpoint(DynInst &di, Cycle)
{
    // Per the paper's OBQ design (section 5): only PCs that hit in the
    // BHT get an entry of their own; missing PCs are assigned the
    // position "before the tail" purely to order a later walk. When the
    // OBQ is full, no id is assigned at all and a misprediction of that
    // branch cannot be recovered (section 3.1 overflow rule).
    di.br->obqId = invalidId;
    di.br->checkpointed = false;
    di.br->mergedEntry = false;

    if (di.br->local.bhtHit) {
        bool merged = false;
        const std::uint64_t id =
            obq_.push(di.pc, di.br->local.preState, di.seq, &merged);
        if (id != invalidId) {
            di.br->obqId = id;
            di.br->checkpointed = true;
            di.br->mergedEntry = merged;
        }
    } else if (!obq_.full()) {
        di.br->obqId = obq_.tail();  // ordering marker, no storage
    }
}

void
WalkSchemeBase::squash(const DynInst &cause)
{
    obq_.squashYoungerThan(cause.seq, cause.pc, cause.br->local.preState);
}

unsigned
WalkSchemeBase::forwardWalk(const DynInst &cause)
{
    const BranchRec &br = *cause.br;
    lp_->setAllRepairBits();
    repaired_.clear();
    const auto rewrite = [&](Addr pc, LocalState st) {
        if (!lp_->testClearRepairBit(pc))
            return;
        lp_->writeState(pc, st);
        repaired_.push_back(pc);
    };

    std::uint64_t begin = std::max(br.obqId, obq_.head());
    if (br.checkpointed && br.mergedEntry) {
        rewrite(cause.pc,
                lp_->advanceState(br.local.preState, cause.actualDir));
        begin = br.obqId + 1;
    }
    unsigned walked = 0;
    for (std::uint64_t id = begin; id < obq_.tail(); ++id) {
        ++walked;
        const Obq::Entry &e = obq_.at(id);
        const bool own = br.checkpointed && id == br.obqId &&
                         e.pc == cause.pc;
        rewrite(e.pc, own ? lp_->advanceState(e.preState, cause.actualDir)
                          : e.preState);
    }
    return walked;
}

void
WalkSchemeBase::atRetire(DynInst &di)
{
    RepairScheme::atRetire(di);
    if (di.br->checkpointed)
        obq_.retireUpTo(di.br->obqId, di.seq);
}

double
WalkSchemeBase::storageKB() const
{
    // OBQ + 1 repair bit per BHT entry + ROB extension (OBQ id + 11-bit
    // pre-update counter carried with each instruction), per Table 3.
    const double obq_kb = obq_.storageKB();
    const double repair_bits_kb = lp_->bhtEntries() / 8192.0;
    const double rob_kb = robEntriesForStorage * 16.0 / 8192.0;
    return obq_kb + repair_bits_kb + rob_kb;
}

// ---------------------------------------------------------------------
// BackwardWalk
// ---------------------------------------------------------------------

BackwardWalkScheme::BackwardWalkScheme(std::unique_ptr<LocalPredictor> lp,
                                       const RepairConfig &cfg)
    : WalkSchemeBase(std::move(lp), cfg, /*coalesce=*/false)
{
}

bool
BackwardWalkScheme::bhtUsable(Addr, Cycle now) const
{
    return now >= busyUntil_;
}

RepairOutcome
BackwardWalkScheme::repair(DynInst &cause, Cycle now)
{
    if (cause.br->obqId == invalidId)
        return {.action = Action::Uncovered};

    // Youngest entry first, down to (and including) the mispredicting
    // branch. Duplicate PCs get rewritten on every occurrence; the last
    // write (the oldest instance's pre-state) is the correct one.
    unsigned walked = 0;
    const std::uint64_t begin = std::max(cause.br->obqId, obq_.head());
    for (std::uint64_t id = obq_.tail(); id-- > begin;) {
        const Obq::Entry &e = obq_.at(id);
        lp_->writeState(e.pc, e.preState);
        ++walked;
    }
    unsigned writes = walked;

    // Step 7 (section 2.4): fold in the branch's own resolution; only
    // possible when this branch's pre-state was actually checkpointed.
    if (cause.br->checkpointed) {
        bool present = false;
        const LocalState st = lp_->readState(cause.pc, &present);
        if (present) {
            lp_->writeState(cause.pc,
                            lp_->advanceState(st, cause.actualDir));
            ++writes;
        }
    }

    const Cycle cycles = holdBht(now, writes, repairThroughput());
    return {.action = Action::Walk, .walked = walked, .writes = writes,
            .tableWrites = writes, .cycles = cycles};
}

// ---------------------------------------------------------------------
// ForwardWalk
// ---------------------------------------------------------------------

ForwardWalkScheme::ForwardWalkScheme(std::unique_ptr<LocalPredictor> lp,
                                     const RepairConfig &cfg)
    : WalkSchemeBase(std::move(lp), cfg, cfg.coalesce)
{
}

bool
ForwardWalkScheme::bhtUsable(Addr pc, Cycle now) const
{
    // Entries outside the active walk are usable immediately; walked
    // entries become usable the cycle their repair write lands.
    if (now >= busyUntil_)
        return true;
    const auto it = std::find(repaired_.begin(), repaired_.end(), pc);
    if (it == repaired_.end())
        return true;
    const auto nth_write = static_cast<std::uint64_t>(
        it - repaired_.begin() + 1);
    return now >= walkStart_ + ceilDiv(nth_write, repairThroughput());
}

RepairOutcome
ForwardWalkScheme::repair(DynInst &cause, Cycle now)
{
    if (cause.br->obqId == invalidId)
        return {.action = Action::Uncovered};
    const unsigned walked = forwardWalk(cause);
    const auto writes = static_cast<unsigned>(repaired_.size());
    const Cycle cycles = holdBht(now, writes, repairThroughput());
    walkStart_ = busyUntil_ - cycles;
    return {.action = Action::Walk, .walked = walked, .writes = writes,
            .tableWrites = writes, .cycles = cycles};
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

SnapshotScheme::SnapshotScheme(std::unique_ptr<LocalPredictor> lp,
                               const RepairConfig &cfg)
    : RepairScheme(std::move(lp), cfg), ring_(cfg.ports.entries)
{
}

bool
SnapshotScheme::bhtUsable(Addr, Cycle now) const
{
    return now >= busyUntil_;
}

void
SnapshotScheme::checkpoint(DynInst &di, Cycle)
{
    // A full queue evicts its oldest snapshot; a misprediction older
    // than the window can no longer be repaired.
    if (ring_.full())
        ring_.dropOldest();
    const std::uint64_t id = ring_.push();
    Snap &s = ring_.at(id);
    s.seq = di.seq;
    lp_->snapshotBhtInto(s.data);  // refills the slot's own buffer
    di.br->snapId = id;
    di.br->checkpointed = true;
}

RepairOutcome
SnapshotScheme::repair(DynInst &cause, Cycle now)
{
    if (!cause.br->checkpointed || !ring_.live(cause.br->snapId))
        return {.action = Action::Uncovered};

    lp_->restoreBht(ring_.at(cause.br->snapId).data);
    bool present = false;
    const LocalState st = lp_->readState(cause.pc, &present);
    if (present)
        lp_->writeState(cause.pc, lp_->advanceState(st, cause.actualDir));

    // Restoring a snapshot rewrites the whole BHT through the limited
    // ports; the table is unavailable until done.
    const unsigned writes = lp_->bhtEntries() + 1;
    const Cycle cycles = holdBht(now, writes, repairThroughput());
    return {.action = Action::Restore, .writes = writes,
            .tableWrites = writes, .cycles = cycles};
}

void
SnapshotScheme::squash(const DynInst &cause)
{
    ring_.squashYoungerThan(cause.seq);
}

void
SnapshotScheme::atRetire(DynInst &di)
{
    RepairScheme::atRetire(di);
    ring_.retireUpTo(di.seq);
}

double
SnapshotScheme::storageKB() const
{
    // Each snapshot stores every BHT entry's state+tag (~13+8 bits).
    const double bits_per_snap = lp_->bhtEntries() * 21.0;
    return static_cast<double>(ring_.capacity()) * bits_per_snap / 8192.0 +
           robEntriesForStorage * 6.0 / 8192.0;
}

// ---------------------------------------------------------------------
// LimitedPc
// ---------------------------------------------------------------------

LimitedPcScheme::LimitedPcScheme(std::unique_ptr<LocalPredictor> lp,
                                 const RepairConfig &cfg)
    : RepairScheme(std::move(lp), cfg),
      payloadRing_(1u << payloadRingLog)
{
    lbp_assert(cfg.limitedM >= 1 && cfg.limitedM <= maxM);
}

void
LimitedPcScheme::noteRecentUpdate(Addr pc)
{
    auto it = std::find(recentUpdates_.begin(), recentUpdates_.end(), pc);
    if (it != recentUpdates_.end())
        recentUpdates_.erase(it);
    recentUpdates_.push_back(pc);
    if (recentUpdates_.size() > 2 * maxM)
        recentUpdates_.erase(recentUpdates_.begin());
}

void
LimitedPcScheme::checkpoint(DynInst &di, Cycle)
{
    Payload &p = payloadRing_[di.seq & (payloadRing_.size() - 1)];
    p.seq = di.seq;
    p.count = 0;

    const unsigned m = cfg_.limitedM;
    const auto add = [&](Addr pc, LocalState st) {
        if (p.count >= m)
            return;
        for (unsigned i = 0; i < p.count; ++i)
            if (p.pcs[i] == pc)
                return;
        p.pcs[p.count] = pc;
        p.states[p.count++] = st;
    };

    // 1. The branch always repairs itself.
    add(di.pc, di.br->local.preState);

    // 2. Alternate the paper's two criteria — recency of BHT updates
    //    and utility (recent correct overriders) — so even M=2 covers
    //    the hot neighbour most likely to share the wrong path with
    //    this branch.
    auto recent_it = recentUpdates_.rbegin();
    auto util_it = overrideLru_.rbegin();
    while (p.count < m && (recent_it != recentUpdates_.rend() ||
                           util_it != overrideLru_.rend())) {
        if (recent_it != recentUpdates_.rend()) {
            bool present = false;
            const LocalState st = lp_->readState(*recent_it, &present);
            if (present)
                add(*recent_it, st);
            ++recent_it;
        }
        if (p.count < m && util_it != overrideLru_.rend()) {
            bool present = false;
            const LocalState st = lp_->readState(*util_it, &present);
            if (present)
                add(*util_it, st);
            ++util_it;
        }
    }

    di.br->limitedSlot = di.seq;
    di.br->checkpointed = true;

    noteRecentUpdate(di.pc);
}

RepairOutcome
LimitedPcScheme::repair(DynInst &cause, Cycle)
{
    const Payload &p =
        payloadRing_[cause.seq & (payloadRing_.size() - 1)];
    if (!cause.br->checkpointed || p.seq != cause.seq)
        return {.action = Action::Uncovered};

    for (unsigned i = 0; i < p.count; ++i) {
        const Addr pc = p.pcs[i];
        lp_->writeState(pc, pc == cause.pc
                                ? lp_->advanceState(p.states[i],
                                                    cause.actualDir)
                                : p.states[i]);
    }
    const std::span<const Addr> repaired(p.pcs.data(), p.count);

    if (cfg_.limitedInvalidate) {
        // Ablation policy: polluted-but-unrepaired PCs are invalidated
        // so they stop overriding until they re-learn (the paper found
        // leave-as-is better; section 3.3). Approximated via the
        // pollution log.
        for (Addr pc : pollutedSince(cause.seq))
            if (std::find(repaired.begin(), repaired.end(), pc) ==
                repaired.end())
                lp_->invalidateEntry(pc);
    }

    // The M entries go through dedicated write ports (Table 3: 0 read /
    // M write) in a deterministic one or two cycles that overlap the
    // flush shadow, so the prediction path is never blocked — that
    // determinism is the technique's selling point (section 3.3).
    const unsigned writes = p.count;
    return {.action = Action::Restore, .writes = writes,
            .tableWrites = writes,
            .cycles = ceilDiv(writes, std::max(1u, cfg_.ports.bhtWritePorts)),
            .repairSet = repaired};
}

void
LimitedPcScheme::atRetire(DynInst &di)
{
    RepairScheme::atRetire(di);
    if (di.br->usedLoop && di.br->loopDir == di.actualDir) {
        auto it =
            std::find(overrideLru_.begin(), overrideLru_.end(), di.pc);
        if (it != overrideLru_.end())
            overrideLru_.erase(it);
        overrideLru_.push_back(di.pc);
        if (overrideLru_.size() > 2 * maxM)
            overrideLru_.erase(overrideLru_.begin());
    }
}

double
LimitedPcScheme::storageKB() const
{
    // M x 24 bits (5-bit set, 8-bit tag, 11-bit pattern) carried with
    // each in-flight instruction (section 3.3).
    return robEntriesForStorage * cfg_.limitedM * 24.0 / 8192.0;
}

// ---------------------------------------------------------------------
// FutureFile
// ---------------------------------------------------------------------

FutureFileScheme::FutureFileScheme(std::unique_ptr<LocalPredictor> lp,
                                   const RepairConfig &cfg)
    : RepairScheme(std::move(lp), cfg), ring_(cfg.ports.entries)
{
    lbp_assert(cfg.ffWindow >= 1);
}

bool
FutureFileScheme::atPredict(DynInst &di, bool tage_dir, Cycle)
{
    BranchRec &br = *di.br;

    // Associative search of the youngest ffWindow entries for this PC;
    // a hit yields the speculative state, otherwise fall back to the
    // retirement-updated BHT.
    bool known = false;
    LocalState state = 0;
    const std::uint64_t window =
        std::min<std::uint64_t>(ring_.size(), cfg_.ffWindow);
    for (std::uint64_t i = 0; i < window; ++i) {
        const Entry &e = ring_.at(ring_.tail() - 1 - i);
        if (e.pc == di.pc) {
            known = true;
            state = e.state;
            break;
        }
    }
    if (!known)
        state = lp_->readState(di.pc, &known);

    br.local = lp_->predictFrom(di.pc, state, known);
    decide(br, tage_dir);

    // Append the post-update speculative state; on overflow the PC is
    // simply untracked (reads will see stale architectural state).
    if (!ring_.full()) {
        br.obqId = ring_.push();
        Entry &e = ring_.at(br.obqId);
        e.pc = di.pc;
        e.state = lp_->advanceState(state, br.finalPred);
        e.seq = di.seq;
        br.checkpointed = true;
    }
    logSpecUpdate(di.seq, di.pc);
    return br.finalPred;
}

RepairOutcome
FutureFileScheme::repair(DynInst &cause, Cycle)
{
    if (!cause.br->checkpointed || cause.br->obqId < ring_.head())
        return {.action = Action::Uncovered};
    // O(1) repair: drop everything younger and rewrite this branch's
    // own entry with its resolved outcome.
    ring_.truncate(cause.br->obqId + 1);
    ring_.at(cause.br->obqId).state =
        lp_->advanceState(cause.br->local.preState, cause.actualDir);
    return {.action = Action::Restore, .writes = 1, .tableWrites = 1};
}

void
FutureFileScheme::squash(const DynInst &cause)
{
    ring_.squashYoungerThan(cause.seq);
}

void
FutureFileScheme::atRetire(DynInst &di)
{
    RepairScheme::atRetire(di);
    // The architectural BHT is written at retirement, and retired
    // entries leave the queue.
    lp_->specUpdate(di.pc, di.actualDir);
    ring_.retireUpTo(di.seq);
}

double
FutureFileScheme::storageKB() const
{
    // Same 76-bit entries as the OBQ, plus the comparators' cost is
    // power, not storage.
    return static_cast<double>(ring_.capacity()) * 76.0 / 8192.0;
}

// ---------------------------------------------------------------------
// MultiStage (split BHT)
// ---------------------------------------------------------------------

MultiStageScheme::MultiStageScheme(std::unique_ptr<LocalPredictor> lp,
                                   std::unique_ptr<LocalPredictor> bht_tage,
                                   bool shared_pt, const RepairConfig &cfg)
    : WalkSchemeBase(std::move(lp), cfg, cfg.coalesce),
      bhtTage_(std::move(bht_tage)), sharedPt_(shared_pt)
{
    lbp_assert(bhtTage_ != nullptr);
}

bool
MultiStageScheme::atPredict(DynInst &di, bool tage_dir, Cycle now)
{
    BranchRec &br = *di.br;
    const bool usable = !tageBusy(now);
    if (!usable)
        ++stats_.deniedPredictions;
    br.local = usable ? bhtTage_->predict(di.pc) : LocalPred{};
    decide(br, tage_dir);

    // BHT-TAGE is speculatively updated but never checkpointed; during
    // a repair period incoming PCs have their valid bits reset instead
    // (section 3.2.1).
    if (tageBusy(now))
        bhtTage_->invalidateEntry(di.pc);
    else
        bhtTage_->specUpdate(di.pc, br.finalPred);

    return br.finalPred;
}

RepairScheme::AllocOutcome
MultiStageScheme::atAlloc(DynInst &di, Cycle now)
{
    AllocOutcome out;
    BranchRec &br = *di.br;

    if (deferBusy(now)) {
        // Rare: the instruction reached BHT-Defer mid-repair — no
        // prediction, state marked invalid (section 3.2.1).
        lp_->invalidateEntry(di.pc);
        ++stats_.deniedPredictions;
        return out;
    }

    const LocalPred lp = lp_->predict(di.pc);
    const bool use = overrides(lp);

    if (use && lp.dir != br.finalPred && !di.wrongPath) {
        // Deferred override: resteer the pipeline from the alloc stage.
        out.resteer = true;
        out.dir = lp.dir;
        br.finalPred = lp.dir;
        br.usedLoop = true;
        br.earlyResteered = true;
        ++stats_.earlyResteers;
        if (lp.dir != di.actualDir)
            ++stats_.earlyResteersWrong;
    } else if (use) {
        br.usedLoop = true;
    }
    // BHT-Defer's lookup governs chooser training and repair payloads.
    br.local = lp;
    br.loopDir = lp.dir;

    checkpoint(di, now);
    lp_->specUpdate(di.pc, br.finalPred);
    br.specUpdated = true;
    logSpecUpdate(di.seq, di.pc);
    return out;
}

RepairOutcome
MultiStageScheme::repair(DynInst &cause, Cycle now)
{
    if (cause.br->obqId == invalidId)
        return {.action = Action::Uncovered};

    // Phase 1: forward-walk BHT-Defer from the OBQ. Defer's own 4
    // prediction-side write ports double as repair ports (no extra
    // ports: it is not predicting while fetch refills the pipe).
    const unsigned walked = forwardWalk(cause);
    const auto writes = static_cast<unsigned>(repaired_.size());
    const Cycle defer_cycles = holdBht(
        now, writes, std::max(1u, std::min(cfg_.ports.readPorts, 4u)));

    // Phase 2: copy the repaired PCs into BHT-TAGE through its own
    // prediction ports (4/cycle); it declines predictions meanwhile.
    for (Addr pc : repaired_) {
        bool present = false;
        const LocalState st = lp_->readState(pc, &present);
        if (present)
            bhtTage_->writeState(pc, st);
    }
    const Cycle copy_cycles = ceilDiv(writes, 4u);
    tageBusyUntil_ = busyUntil_ + copy_cycles;

    return {.action = Action::Walk, .walked = walked,
            .writes = 2 * writes, .tableWrites = writes,
            .cycles = defer_cycles + copy_cycles};
}

void
MultiStageScheme::atRetire(DynInst &di)
{
    WalkSchemeBase::atRetire(di);
    // A split PT gives BHT-TAGE its own pattern table to train.
    if (!sharedPt_) {
        bhtTage_->retireTrain(di.pc, di.actualDir);
        if (di.br->local.predictable)
            bhtTage_->predictionFeedback(di.pc, di.br->loopDir,
                                         di.actualDir);
    }
}

double
MultiStageScheme::storageKB() const
{
    // Repair bits for BHT-TAGE too. Every term is a multiple of 1/8192,
    // so the sum is exact in any order.
    return WalkSchemeBase::storageKB() + bhtTage_->bhtEntries() / 8192.0;
}

double
MultiStageScheme::localStorageKB() const
{
    return lp_->storageKB() + bhtTage_->storageKB();
}

} // namespace lbp
