#include "repair/schemes.hh"

#include <algorithm>

#include "common/logging.hh"

namespace lbp {

namespace {

/** ROB entries charged for per-instruction repair baggage (Table 2/3). */
constexpr unsigned robEntriesForStorage = 224;

Cycle
ceilDiv(std::uint64_t work, unsigned per_cycle)
{
    return (work + per_cycle - 1) / per_cycle;
}

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

void
PerfectRepairScheme::atMispredict(DynInst &di, Cycle now)
{
    RepairScheme::atMispredict(di, now);
    // Instant, unbounded restore: the shadow table already reflects the
    // architectural path up to and including this branch.
    lp_->restoreBht(oracle_->snapshotBht());
    stats_.writesPerRepair.sample(lp_->bhtEntries());
    stats_.repairCycles.sample(0);
}

// ---------------------------------------------------------------------
// WalkSchemeBase
// ---------------------------------------------------------------------

WalkSchemeBase::WalkSchemeBase(std::unique_ptr<LocalPredictor> lp,
                               const RepairConfig &cfg, bool coalesce)
    : RepairScheme(std::move(lp), cfg),
      obq_(cfg.ports.entries, coalesce)
{
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
WalkSchemeBase::atSquash(InstSeq kept_seq, const DynInst &cause)
{
    obq_.squashYoungerThan(kept_seq, cause.pc, cause.br->local.preState);
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

void
BackwardWalkScheme::atMispredict(DynInst &di, Cycle now)
{
    RepairScheme::atMispredict(di, now);
    if (di.br->obqId == invalidId) {
        ++stats_.uncheckpointedMispredicts;
        return;
    }

    // Youngest entry first, down to (and including) the mispredicting
    // branch. Duplicate PCs get rewritten on every occurrence; the last
    // write (the oldest instance's pre-state) is the correct one.
    unsigned walked = 0;
    unsigned writes = 0;
    const std::uint64_t begin = std::max(di.br->obqId, obq_.head());
    for (std::uint64_t id = obq_.tail(); id-- > begin;) {
        const Obq::Entry &e = obq_.at(id);
        lp_->writeState(e.pc, e.preState);
        ++walked;
        ++writes;
    }

    // Step 7 (section 2.4): fold in the branch's own resolution; only
    // possible when this branch's pre-state was actually checkpointed.
    if (di.br->checkpointed) {
        bool present = false;
        const LocalState st = lp_->readState(di.pc, &present);
        if (present) {
            lp_->writeState(di.pc, lp_->advanceState(st, di.actualDir));
            ++writes;
        }
    }

    const Cycle start = std::max<Cycle>(now + 1, busyUntil_);
    const Cycle cycles = ceilDiv(writes, repairThroughput());
    busyUntil_ = start + cycles;

    stats_.repairWrites += writes;
    stats_.walkLength.sample(walked);
    stats_.writesPerRepair.sample(writes);
    stats_.repairCycles.sample(cycles);
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
    if (now >= busyUntil_) {
        if (!pendingRepair_.empty())
            pendingRepair_.clear();
        return true;
    }
    const auto it = pendingRepair_.find(pc);
    if (it == pendingRepair_.end())
        return true;
    if (now >= it->second) {
        pendingRepair_.erase(it);
        return true;
    }
    return false;
}

void
ForwardWalkScheme::atMispredict(DynInst &di, Cycle now)
{
    RepairScheme::atMispredict(di, now);
    if (di.br->obqId == invalidId) {
        ++stats_.uncheckpointedMispredicts;
        return;
    }

    lp_->setAllRepairBits();
    pendingRepair_.clear();

    const unsigned tput = repairThroughput();
    const Cycle start = std::max<Cycle>(now + 1, busyUntil_);
    unsigned walked = 0;
    unsigned writes = 0;

    std::uint64_t begin = std::max(di.br->obqId, obq_.head());
    if (di.br->checkpointed && di.br->mergedEntry) {
        // This branch shares a coalesced entry: repair its PC from the
        // state carried with the instruction (section 3.1), then walk
        // the strictly-younger entries.
        if (lp_->testClearRepairBit(di.pc)) {
            lp_->writeState(di.pc, lp_->advanceState(
                                       di.br->local.preState,
                                       di.actualDir));
            ++writes;
            pendingRepair_[di.pc] = start + ceilDiv(writes, tput);
        }
        begin = di.br->obqId + 1;
    }

    for (std::uint64_t id = begin; id < obq_.tail(); ++id) {
        ++walked;
        const Obq::Entry &e = obq_.at(id);
        // The repair bit guarantees one write per PC: the first (i.e.
        // oldest) instance wins, which is the architectural pre-state.
        if (!lp_->testClearRepairBit(e.pc))
            continue;
        LocalState st = e.preState;
        if (di.br->checkpointed && id == di.br->obqId && e.pc == di.pc)
            st = lp_->advanceState(st, di.actualDir);
        lp_->writeState(e.pc, st);
        ++writes;
        pendingRepair_[e.pc] = start + ceilDiv(writes, tput);
    }

    busyUntil_ = start + ceilDiv(writes, tput);

    stats_.repairWrites += writes;
    stats_.walkLength.sample(walked);
    stats_.writesPerRepair.sample(writes);
    stats_.repairCycles.sample(busyUntil_ - start);
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
    if (tail_ - head_ == ring_.size()) {
        // Oldest snapshot evicted; a misprediction older than the
        // window can no longer be repaired.
        ++head_;
        ++evictions_;
    }
    Snap &s = ring_[tail_ % ring_.size()];
    s.seq = di.seq;
    s.data = lp_->snapshotBht();
    di.br->snapId = tail_++;
    di.br->checkpointed = true;
}

void
SnapshotScheme::atMispredict(DynInst &di, Cycle now)
{
    RepairScheme::atMispredict(di, now);
    if (!di.br->checkpointed || di.br->snapId < head_ ||
        di.br->snapId >= tail_) {
        ++stats_.uncheckpointedMispredicts;
        return;
    }

    lp_->restoreBht(ring_[di.br->snapId % ring_.size()].data);
    bool present = false;
    const LocalState st = lp_->readState(di.pc, &present);
    if (present)
        lp_->writeState(di.pc, lp_->advanceState(st, di.actualDir));

    // Restoring a snapshot rewrites the whole BHT through the limited
    // ports; the table is unavailable until done.
    const unsigned writes = lp_->bhtEntries() + 1;
    const Cycle start = std::max<Cycle>(now + 1, busyUntil_);
    const Cycle cycles = ceilDiv(writes, repairThroughput());
    busyUntil_ = start + cycles;

    stats_.repairWrites += writes;
    stats_.writesPerRepair.sample(writes);
    stats_.repairCycles.sample(cycles);
}

void
SnapshotScheme::atSquash(InstSeq kept_seq, const DynInst &)
{
    while (tail_ > head_ &&
           ring_[(tail_ - 1) % ring_.size()].seq > kept_seq) {
        --tail_;
    }
}

void
SnapshotScheme::atRetire(DynInst &di)
{
    RepairScheme::atRetire(di);
    while (head_ < tail_ && ring_[head_ % ring_.size()].seq <= di.seq)
        ++head_;
}

double
SnapshotScheme::storageKB() const
{
    // Each snapshot stores every BHT entry's state+tag (~13+8 bits).
    const double bits_per_snap = lp_->bhtEntries() * 21.0;
    return static_cast<double>(ring_.size()) * bits_per_snap / 8192.0 +
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
    lastRepairSet_.reserve(maxM);
}

bool
LimitedPcScheme::bhtUsable(Addr, Cycle) const
{
    // Limited-PC repair writes its M entries through dedicated write
    // ports (Table 3: 0 read / M write) in a deterministic one or two
    // cycles that overlap the flush shadow, so the prediction path is
    // never blocked — that determinism is the technique's selling
    // point (section 3.3).
    return true;
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
            if (p.pcs[i].first == pc)
                return;
        p.pcs[p.count++] = {pc, st};
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

void
LimitedPcScheme::atMispredict(DynInst &di, Cycle now)
{
    RepairScheme::atMispredict(di, now);
    lastRepairSet_.clear();
    const Payload &p =
        payloadRing_[di.seq & (payloadRing_.size() - 1)];
    if (!di.br->checkpointed || p.seq != di.seq) {
        ++stats_.uncheckpointedMispredicts;
        return;
    }

    for (unsigned i = 0; i < p.count; ++i) {
        const auto &[pc, st] = p.pcs[i];
        if (pc == di.pc)
            lp_->writeState(pc, lp_->advanceState(st, di.actualDir));
        else
            lp_->writeState(pc, st);
        lastRepairSet_.push_back(pc);
    }

    if (cfg_.limitedInvalidate) {
        // Ablation policy: polluted-but-unrepaired PCs are invalidated
        // so they stop overriding until they re-learn.
        // (The paper found leave-as-is better; section 3.3.)
        // Approximated via the pollution log.
        // Note: invalidation of repaired PCs is avoided.
        for (Addr pc : pollutedListSince(di.seq)) {
            bool repaired = false;
            for (unsigned i = 0; i < p.count; ++i)
                if (p.pcs[i].first == pc)
                    repaired = true;
            if (!repaired)
                lp_->invalidateEntry(pc);
        }
    }

    const unsigned writes = p.count;
    const unsigned tput = std::max(1u, cfg_.ports.bhtWritePorts);
    const Cycle start = std::max<Cycle>(now + 1, busyUntil_);
    const Cycle cycles = ceilDiv(writes, tput);
    busyUntil_ = start + cycles;

    stats_.repairWrites += writes;
    stats_.writesPerRepair.sample(writes);
    stats_.repairCycles.sample(cycles);
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

RepairScheme::PredictOutcome
FutureFileScheme::atPredict(DynInst &di, bool tage_dir, Cycle now)
{
    (void)now;
    BranchRec &br = *di.br;
    br.tageDir = tage_dir;

    // Associative search of the youngest ffWindow entries for this PC;
    // a hit yields the speculative state, otherwise fall back to the
    // retirement-updated BHT.
    bool known = false;
    LocalState state = 0;
    const std::uint64_t window =
        std::min<std::uint64_t>(tail_ - head_, cfg_.ffWindow);
    for (std::uint64_t i = 0; i < window; ++i) {
        const Entry &e = slot(tail_ - 1 - i);
        if (e.pc == di.pc) {
            known = true;
            state = e.state;
            break;
        }
    }
    if (!known)
        state = lp_->readState(di.pc, &known);

    br.local = lp_->predictFrom(di.pc, state, known);
    br.loopDir = br.local.dir;
    const bool use = br.local.valid &&
                     (!cfg_.useChooser || withLoop_.value() >= 0);
    br.usedLoop = use;
    br.finalPred = use ? br.local.dir : tage_dir;

    // Append the post-update speculative state; on overflow the PC is
    // simply untracked (reads will see stale architectural state).
    if (tail_ - head_ < ring_.size()) {
        Entry &e = slot(tail_);
        e.pc = di.pc;
        e.state = lp_->advanceState(state, br.finalPred);
        e.seq = di.seq;
        br.obqId = tail_++;
        br.checkpointed = true;
    }
    logSpecUpdate(di.seq, di.pc);
    return {br.finalPred, use};
}

void
FutureFileScheme::atMispredict(DynInst &di, Cycle now)
{
    RepairScheme::atMispredict(di, now);
    if (!di.br->checkpointed || di.br->obqId < head_) {
        ++stats_.uncheckpointedMispredicts;
        return;
    }
    // O(1) repair: drop everything younger and rewrite this branch's
    // own entry with its resolved outcome.
    tail_ = di.br->obqId + 1;
    Entry &e = slot(di.br->obqId);
    e.state = lp_->advanceState(di.br->local.preState, di.actualDir);
    stats_.repairWrites += 1;
    stats_.writesPerRepair.sample(1);
    stats_.repairCycles.sample(0);
}

void
FutureFileScheme::atSquash(InstSeq kept_seq, const DynInst &)
{
    while (tail_ > head_ && slot(tail_ - 1).seq > kept_seq)
        --tail_;
}

void
FutureFileScheme::atRetire(DynInst &di)
{
    RepairScheme::atRetire(di);
    // The architectural BHT is written at retirement, and retired
    // entries leave the queue.
    lp_->specUpdate(di.pc, di.actualDir);
    while (head_ < tail_ && slot(head_).seq <= di.seq)
        ++head_;
}

double
FutureFileScheme::storageKB() const
{
    // Same 76-bit entries as the OBQ, plus the comparators' cost is
    // power, not storage.
    return static_cast<double>(ring_.size()) * 76.0 / 8192.0;
}

// ---------------------------------------------------------------------
// MultiStage (split BHT)
// ---------------------------------------------------------------------

MultiStageScheme::MultiStageScheme(std::unique_ptr<LocalPredictor> lp,
                                   std::unique_ptr<LocalPredictor> bht_tage,
                                   bool shared_pt, const RepairConfig &cfg)
    : RepairScheme(std::move(lp), cfg), bhtTage_(std::move(bht_tage)),
      sharedPt_(shared_pt), obq_(cfg.ports.entries, cfg.coalesce)
{
    lbp_assert(bhtTage_ != nullptr);
}

RepairScheme::PredictOutcome
MultiStageScheme::atPredict(DynInst &di, bool tage_dir, Cycle now)
{
    BranchRec &br = *di.br;
    br.tageDir = tage_dir;

    const bool usable = !tageBusy(now);
    if (!usable)
        ++stats_.deniedPredictions;
    const LocalPred lp = usable ? bhtTage_->predict(di.pc) : LocalPred{};
    br.local = lp;
    br.loopDir = lp.dir;

    const bool use = lp.valid &&
                     (!cfg_.useChooser || withLoop_.value() >= 0);
    br.usedLoop = use;
    br.finalPred = use ? lp.dir : tage_dir;

    // BHT-TAGE is speculatively updated but never checkpointed; during
    // a repair period incoming PCs have their valid bits reset instead
    // (section 3.2.1).
    if (tageBusy(now))
        bhtTage_->invalidateEntry(di.pc);
    else
        bhtTage_->specUpdate(di.pc, br.finalPred);

    return {br.finalPred, use};
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
    const bool use = lp.valid &&
                     (!cfg_.useChooser || withLoop_.value() >= 0);

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

    br.obqId = invalidId;
    br.checkpointed = false;
    br.mergedEntry = false;
    if (lp.bhtHit) {
        bool merged = false;
        const std::uint64_t id =
            obq_.push(di.pc, lp.preState, di.seq, &merged);
        if (id != invalidId) {
            br.obqId = id;
            br.checkpointed = true;
            br.mergedEntry = merged;
        }
    } else if (!obq_.full()) {
        br.obqId = obq_.tail();
    }

    lp_->specUpdate(di.pc, br.finalPred);
    br.specUpdated = true;
    logSpecUpdate(di.seq, di.pc);
    return out;
}

void
MultiStageScheme::atMispredict(DynInst &di, Cycle now)
{
    RepairScheme::atMispredict(di, now);
    if (di.br->obqId == invalidId) {
        ++stats_.uncheckpointedMispredicts;
        return;
    }

    // Phase 1: forward-walk BHT-Defer from the OBQ. Defer's own 4
    // prediction-side write ports double as repair ports (no extra
    // ports: it is not predicting while fetch refills the pipe).
    lp_->setAllRepairBits();
    const unsigned tput =
        std::max(1u, std::min(cfg_.ports.readPorts, 4u));
    unsigned walked = 0;
    unsigned writes = 0;
    std::vector<Addr> repaired;

    std::uint64_t begin = std::max(di.br->obqId, obq_.head());
    if (di.br->checkpointed && di.br->mergedEntry) {
        if (lp_->testClearRepairBit(di.pc)) {
            lp_->writeState(di.pc,
                            lp_->advanceState(di.br->local.preState,
                                              di.actualDir));
            ++writes;
            repaired.push_back(di.pc);
        }
        begin = di.br->obqId + 1;
    }
    for (std::uint64_t id = begin; id < obq_.tail(); ++id) {
        ++walked;
        const Obq::Entry &e = obq_.at(id);
        if (!lp_->testClearRepairBit(e.pc))
            continue;
        LocalState st = e.preState;
        if (di.br->checkpointed && id == di.br->obqId && e.pc == di.pc)
            st = lp_->advanceState(st, di.actualDir);
        lp_->writeState(e.pc, st);
        ++writes;
        repaired.push_back(e.pc);
    }

    const Cycle start = std::max<Cycle>(now + 1, deferBusyUntil_);
    deferBusyUntil_ = start + ceilDiv(writes, tput);

    // Phase 2: copy the repaired PCs into BHT-TAGE through its own
    // prediction ports (4/cycle); it declines predictions meanwhile.
    for (Addr pc : repaired) {
        bool present = false;
        const LocalState st = lp_->readState(pc, &present);
        if (present)
            bhtTage_->writeState(pc, st);
    }
    tageBusyUntil_ =
        deferBusyUntil_ +
        ceilDiv(static_cast<unsigned>(repaired.size()), 4u);

    stats_.repairWrites += writes + repaired.size();
    stats_.walkLength.sample(walked);
    stats_.writesPerRepair.sample(writes);
    stats_.repairCycles.sample(tageBusyUntil_ - start);
}

void
MultiStageScheme::atSquash(InstSeq kept_seq, const DynInst &cause)
{
    obq_.squashYoungerThan(kept_seq, cause.pc, cause.br->local.preState);
}

void
MultiStageScheme::atRetire(DynInst &di)
{
    lp_->retireTrain(di.pc, di.actualDir);
    if (!sharedPt_)
        bhtTage_->retireTrain(di.pc, di.actualDir);

    BranchRec &br = *di.br;
    if (br.local.predictable) {
        lp_->predictionFeedback(di.pc, br.loopDir, di.actualDir);
        if (!sharedPt_)
            bhtTage_->predictionFeedback(di.pc, br.loopDir,
                                         di.actualDir);
    }
    if (br.local.valid && br.loopDir != br.tageDir)
        withLoop_.update(br.loopDir == di.actualDir);
    if (br.usedLoop) {
        ++stats_.overrides;
        if (br.loopDir == di.actualDir)
            ++stats_.overridesCorrect;
    }
    if (br.checkpointed)
        obq_.retireUpTo(br.obqId, di.seq);
}

double
MultiStageScheme::storageKB() const
{
    const double obq_kb = obq_.storageKB();
    const double repair_bits_kb =
        (lp_->bhtEntries() + bhtTage_->bhtEntries()) / 8192.0;
    const double rob_kb = robEntriesForStorage * 16.0 / 8192.0;
    return obq_kb + repair_bits_kb + rob_kb;
}

double
MultiStageScheme::localStorageKB() const
{
    return lp_->storageKB() + bhtTage_->storageKB();
}

} // namespace lbp
