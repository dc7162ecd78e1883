#include "core/core.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "verify/auditor.hh"

namespace lbp {

CoreStats
CoreStats::delta(const CoreStats &a, const CoreStats &b)
{
    CoreStats d;
    d.cycles = a.cycles - b.cycles;
    d.retiredInstrs = a.retiredInstrs - b.retiredInstrs;
    d.retiredCond = a.retiredCond - b.retiredCond;
    d.mispredicts = a.mispredicts - b.mispredicts;
    d.earlyResteers = a.earlyResteers - b.earlyResteers;
    d.wrongPathFetched = a.wrongPathFetched - b.wrongPathFetched;
    d.btbMisses = a.btbMisses - b.btbMisses;
    d.fetchedInstrs = a.fetchedInstrs - b.fetchedInstrs;
    return d;
}

OooCore::OooCore(const Program &prog, const SimConfig &cfg)
    : OooCore(prog, cfg,
              cfg.useLocal ? makeRepairScheme(cfg.repair) : nullptr)
{
}

OooCore::OooCore(const Program &prog, const SimConfig &cfg,
                 std::unique_ptr<RepairScheme> scheme)
    : prog_(prog), cfg_(cfg), exec_(prog), mem_(cfg.core.mem),
      tage_(cfg.tage),
      btb_(cfg.core.btbEntries / cfg.core.btbWays, cfg.core.btbWays),
      fetchQueue_(cfg.core.fetchQueueEntries),
      deferQueue_(cfg.core.fetchQueueEntries),
      replay_(1024),
      rob_(cfg.core.robEntries),
      issueCal_(1u << calLog, 0), loadCal_(1u << calLog, 0),
      storeCal_(1u << calLog, 0),
      resolveWheel_(wheelLog),
      // Live branch records are bounded by fetch-queue + ROB occupancy
      // (everything else has been squashed and freed); the margin
      // absorbs the replay backlog's one-cycle handover.
      brPool_(cfg.core.fetchQueueEntries + cfg.core.robEntries + 64,
              tage_.numTables()),
      ring_(ringSize()),
      trueSeqRing_(1u << trueRingLog, invalidSeq)
{
    scheme_ = std::move(scheme);
}

OooCore::~OooCore() = default;

void
OooCore::run(std::uint64_t instructions)
{
    const std::uint64_t target = stats_.retiredInstrs + instructions;
    std::uint64_t last_retired = stats_.retiredInstrs;
    std::uint64_t idle_steps = 0;
    bool maybe_idle = true;
    while (stats_.retiredInstrs < target) {
        // Idle fast-forward: when no stage can possibly act before the
        // earliest scheduled wakeup, jump straight to it instead of
        // spinning empty stepCycle iterations through a DRAM-miss
        // stall. Skipped cycles are provably no-ops, so the cycle
        // counters and all simulated state stay bit-identical. The
        // wakeup scan itself only runs after a cycle that made no
        // progress: a busy pipeline pays nothing for it, and the one
        // extra no-op stepCycle it takes to notice a stall is exactly
        // the iteration fastForwardTo would have replayed anyway.
        if (maybe_idle) {
            const Cycle wake = nextWakeup();
            if (wake > now_ + 1)
                fastForwardTo(wake);
        }
        const std::uint64_t pre_work = stats_.retiredInstrs +
                                       stats_.fetchedInstrs +
                                       stats_.mispredicts;
        stepCycle();
        maybe_idle = stats_.retiredInstrs + stats_.fetchedInstrs +
                         stats_.mispredicts ==
                     pre_work;
        if (stats_.retiredInstrs != last_retired) {
            last_retired = stats_.retiredInstrs;
            idle_steps = 0;
        } else if (++idle_steps > 100000) {
            const auto u64 = [](std::uint64_t v) {
                return static_cast<unsigned long long>(v);
            };
            std::fprintf(stderr,
                         "deadlock: now=%llu rob=%zu fq=%zu lq=%u sq=%u "
                         "wrongPath=%d stall=%llu pending=%zu replay=%zu\n",
                         u64(now_), rob_.size(),
                         fetchQueue_.size(), lqOcc_, sqOcc_,
                         static_cast<int>(wrongPath_),
                         u64(fetchStallUntil_),
                         resolveWheel_.size(), replay_.size());
            if (!rob_.empty()) {
                const DynInst &h = inst(rob_.front());
                std::fprintf(stderr,
                             "rob head seq=%llu done=%llu cls=%d\n",
                             u64(h.seq), u64(h.doneCycle),
                             static_cast<int>(h.cls));
            }
            if (divergeSeq_ != invalidSeq) {
                const DynInst &d = inst(divergeSeq_);
                std::fprintf(stderr,
                             "diverge seq=%llu slotseq=%llu misp=%d "
                             "done=%llu fetch=%llu nextSeq=%llu\n",
                             u64(divergeSeq_), u64(d.seq),
                             static_cast<int>(d.mispredicted),
                             u64(d.doneCycle), u64(d.fetchCycle),
                             u64(nextSeq_));
            }
            // Counting *stepped* iterations, not elapsed cycles: the
            // fast-forward can legitimately jump now_ by thousands per
            // step, and a cycle-based threshold would false-positive on
            // long (but progressing) stalls or never fire if a hung
            // core kept finding bogus wakeups.
            lbp_panic("core deadlock: no retirement in 100k steps");
        }
    }
}

/**
 * Earliest future cycle at which some stage might act; stepping at any
 * earlier cycle is provably a no-op. Candidates mirror the stages'
 * own guards exactly (conservative candidates may land on a no-op
 * cycle, which is harmless; a late candidate would diverge, so every
 * bound below errs early).
 */
Cycle
OooCore::nextWakeup()
{
    const Cycle t0 = now_ + 1;

    // Retire: the ROB head retires the cycle after it completes. More
    // than retireWidth ready heads just retires over multiple cycles,
    // which the max() clamp covers.
    Cycle cand = ~Cycle{0};
    if (!rob_.empty()) {
        cand = std::max(t0, inst(rob_.front()).doneCycle + 1);
        if (cand == t0)
            return t0;
    }

    // Defer: the queue head acts deferDepth cycles after fetch. A stale
    // head (squashed slot) is popped by the stage itself — step now.
    if (!deferQueue_.empty()) {
        const InstSeq s = deferQueue_.front();
        const DynInst &d = inst(s);
        if (d.seq != s)
            return t0;
        cand = std::min(cand,
                        std::max(t0, d.fetchCycle +
                                         cfg_.core.deferDepth));
        if (cand == t0)
            return t0;
    }

    // Alloc: the queue head allocates frontEndDepth cycles after fetch,
    // unless blocked on ROB/LQ/SQ space — then retirement (above) is
    // what unblocks it, in the same cycle it frees the entry.
    if (!fetchQueue_.empty()) {
        const DynInst &f = inst(fetchQueue_.front());
        bool blocked = rob_.size() >= cfg_.core.robEntries;
        if (!blocked && !f.wrongPath) {
            if (f.cls == InstClass::Load &&
                lqOcc_ >= cfg_.core.loadQueue)
                blocked = true;
            if (f.cls == InstClass::Store &&
                sqOcc_ >= cfg_.core.storeQueue)
                blocked = true;
        }
        if (!blocked) {
            cand = std::min(cand,
                            std::max(t0, f.fetchCycle +
                                             cfg_.core.frontEndDepth));
            if (cand == t0)
                return t0;
        }
    }

    // Fetch: acts once the stall lifts, provided there is queue space
    // and ring headroom (those two are freed by alloc/retire, whose
    // candidates already cover the unblocking cycle).
    if (fetchQueue_.size() < cfg_.core.fetchQueueEntries) {
        const InstSeq oldest_live =
            !rob_.empty()
                ? inst(rob_.front()).seq
                : (!fetchQueue_.empty() ? inst(fetchQueue_.front()).seq
                                        : nextSeq_);
        if (nextSeq_ - oldest_live < ringSize() - 64) {
            cand = std::min(cand, std::max(t0, fetchStallUntil_));
            if (cand == t0)
                return t0;
        }
    }

    // Resolve: earliest pending branch-resolution event.
    cand = resolveWheel_.nextEventTime(now_, cand);
    return cand == ~Cycle{0} ? t0 : cand;
}

/**
 * Jump to cycle @p t - 1 so the next stepCycle runs cycle @p t,
 * performing exactly the state changes the skipped no-op iterations
 * would have made: advancing the cycle counter and recycling the
 * calendar slots that rolled out of the scheduling window.
 */
void
OooCore::fastForwardTo(Cycle t)
{
    lbp_assert(t > now_ + 1);
    const Cycle skip = t - 1 - now_;
    const std::size_t cal_size = std::size_t{1} << calLog;
    if (skip >= cal_size) {
        std::fill(issueCal_.begin(), issueCal_.end(), 0);
        std::fill(loadCal_.begin(), loadCal_.end(), 0);
        std::fill(storeCal_.begin(), storeCal_.end(), 0);
    } else {
        const std::size_t mask = cal_size - 1;
        for (Cycle c = now_; c <= t - 2; ++c) {
            const std::size_t slot = static_cast<std::size_t>(c) & mask;
            issueCal_[slot] = 0;
            loadCal_[slot] = 0;
            storeCal_[slot] = 0;
        }
    }
    now_ = t - 1;
    stats_.cycles += skip;
}

void
OooCore::stepCycle()
{
    ++now_;
    ++stats_.cycles;
    // Recycle the calendar slot that just rolled into the window: slot
    // (now-1) % N now represents cycle now-1+N.
    const std::size_t slot =
        static_cast<std::size_t>(now_ - 1) & ((1u << calLog) - 1);
    issueCal_[slot] = 0;
    loadCal_[slot] = 0;
    storeCal_[slot] = 0;

    retireStage();
    resolveStage();
    deferStage();
    allocStage();
    fetchStage();
}

// ---------------------------------------------------------------------
// Retire
// ---------------------------------------------------------------------

void
OooCore::retireStage()
{
    unsigned n = 0;
    while (n < cfg_.core.retireWidth && !rob_.empty()) {
        DynInst &di = inst(rob_.front());
        if (di.doneCycle >= now_)
            break;
        rob_.popFront();
        if (di.cls == InstClass::Load) {
            lbp_assert(lqOcc_ > 0);
            --lqOcc_;
        } else if (di.cls == InstClass::Store) {
            lbp_assert(sqOcc_ > 0);
            --sqOcc_;
        }
        if (di.isCond()) {
            ++stats_.retiredCond;
            if (auditor_)
                auditor_->onRetire(di);
            if (scheme_)
                scheme_->atRetire(di);
            tage_.train(di.pc, di.actualDir, brRec(di).pred);
            freeBrRec(di);
        }
        ++stats_.retiredInstrs;
        if (tracer_)
            tracer_->stage(TraceStage::Retire, now_, now_, di.seq,
                           di.pc, false);
        ++n;
    }
}

// ---------------------------------------------------------------------
// Resolve (execute-time misprediction flush)
// ---------------------------------------------------------------------

void
OooCore::resolveStage()
{
    InstSeq seq = invalidSeq;
    while (resolveWheel_.popDue(now_, seq)) {
        DynInst &di = inst(seq);
        if (di.seq != seq || !di.mispredicted)
            continue;  // squashed or corrected at alloc
        doFlush(di);
    }
}

void
OooCore::doFlush(DynInst &br)
{
    ++stats_.mispredicts;
    br.mispredicted = false;

    // Local-predictor repair runs against the pre-squash checkpoints;
    // the forensics record and the auditor read what it did.
    RepairOutcome repair;
    if (scheme_) {
        repair = scheme_->recover(br, now_);
        if (auditor_)
            auditor_->onRecovery(br, scheme_->local(), repair);
    }

    // O(1) global-state repair: restore the checkpoint taken before
    // this branch's own history push, then re-push the actual outcome.
    tage_.restore(brRec(br).ckpt);
    tage_.specUpdateHist(br.pc, br.actualDir);
    br.br->finalPred = br.actualDir;

    // Everything fetched after the branch is wrong-path and lives only
    // in the fetch queue (wrong-path instructions never allocate);
    // their pooled branch records are dead with them.
    for (std::size_t i = 0; i < fetchQueue_.size(); ++i) {
        const InstSeq s = fetchQueue_[i];
        DynInst &q = inst(s);
        if (q.seq == s)
            freeBrRec(q);
    }
    fetchQueue_.clear();
    deferQueue_.clear();
    if (!rob_.empty())
        lbp_assert(inst(rob_.back()).seq <= br.seq);

    wrongPath_ = false;
    fetchStallUntil_ = std::max(fetchStallUntil_, now_ + 1);

    if (tracer_) {
        tracer_->stage(TraceStage::Resolve, now_, now_, br.seq, br.pc,
                       false);
        tracer_->stage(TraceStage::Squash, now_, now_, br.seq, br.pc,
                       false);
        SquashRecord rec;
        rec.cycle = now_;
        rec.pc = br.pc;
        rec.seq = br.seq;
        if (br.br->earlyResteered)
            rec.source = MispredictSource::BhtDefer;
        else if (br.br->usedLoop)
            rec.source = MispredictSource::LoopOverride;
        else if (brRec(br).pred.provider >= 0)
            rec.source = MispredictSource::TageTable;
        else
            rec.source = MispredictSource::Bimodal;
        rec.provider = brRec(br).pred.provider;
        rec.resolveLatency = now_ - br.fetchCycle;
        rec.wrongPathFetched = static_cast<std::uint32_t>(
            stats_.wrongPathFetched - tracer_->wrongPathAtDiverge());
        rec.obqOccupancy = scheme_ ? scheme_->obqOccupancy() : 0;
        rec.robOccupancy = static_cast<std::uint32_t>(rob_.size());
        rec.walkLength = repair.walked;
        rec.repairWrites = repair.writes;
        tracer_->squash(rec);
    }
}

// ---------------------------------------------------------------------
// Defer stage (alloc-queue entry): the multi-stage scheme's BHT-Defer
// lives here — a few cycles past fetch, before the allocation queue, so
// a deferred override resteers cheaply (section 3.2).
// ---------------------------------------------------------------------

void
OooCore::deferStage()
{
    while (!deferQueue_.empty()) {
        const InstSeq s = deferQueue_.front();
        DynInst &di = inst(s);
        if (di.seq != s) {  // squashed and slot reused
            deferQueue_.popFront();
            continue;
        }
        if (di.fetchCycle + cfg_.core.deferDepth > now_)
            break;
        deferQueue_.popFront();
        if (scheme_) {
            const auto out = scheme_->atAlloc(di, now_);
            // Defer-side audit record: di.br->local now holds the
            // checkpointed table's lookup. Branches squashed out of
            // the defer queue before this point never touched
            // BHT-Defer, so skipping them is exact, not a gap.
            if (auditor_ && scheme_->auditsAtAlloc())
                auditor_->onPredict(di);
            if (out.resteer)
                handleEarlyResteer(di, out.dir);
        }
    }
}

// ---------------------------------------------------------------------
// Alloc
// ---------------------------------------------------------------------

void
OooCore::allocStage()
{
    unsigned n = 0;
    while (n < cfg_.core.allocWidth && !fetchQueue_.empty()) {
        const InstSeq s = fetchQueue_.front();
        DynInst &di = inst(s);
        if (di.fetchCycle + cfg_.core.frontEndDepth > now_)
            break;

        // Wrong-path and true-path instructions alike need a free ROB
        // slot to allocate — wrong-path work occupies real back-end
        // resources in hardware, and letting it bypass ROB
        // backpressure would let fetch churn unboundedly down a wrong
        // path while a long dependence chain stalls the window.
        if (rob_.size() >= cfg_.core.robEntries)
            break;

        if (di.wrongPath) {
            // Consumes alloc bandwidth, then evaporates (its execution
            // is never simulated; its predictor side effects happened
            // at the defer stage).
            if (tracer_)
                tracer_->stage(TraceStage::Alloc, di.fetchCycle, now_,
                               di.seq, di.pc, true);
            freeBrRec(di);
            fetchQueue_.popFront();
            ++n;
            continue;
        }
        if (di.cls == InstClass::Load && lqOcc_ >= cfg_.core.loadQueue)
            break;
        if (di.cls == InstClass::Store && sqOcc_ >= cfg_.core.storeQueue)
            break;

        fetchQueue_.popFront();
        if (tracer_)
            tracer_->stage(TraceStage::Alloc, di.fetchCycle, now_,
                           di.seq, di.pc, false);
        scheduleInst(di);
        rob_.pushBack(s);
        if (di.cls == InstClass::Load)
            ++lqOcc_;
        else if (di.cls == InstClass::Store)
            ++sqOcc_;
        ++n;
    }
}

void
OooCore::handleEarlyResteer(DynInst &br, bool new_dir)
{
    ++stats_.earlyResteers;
    if (tracer_)
        tracer_->stage(TraceStage::Resteer, now_, now_, br.seq, br.pc,
                       false);

    // Queued instructions younger than the resteering branch vanish;
    // true-path ones must be re-fetchable afterwards, so stash their
    // descriptors for replay (the executor cannot rewind).
    while (!fetchQueue_.empty() &&
           inst(fetchQueue_.back()).seq > br.seq)
        fetchQueue_.popBack();
    // The popped ones are re-collected in fetch order below.
    for (InstSeq s = br.seq + 1; s < nextSeq_; ++s) {
        DynInst &q = inst(s);
        if (q.seq != s)
            continue;
        // Only a branch's cursor is ever read back (it seeds wrong-path
        // navigation), so only branches keep one.
        const CfgCursor cursor = q.br ? brRec(q).fetchCursor : CfgCursor{};
        // Squashed branches (wrong- and true-path alike) release their
        // pooled record; replayed ones get a fresh one at refetch.
        freeBrRec(q);
        if (q.wrongPath)
            continue;
        Replayed r;
        r.desc.pc = q.pc;
        r.desc.cls = q.cls;
        r.desc.dep1 = q.dep1;
        r.desc.dep2 = q.dep2;
        r.desc.branchId = -1;
        r.desc.taken = q.actualDir;
        r.desc.memAddr = q.memAddr;
        r.dynIdx = q.dynIdx;
        r.cursor = cursor;
        replay_.pushBack(r);
        q.seq = invalidSeq;  // slot retired from circulation
    }
    while (!deferQueue_.empty() &&
           inst(deferQueue_.back()).seq > br.seq)
        deferQueue_.popBack();

    // Rewind the speculative global history to this branch and re-push
    // the new direction.
    tage_.restore(brRec(br).ckpt);
    tage_.specUpdateHist(br.pc, new_dir);

    if (new_dir == br.actualDir) {
        // The deferred local prediction corrected a wrong fetch-time
        // direction: rejoin the true path. The executor paused at the
        // divergence, so fetch simply resumes consuming it (after any
        // replay backlog, which is empty in this case by construction).
        br.mispredicted = false;
        wrongPath_ = false;
    } else {
        // The deferred override was wrong: fetch diverges here, and the
        // branch pays the full misprediction penalty at execute too
        // (scheduleInst arms the resolve event right after this hook).
        br.mispredicted = true;
        wrongPath_ = true;
        if (tracer_)
            tracer_->noteDiverge(stats_.wrongPathFetched);
        nav_ = brRec(br).fetchCursor;
        cfgAdvance(prog_, nav_, new_dir);
    }
    fetchStallUntil_ = std::max(fetchStallUntil_, now_ + 1);
}

// ---------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------

void
OooCore::scheduleInst(DynInst &di)
{
    Cycle ready = now_ + 1;

    const auto depDone = [&](std::uint8_t dist) -> Cycle {
        if (!dist || dist > di.dynIdx)
            return 0;
        const std::uint64_t p_idx = di.dynIdx - dist;
        const InstSeq s =
            trueSeqRing_[p_idx & ((1u << trueRingLog) - 1)];
        if (s == invalidSeq)
            return 0;
        const DynInst &p = inst(s);
        if (p.seq != s || p.dynIdx != p_idx)
            return 0;  // stale slot: producer long retired
        return p.doneCycle;
    };

    ready = std::max(ready, depDone(di.dep1));
    ready = std::max(ready, depDone(di.dep2));

    unsigned lat = 1;
    switch (di.cls) {
      case InstClass::Mul:
        lat = cfg_.core.mulLatency;
        break;
      case InstClass::FpOp:
        lat = cfg_.core.fpLatency;
        break;
      case InstClass::Load:
        lat = mem_.dataAccess(di.memAddr);
        break;
      case InstClass::Store:
        // Address/data ready is all retirement needs; the write drains
        // post-commit and is not modeled.
        mem_.dataAccess(di.memAddr);
        lat = 1;
        break;
      default:
        lat = 1;
        break;
    }

    // Issue-port contention within the calendar window; dependence-bound
    // instructions issuing far in the future see no contention.
    Cycle t = ready;
    const Cycle horizon = now_ + (1u << calLog) - 64;
    if (t < horizon) {
        const unsigned mask = (1u << calLog) - 1;
        while (t < horizon) {
            const std::size_t slot = static_cast<std::size_t>(t) & mask;
            const bool port_free =
                issueCal_[slot] < cfg_.core.issueWidth &&
                (di.cls != InstClass::Load ||
                 loadCal_[slot] < cfg_.core.maxLoadsPerCycle) &&
                (di.cls != InstClass::Store ||
                 storeCal_[slot] < cfg_.core.maxStoresPerCycle);
            if (port_free)
                break;
            ++t;
        }
        const std::size_t slot = static_cast<std::size_t>(t) & mask;
        ++issueCal_[slot];
        if (di.cls == InstClass::Load)
            ++loadCal_[slot];
        else if (di.cls == InstClass::Store)
            ++storeCal_[slot];
    }

    di.doneCycle = t + lat;
    if (tracer_)
        tracer_->stage(TraceStage::Issue, t, di.doneCycle, di.seq,
                       di.pc, false);

    if (di.isCond() && di.mispredicted)
        resolveWheel_.schedule(di.doneCycle, di.seq, now_);
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
OooCore::fetchStage()
{
    if (now_ < fetchStallUntil_)
        return;

    // Safety net: never let new sequence numbers wrap the instruction
    // ring over slots that may still be referenced by the ROB or a
    // pending branch resolution.
    const InstSeq oldest_live =
        !rob_.empty() ? inst(rob_.front()).seq
                      : (!fetchQueue_.empty() ? inst(fetchQueue_.front()).seq
                                              : nextSeq_);
    if (nextSeq_ - oldest_live >= ringSize() - 64)
        return;

    // Wrong-path descriptors are built here; true-path ones are read
    // where they live (replay backlog or executor), never copied.
    DynInstDesc wrong_desc;
    unsigned n = 0;
    while (n < cfg_.core.fetchWidth &&
           fetchQueue_.size() < cfg_.core.fetchQueueEntries) {
        const DynInstDesc *desc = nullptr;
        std::uint64_t dyn_idx = 0;
        CfgCursor cursor_before{};
        bool from_executor = false;
        bool from_replay = false;

        if (!wrongPath_) {
            if (!replay_.empty()) {
                const Replayed &r = replay_.front();
                desc = &r.desc;
                dyn_idx = r.dynIdx;
                cursor_before = r.cursor;
                from_replay = true;
            } else {
                cursor_before = exec_.cursor();
                desc = &exec_.next();
                dyn_idx = exec_.instCount() - 1;
                from_executor = true;
            }
        } else {
            cursor_before = nav_;
            const StaticInst &si = cfgInst(prog_, nav_);
            wrong_desc.pc = si.pc;
            wrong_desc.cls = si.cls;
            wrong_desc.dep1 = si.dep1;
            wrong_desc.dep2 = si.dep2;
            desc = &wrong_desc;
        }

        icacheCheck(desc->pc);

        DynInst &di = makeInst(*desc, dyn_idx, wrongPath_);
        if (from_replay)
            replay_.popFront();
        if (tracer_)
            tracer_->stage(TraceStage::Fetch, now_, now_, di.seq,
                           di.pc, di.wrongPath);

        bool fetch_break = false;
        if (di.isCond()) {
            // A recycled record holds its last branch's state: reset
            // the part the schemes read; predict and checkpoint below
            // overwrite the TAGE part.
            TageBranchRec &tr = *brPool_.alloc();
            static_cast<BranchRec &>(tr) = BranchRec{};
            tr.fetchCursor = cursor_before;
            di.br = &tr;
            tage_.checkpoint(tr.ckpt);
            const bool tage_dir = tage_.predict(di.pc, tr.pred);
            bool final_dir = tage_dir;
            if (scheme_) {
                final_dir = scheme_->atPredict(di, tage_dir, now_);
                // MultiStage audits BHT-Defer, whose lookup happens at
                // the defer stage; recording here would capture
                // BHT-TAGE's (unaudited, disposable) state instead.
                if (auditor_ && !scheme_->auditsAtAlloc())
                    auditor_->onPredict(di);
            } else {
                tr.tageDir = tage_dir;
                tr.finalPred = tage_dir;
            }
            tage_.specUpdateHist(di.pc, final_dir);

            if (!di.wrongPath) {
                if (scheme_ && from_executor)
                    scheme_->atTruePathFetch(di);
                di.mispredicted = final_dir != di.actualDir;
                if (di.mispredicted) {
                    // Fetch sails on down the wrong edge.
                    wrongPath_ = true;
                    divergeSeq_ = di.seq;
                    if (tracer_)
                        tracer_->noteDiverge(stats_.wrongPathFetched);
                    nav_ = cursor_before;
                    cfgAdvance(prog_, nav_, final_dir);
                }
            } else {
                cfgAdvance(prog_, nav_, final_dir);
            }

            if (final_dir) {
                btbCheck(di.pc);
                fetch_break = true;  // taken branch ends the group
            }
        } else if (di.cls == InstClass::Jump) {
            tage_.specUpdateHist(di.pc, true);
            if (di.wrongPath)
                cfgAdvance(prog_, nav_, true);
            btbCheck(di.pc);
            fetch_break = true;
        } else {
            if (di.wrongPath)
                cfgAdvance(prog_, nav_, false);
        }

        fetchQueue_.pushBack(di.seq);
        if (di.isCond() && scheme_)
            deferQueue_.pushBack(di.seq);
        ++n;
        if (fetch_break || now_ < fetchStallUntil_)
            break;
    }
}

void
OooCore::btbCheck(Addr pc)
{
    if (!btb_.lookup(pc >> 2)) {
        ++stats_.btbMisses;
        btb_.insert(pc >> 2);
        fetchStallUntil_ =
            std::max(fetchStallUntil_, now_ + cfg_.core.btbMissPenalty);
    }
}

void
OooCore::icacheCheck(Addr pc)
{
    const Addr line = pc & ~static_cast<Addr>(63);
    if (line == lastFetchLine_)
        return;
    lastFetchLine_ = line;
    const unsigned lat = mem_.fetchAccess(pc);
    const unsigned l1_lat = cfg_.core.mem.l1i.latency;
    if (lat > l1_lat) {
        fetchStallUntil_ =
            std::max(fetchStallUntil_, now_ + (lat - l1_lat));
    }
}

DynInst &
OooCore::makeInst(const DynInstDesc &desc, std::uint64_t dyn_idx,
                  bool wrong_path)
{
    const InstSeq seq = nextSeq_++;
    DynInst &di = inst(seq);
    // Backstop: every squash/retire path frees its pooled record, but a
    // leaked one must not survive slot reuse.
    freeBrRec(di);
    // Every field is written below (and br is null once freed), so the
    // slot needs no whole-record reset.
    di.seq = seq;
    di.pc = desc.pc;
    di.cls = desc.cls;
    di.dep1 = desc.dep1;
    di.dep2 = desc.dep2;
    di.wrongPath = wrong_path;
    di.actualDir = desc.taken;
    di.mispredicted = false;
    di.memAddr = desc.memAddr;
    di.dynIdx = dyn_idx;
    di.fetchCycle = now_;
    di.doneCycle = 0;
    if (!wrong_path)
        trueSeqRing_[dyn_idx & ((1u << trueRingLog) - 1)] = seq;
    ++stats_.fetchedInstrs;
    if (wrong_path)
        ++stats_.wrongPathFetched;
    return di;
}

} // namespace lbp
