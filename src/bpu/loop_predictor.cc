#include "bpu/loop_predictor.hh"

#include "common/logging.hh"

namespace lbp {

// ---------------------------------------------------------------------
// LoopConfig
// ---------------------------------------------------------------------

LoopConfig
LoopConfig::entries64()
{
    LoopConfig cfg;
    cfg.bhtEntries = 64;
    cfg.ptEntries = 64;
    return cfg;
}

LoopConfig
LoopConfig::entries128()
{
    return LoopConfig{};
}

LoopConfig
LoopConfig::entries256()
{
    LoopConfig cfg;
    cfg.bhtEntries = 256;
    cfg.ptEntries = 256;
    return cfg;
}

// ---------------------------------------------------------------------
// LoopPatternTable
// ---------------------------------------------------------------------

LoopPatternTable::LoopPatternTable(unsigned entries, unsigned ways,
                                   unsigned conf_bits,
                                   unsigned conf_threshold,
                                   unsigned conf_penalty,
                                   unsigned tag_bits)
    : table_(entries / ways, ways), confBits_(conf_bits),
      confThresh_(conf_threshold), confPenalty_(conf_penalty),
      tagBits_(tag_bits)
{
    lbp_assert(entries % ways == 0);
    lbp_assert(conf_threshold <= ((1u << conf_bits) - 1));
}

const LoopPatternTable::Entry *
LoopPatternTable::lookup(Addr pc, bool touch)
{
    const auto *way = table_.lookup(key(pc), touch);
    return way ? &way->data : nullptr;
}

void
LoopPatternTable::train(Addr pc, bool sense, std::uint16_t period)
{
    // Single-occurrence "runs" are flips, not loop bodies; training on
    // them would make alternating branches fight over the entry.
    if (period < 2)
        return;

    const std::uint8_t conf_max =
        static_cast<std::uint8_t>((1u << confBits_) - 1);
    auto *way = table_.lookup(key(pc));
    if (!way) {
        auto &fresh = table_.insert(key(pc));
        fresh.data.trip = period;
        fresh.data.sense = sense;
        fresh.data.conf = 0;
        return;
    }
    Entry &e = way->data;
    // Confidence is owned by the prediction-feedback path (CBP-style:
    // every correct computed prediction raises it, a wrong one resets
    // it); exit events only (re)learn the trip while confidence is
    // down, so a changed loop re-trains instead of fighting.
    if (e.sense == sense) {
        if (e.trip != period && e.conf == 0)
            e.trip = period;
    } else if (e.conf == 0) {
        e.sense = sense;
        e.trip = period;
    }
    (void)conf_max;
}

void
LoopPatternTable::feedback(Addr pc, bool predicted, bool actual)
{
    auto *way = table_.lookup(key(pc), false);
    if (!way)
        return;
    if (predicted != actual) {
        // A wrong computed prediction costs confPenalty earned exits.
        way->data.conf = way->data.conf >= confPenalty_
                             ? static_cast<std::uint8_t>(way->data.conf -
                                                         confPenalty_)
                             : static_cast<std::uint8_t>(0);
    } else if (predicted != way->data.sense) {
        // Trust is earned only by correctly-called exits — the hard
        // predictions. Mid-run "continue" calls are trivially right
        // even for a desynchronized counter and must not rebuild
        // confidence, or unrepaired state would keep re-arming itself.
        if (way->data.conf < (1u << confBits_) - 1)
            ++way->data.conf;
    }
}

double
LoopPatternTable::storageKB() const
{
    // trip(11) + conf + sense(1) + tag + valid(1) per entry.
    const double bits_per_entry =
        11.0 + confBits_ + 1.0 + tagBits_ + 1.0;
    return table_.numEntries() * bits_per_entry / 8192.0;
}

// ---------------------------------------------------------------------
// LoopPredictor
// ---------------------------------------------------------------------

LoopPredictor::LoopPredictor(const LoopConfig &cfg,
                             LoopPatternTable *shared_pt)
    : cfg_(cfg), bht_(cfg.bhtEntries / cfg.bhtWays, cfg.bhtWays),
      ownPt_(cfg.ptEntries, cfg.ptWays, cfg.ptConfBits,
             cfg.ptConfThreshold, cfg.ptConfPenalty, cfg.ptTagBits),
      pt_(shared_pt ? shared_pt : &ownPt_)
{
    lbp_assert(cfg.bhtEntries % cfg.bhtWays == 0);
}

bool
LoopPredictor::statePredict(LocalState s,
                            const LoopPatternTable::Entry &e, bool *valid)
{
    *valid = false;
    if (!LoopState::known(s))
        return false;

    const std::uint16_t count = LoopState::count(s);
    const bool run_dir = LoopState::dir(s);
    if (run_dir == e.sense) {
        // Exit exactly when the learned trip is reached (CBP compares
        // CurrentIter == PastIter). An over-counted (polluted) state
        // falls through the equality and keeps predicting "continue":
        // the wrong state is temporary and resynchronizes at the next
        // direction flip (paper section 3.3 observation d) — a >=
        // rule would instead predict a confident early exit every
        // iteration and cascade wrong-path pollution forward.
        *valid = true;
        return count == e.trip ? !e.sense : e.sense;
    }
    // We are in the (normally single-occurrence) non-dominant run right
    // after an exit: the next occurrence returns to the dominant
    // direction. Longer non-dominant runs mean the behaviour shifted.
    if (count == 1) {
        *valid = true;
        return e.sense;
    }
    return false;
}

LocalPred
LoopPredictor::predict(Addr pc)
{
    LocalPred res;
    const auto *way = bht_.lookup(key(pc));
    if (way) {
        res.bhtHit = true;
        res.preState = way->data.state;
    }
    const auto *e = pt_->lookup(pc);
    if (res.bhtHit && e) {
        bool decidable = false;
        const bool dir = statePredict(res.preState, *e, &decidable);
        res.predictable = decidable;
        res.dir = dir;
        res.valid = decidable && pt_->confident(*e);
    }
    return res;
}

LocalPred
LoopPredictor::predictFrom(Addr pc, LocalState state, bool known)
{
    LocalPred res;
    res.bhtHit = known;
    res.preState = state;
    const auto *e = pt_->lookup(pc);
    if (known && e) {
        bool decidable = false;
        const bool dir = statePredict(state, *e, &decidable);
        res.predictable = decidable;
        res.dir = dir;
        res.valid = decidable && pt_->confident(*e);
    }
    return res;
}

void
LoopPredictor::specUpdate(Addr pc, bool dir)
{
    auto *way = bht_.lookup(key(pc));
    if (!way)
        way = &bht_.insert(key(pc));
    way->data.state = LoopState::advance(way->data.state, dir);
}

LoopPredictor::RunState &
LoopPredictor::runFor(Addr pc)
{
    if (retireRuns_.empty())
        retireRuns_.assign(256, {invalidAddr, RunState{}});
    for (;;) {
        const std::size_t mask = retireRuns_.size() - 1;
        std::size_t idx =
            (static_cast<std::size_t>(pc >> 2) * 0x9e3779b97f4a7c15ull) &
            mask;
        for (;;) {
            auto &slot = retireRuns_[idx];
            if (slot.first == pc)
                return slot.second;
            if (slot.first == invalidAddr)
                break;
            idx = (idx + 1) & mask;
        }
        if (retireRunCount_ * 2 < retireRuns_.size()) {
            auto &slot = retireRuns_[idx];
            slot.first = pc;
            ++retireRunCount_;
            return slot.second;
        }
        // Load factor reached 1/2: rehash into a doubled table.
        std::vector<std::pair<Addr, RunState>> old;
        old.swap(retireRuns_);
        retireRuns_.assign(old.size() * 2, {invalidAddr, RunState{}});
        const std::size_t grown_mask = retireRuns_.size() - 1;
        for (const auto &e : old) {
            if (e.first == invalidAddr)
                continue;
            std::size_t j = (static_cast<std::size_t>(e.first >> 2) *
                             0x9e3779b97f4a7c15ull) &
                            grown_mask;
            while (retireRuns_[j].first != invalidAddr)
                j = (j + 1) & grown_mask;
            retireRuns_[j] = e;
        }
    }
}

void
LoopPredictor::retireTrain(Addr pc, bool actual_dir)
{
    RunState &run = runFor(pc);
    if (run.known && run.dir != actual_dir) {
        pt_->train(pc, run.dir, run.count);
        run.count = 1;
        run.dir = actual_dir;
    } else if (!run.known) {
        run.known = true;
        run.dir = actual_dir;
        run.count = 1;
    } else {
        if (run.count < LoopState::counterMask)
            ++run.count;
    }
}

void
LoopPredictor::predictionFeedback(Addr pc, bool predicted, bool actual)
{
    pt_->feedback(pc, predicted, actual);
}

LocalState
LoopPredictor::readState(Addr pc, bool *present) const
{
    const auto *way = bht_.lookup(key(pc));
    *present = way != nullptr;
    return way ? way->data.state : 0;
}

void
LoopPredictor::writeState(Addr pc, LocalState state)
{
    if (auto *way = bht_.lookup(key(pc), false))
        way->data.state = state;
}

LocalState
LoopPredictor::advanceState(LocalState state, bool dir) const
{
    return LoopState::advance(state, dir);
}

void
LoopPredictor::invalidateEntry(Addr pc)
{
    bht_.invalidate(key(pc));
}

void
LoopPredictor::setAllRepairBits()
{
    for (auto &way : bht_.raw())
        way.data.repairBit = true;
}

bool
LoopPredictor::testClearRepairBit(Addr pc)
{
    auto *way = bht_.lookup(key(pc), false);
    if (!way)
        return false;
    const bool prev = way->data.repairBit;
    way->data.repairBit = false;
    return prev;
}

void
LoopPredictor::snapshotBhtInto(std::vector<std::uint64_t> &snap) const
{
    // Two words per way: [flags|state|tag], [lruStamp].
    const auto &ways = bht_.raw();
    snap.resize(ways.size() * 2);
    for (std::size_t i = 0; i < ways.size(); ++i) {
        const auto &way = ways[i];
        snap[i * 2] = (way.valid ? 1u : 0u) |
                      (way.data.repairBit ? 2u : 0u) |
                      (static_cast<std::uint64_t>(way.data.state) << 2) |
                      (way.tag << 18);
        snap[i * 2 + 1] = way.lruStamp;
    }
}

void
LoopPredictor::restoreBht(const std::vector<std::uint64_t> &snap)
{
    auto &ways = bht_.raw();
    lbp_assert(snap.size() == ways.size() * 2);
    for (std::size_t i = 0; i < ways.size(); ++i) {
        const std::uint64_t w = snap[i * 2];
        ways[i].valid = (w & 1) != 0;
        ways[i].data.repairBit = (w & 2) != 0;
        ways[i].data.state = static_cast<LocalState>((w >> 2) & 0xffff);
        ways[i].tag = w >> 18;
        ways[i].lruStamp = static_cast<std::uint32_t>(snap[i * 2 + 1]);
    }
}

double
LoopPredictor::storageKB() const
{
    // BHT: counter(11) + dir(1) + known(1) + repair(1) + tag + valid(1).
    const double bht_bits =
        bht_.numEntries() * (11.0 + 3.0 + cfg_.bhtTagBits + 1.0);
    const double pt_kb = pt_ == &ownPt_ ? ownPt_.storageKB() : 0.0;
    return bht_bits / 8192.0 + pt_kb;
}

} // namespace lbp
