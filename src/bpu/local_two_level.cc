#include "bpu/local_two_level.hh"

#include "common/logging.hh"

namespace lbp {

LocalTwoLevelPredictor::LocalTwoLevelPredictor(
    const LocalTwoLevelConfig &cfg)
    : cfg_(cfg), bht_(cfg.bhtEntries / cfg.bhtWays, cfg.bhtWays),
      patternTable_(1u << cfg.histBits, 0)
{
    lbp_assert(cfg.histBits >= 2 && cfg.histBits <= 11);
    lbp_assert(cfg.bhtEntries % cfg.bhtWays == 0);
    lbp_assert(cfg.ctrBits >= 2 && cfg.ctrBits <= 7);
}

LocalPred
LocalTwoLevelPredictor::predict(Addr pc)
{
    LocalPred res;
    const auto *way = bht_.lookup(key(pc));
    if (!way)
        return res;
    res.bhtHit = true;
    res.preState = way->data.state;
    if (!(res.preState & knownBit))
        return res;

    const unsigned hist = res.preState & histMask();
    const std::int8_t ctr = patternTable_[hist];
    const int margin = static_cast<int>(cfg_.confMargin);
    res.predictable = true;
    res.dir = ctr >= 0;
    res.valid = ctr >= margin || ctr < -margin;
    return res;
}

LocalPred
LocalTwoLevelPredictor::predictFrom(Addr pc, LocalState state,
                                    bool known)
{
    (void)pc;
    LocalPred res;
    res.bhtHit = known;
    res.preState = state;
    if (!known || !(state & knownBit))
        return res;
    const std::int8_t ctr = patternTable_[state & histMask()];
    const int margin = static_cast<int>(cfg_.confMargin);
    res.predictable = true;
    res.dir = ctr >= 0;
    res.valid = ctr >= margin || ctr < -margin;
    return res;
}

void
LocalTwoLevelPredictor::specUpdate(Addr pc, bool dir)
{
    auto *way = bht_.lookup(key(pc));
    if (!way)
        way = &bht_.insert(key(pc));
    way->data.state = advanceState(way->data.state, dir);
}

void
LocalTwoLevelPredictor::retireTrain(Addr pc, bool actual_dir)
{
    RunState &run = retireHist_[pc];
    if (run.known) {
        std::int8_t &ctr = patternTable_[run.hist & histMask()];
        const int max = (1 << (cfg_.ctrBits - 1)) - 1;
        const int min = -(1 << (cfg_.ctrBits - 1));
        if (actual_dir) {
            if (ctr < max)
                ++ctr;
        } else {
            if (ctr > min)
                --ctr;
        }
    }
    run.hist = static_cast<std::uint16_t>(
        ((run.hist << 1) | (actual_dir ? 1 : 0)) & histMask());
    run.known = true;
}

LocalState
LocalTwoLevelPredictor::readState(Addr pc, bool *present) const
{
    const auto *way = bht_.lookup(key(pc));
    *present = way != nullptr;
    return way ? way->data.state : 0;
}

void
LocalTwoLevelPredictor::writeState(Addr pc, LocalState state)
{
    if (auto *way = bht_.lookup(key(pc), false))
        way->data.state = state;
}

LocalState
LocalTwoLevelPredictor::advanceState(LocalState state, bool dir) const
{
    const unsigned hist =
        ((static_cast<unsigned>(state) << 1) | (dir ? 1 : 0)) & histMask();
    return static_cast<LocalState>(hist | knownBit);
}

void
LocalTwoLevelPredictor::invalidateEntry(Addr pc)
{
    bht_.invalidate(key(pc));
}

void
LocalTwoLevelPredictor::setAllRepairBits()
{
    for (auto &way : bht_.raw())
        way.data.repairBit = true;
}

bool
LocalTwoLevelPredictor::testClearRepairBit(Addr pc)
{
    auto *way = bht_.lookup(key(pc), false);
    if (!way)
        return false;
    const bool prev = way->data.repairBit;
    way->data.repairBit = false;
    return prev;
}

void
LocalTwoLevelPredictor::snapshotBhtInto(
    std::vector<std::uint64_t> &snap) const
{
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
LocalTwoLevelPredictor::restoreBht(const std::vector<std::uint64_t> &snap)
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
LocalTwoLevelPredictor::storageKB() const
{
    const double bht_bits =
        bht_.numEntries() *
        (cfg_.histBits + 2.0 + cfg_.bhtTagBits + 1.0);
    const double pt_bits =
        static_cast<double>(patternTable_.size()) * cfg_.ctrBits;
    return (bht_bits + pt_bits) / 8192.0;
}

} // namespace lbp
