#include "workload/behavior.hh"

#include <numeric>

#include "common/logging.hh"
#include "common/random.hh"

namespace lbp {

// ---------------------------------------------------------------------
// LoopExitBehavior
// ---------------------------------------------------------------------

// State layout:
//   word0: bits [31:0] executions so far in the current run,
//          bits [63:32] period of the current run.
//   word1: LFSR state for period selection.

LoopExitBehavior::LoopExitBehavior(bool dominant_taken,
                                   std::vector<PeriodChoice> choices,
                                   std::uint64_t seed)
    : dominantTaken_(dominant_taken), choices_(std::move(choices)),
      totalWeight_(0), seed_(seed)
{
    lbp_assert(!choices_.empty());
    for (const auto &c : choices_) {
        lbp_assert(c.period >= 2);
        lbp_assert(c.weight >= 1);
        totalWeight_ += c.weight;
    }
}

std::uint32_t
LoopExitBehavior::drawPeriod(std::uint64_t &lfsr_state) const
{
    if (choices_.size() == 1)
        return choices_.front().period;
    const std::uint32_t pick = Lfsr16::step(lfsr_state) % totalWeight_;
    std::uint32_t acc = 0;
    for (const auto &c : choices_) {
        acc += c.weight;
        if (pick < acc)
            return c.period;
    }
    return choices_.back().period;
}

void
LoopExitBehavior::reset(std::uint64_t *state) const
{
    state[1] = splitmix64(seed_) | 1;
    const std::uint32_t period = drawPeriod(state[1]);
    state[0] = static_cast<std::uint64_t>(period) << 32;
}

bool
LoopExitBehavior::next(std::uint64_t *state, const GlobalBranchCtx &) const
{
    std::uint32_t iter = static_cast<std::uint32_t>(state[0]);
    std::uint32_t period = static_cast<std::uint32_t>(state[0] >> 32);
    ++iter;
    bool dominant;
    if (iter < period) {
        dominant = true;
    } else {
        dominant = false;
        iter = 0;
        period = drawPeriod(state[1]);
    }
    state[0] = (static_cast<std::uint64_t>(period) << 32) | iter;
    return dominant ? dominantTaken_ : !dominantTaken_;
}

std::uint32_t
LoopExitBehavior::currentPeriod(const std::uint64_t *state)
{
    return static_cast<std::uint32_t>(state[0] >> 32);
}

std::string
LoopExitBehavior::describe() const
{
    std::string s = dominantTaken_ ? "loop(T" : "fwd-exit(N";
    for (const auto &c : choices_) {
        s += ',';
        s += std::to_string(c.period);
    }
    s += ')';
    return s;
}

// ---------------------------------------------------------------------
// PatternBehavior
// ---------------------------------------------------------------------

PatternBehavior::PatternBehavior(std::uint64_t pattern, unsigned period)
    : pattern_(pattern), period_(period)
{
    lbp_assert(period >= 1 && period <= 64);
}

void
PatternBehavior::reset(std::uint64_t *state) const
{
    state[0] = 0;
}

bool
PatternBehavior::next(std::uint64_t *state, const GlobalBranchCtx &) const
{
    const unsigned idx = static_cast<unsigned>(state[0]);
    state[0] = (idx + 1) % period_;
    return (pattern_ >> idx) & 1;
}

std::string
PatternBehavior::describe() const
{
    std::string s = "pattern(";
    for (unsigned i = 0; i < period_; ++i)
        s += ((pattern_ >> i) & 1) ? 'T' : 'N';
    return s + ")";
}

// ---------------------------------------------------------------------
// CorrelatedBehavior
// ---------------------------------------------------------------------

CorrelatedBehavior::CorrelatedBehavior(std::uint64_t history_mask,
                                       bool invert,
                                       std::uint32_t noise_permille,
                                       std::uint64_t seed)
    : mask_(history_mask), invert_(invert), noisePermille_(noise_permille),
      seed_(seed)
{
    lbp_assert(noise_permille <= 1000);
}

void
CorrelatedBehavior::reset(std::uint64_t *state) const
{
    state[0] = splitmix64(seed_ ^ 0xc0de) | 1;
}

bool
CorrelatedBehavior::next(std::uint64_t *state,
                         const GlobalBranchCtx &ctx) const
{
    bool out = (__builtin_popcountll(ctx.globalHist & mask_) & 1) != 0;
    if (invert_)
        out = !out;
    if (noisePermille_ &&
        Lfsr16::step(state[0]) % 1000 < noisePermille_) {
        out = !out;
    }
    return out;
}

std::string
CorrelatedBehavior::describe() const
{
    return "correlated(mask=" + std::to_string(mask_) +
           ",noise=" + std::to_string(noisePermille_) + ")";
}

// ---------------------------------------------------------------------
// BiasedRandomBehavior
// ---------------------------------------------------------------------

BiasedRandomBehavior::BiasedRandomBehavior(std::uint32_t taken_permille,
                                           std::uint64_t seed)
    : takenPermille_(taken_permille), seed_(seed)
{
    lbp_assert(taken_permille <= 1000);
}

void
BiasedRandomBehavior::reset(std::uint64_t *state) const
{
    state[0] = splitmix64(seed_ ^ 0xbead) | 1;
}

bool
BiasedRandomBehavior::next(std::uint64_t *state,
                           const GlobalBranchCtx &) const
{
    return Lfsr16::step(state[0]) % 1000 < takenPermille_;
}

std::string
BiasedRandomBehavior::describe() const
{
    return "random(p=" + std::to_string(takenPermille_) + "/1000)";
}

} // namespace lbp
