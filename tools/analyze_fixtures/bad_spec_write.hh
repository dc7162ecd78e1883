// Negative fixture: a LocalPredictor subclass mutating its state from
// predict() and from a helper reachable only from predict(). Both
// writes bypass the repair interface and must be flagged.
#ifndef LBP_BAD_SPEC_WRITE_HH
#define LBP_BAD_SPEC_WRITE_HH

#include <set>

struct BadLocal : public LocalPredictor {
    void specUpdate(int pc, bool dir)
    {
        (void)pc;
        hist_ = (hist_ << 1) | (dir ? 1u : 0u);  // sanctioned: fine
    }

    int predict(int pc)
    {
        table_.insert(pc);  // expect: spec-state-write
        return helper(pc);
    }

    int helper(int pc)
    {
        hist_ += 1;  // expect: spec-state-write (caller unsanctioned)
        return static_cast<int>(hist_) ^ pc;
    }

    unsigned hist_ = 0;
    std::set<int> table_;
};

#endif
