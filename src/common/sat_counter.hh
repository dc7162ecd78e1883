/**
 * @file
 * Saturating counters: the workhorse state element of branch predictors.
 */

#ifndef LBP_COMMON_SAT_COUNTER_HH
#define LBP_COMMON_SAT_COUNTER_HH

#include <cstdint>

#include "common/logging.hh"

namespace lbp {

/**
 * An unsigned saturating counter of a runtime-configurable bit width.
 *
 * Prediction convention: values in the upper half of the range mean
 * "taken". A width of 0 is invalid.
 */
class SatCounter
{
  public:
    explicit SatCounter(unsigned bits = 2, std::uint32_t initial = 0)
        : bits_(bits), value_(initial)
    {
        lbp_assert(bits >= 1 && bits <= 16);
        lbp_assert(initial <= max());
    }

    std::uint32_t max() const { return (1u << bits_) - 1; }
    std::uint32_t value() const { return value_; }
    unsigned bits() const { return bits_; }

    /** Move toward saturation at max(). */
    void
    increment()
    {
        if (value_ < max())
            ++value_;
    }

    /** Move toward saturation at zero. */
    void
    decrement()
    {
        if (value_ > 0)
            --value_;
    }

    /** Update toward the given direction. */
    void
    update(bool taken)
    {
        if (taken)
            increment();
        else
            decrement();
    }

    /** Prediction: upper half of the range reads as taken. */
    bool taken() const { return value_ >= (1u << (bits_ - 1)); }

    /** True when the counter is at either saturation point. */
    bool saturated() const { return value_ == 0 || value_ == max(); }

    /** Force a specific value (used by repair and snapshot restore). */
    void
    set(std::uint32_t v)
    {
        lbp_assert(v <= max());
        value_ = v;
    }

  private:
    unsigned bits_;
    std::uint32_t value_;
};

/**
 * A signed saturating counter in [-2^(bits-1), 2^(bits-1) - 1].
 *
 * Used for TAGE prediction counters and the WITHLOOP chooser: >= 0 reads
 * as taken / "trust the adjunct predictor".
 */
class SignedSatCounter
{
  public:
    explicit SignedSatCounter(unsigned bits = 3, std::int32_t initial = 0)
        : bits_(bits), value_(initial)
    {
        lbp_assert(bits >= 2 && bits <= 16);
        lbp_assert(initial >= min() && initial <= max());
    }

    std::int32_t min() const { return -(1 << (bits_ - 1)); }
    std::int32_t max() const { return (1 << (bits_ - 1)) - 1; }
    std::int32_t value() const { return value_; }
    unsigned bits() const { return bits_; }

    void
    update(bool positive)
    {
        if (positive) {
            if (value_ < max())
                ++value_;
        } else {
            if (value_ > min())
                --value_;
        }
    }

    /** Prediction convention: non-negative means taken. */
    bool taken() const { return value_ >= 0; }

    /** Confidence proxy: distance from the decision boundary. */
    std::uint32_t
    magnitude() const
    {
        return value_ >= 0 ? static_cast<std::uint32_t>(value_)
                           : static_cast<std::uint32_t>(-(value_ + 1));
    }

    /** True when at full positive or negative saturation. */
    bool saturated() const { return value_ == min() || value_ == max(); }

    void
    set(std::int32_t v)
    {
        lbp_assert(v >= min() && v <= max());
        value_ = v;
    }

  private:
    unsigned bits_;
    std::int32_t value_;
};

} // namespace lbp

#endif // LBP_COMMON_SAT_COUNTER_HH
