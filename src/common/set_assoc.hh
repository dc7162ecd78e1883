/**
 * @file
 * A generic set-associative table with true-LRU replacement.
 *
 * Used for the loop predictor's BHT and PT, the BTB, and the cache tag
 * arrays. The payload type is supplied by the user; valid bit, tag and
 * LRU ordering are managed here.
 */

#ifndef LBP_COMMON_SET_ASSOC_HH
#define LBP_COMMON_SET_ASSOC_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace lbp {

/** True when x is a power of two (and non-zero). */
inline bool
isPowerOf2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** floor(log2(x)) for x > 0. */
inline unsigned
floorLog2(std::uint64_t x)
{
    lbp_assert(x > 0);
    unsigned l = 0;
    while (x >>= 1)
        ++l;
    return l;
}

/**
 * Set-associative table of user payloads.
 *
 * @tparam PayloadT  Default-constructible per-entry payload.
 */
template <typename PayloadT>
class SetAssocTable
{
  public:
    struct Way
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint32_t lruStamp = 0;
        PayloadT data{};
    };

    SetAssocTable(unsigned num_sets, unsigned num_ways)
        : numSets_(num_sets), numWays_(num_ways),
          setBits_(floorLog2(num_sets)), stamp_(0),
          ways_(static_cast<std::size_t>(num_sets) * num_ways)
    {
        lbp_assert(num_sets >= 1 && num_ways >= 1);
        lbp_assert(isPowerOf2(num_sets));
    }

    unsigned numSets() const { return numSets_; }
    unsigned numWays() const { return numWays_; }
    unsigned numEntries() const { return numSets_ * numWays_; }

    /** Compute the set index for a pre-hashed key. */
    unsigned
    setIndex(std::uint64_t key) const
    {
        return static_cast<unsigned>(key & (numSets_ - 1));
    }

    /** Tag bits for a pre-hashed key (the part above the index). */
    std::uint64_t tagOf(std::uint64_t key) const { return key >> setBits(); }

    /**
     * Look up a key. Returns the way or nullptr on miss.
     * Updates LRU on hit when @p touch is true.
     */
    Way *
    lookup(std::uint64_t key, bool touch = true)
    {
        const unsigned set = setIndex(key);
        const std::uint64_t tag = tagOf(key);
        for (unsigned w = 0; w < numWays_; ++w) {
            Way &way = at(set, w);
            if (way.valid && way.tag == tag) {
                if (touch)
                    way.lruStamp = ++stamp_;
                return &way;
            }
        }
        return nullptr;
    }

    const Way *
    lookup(std::uint64_t key) const
    {
        return const_cast<SetAssocTable *>(this)->lookup(key, false);
    }

    /**
     * Insert a key, evicting the LRU way of its set if needed.
     * The returned way has valid/tag set; payload is caller's to fill.
     * @param victimized set to true when a valid entry was evicted.
     */
    Way &
    insert(std::uint64_t key, bool *victimized = nullptr)
    {
        const unsigned set = setIndex(key);
        Way *victim = &at(set, 0);
        for (unsigned w = 0; w < numWays_; ++w) {
            Way &way = at(set, w);
            if (!way.valid) {
                victim = &way;
                break;
            }
            if (way.lruStamp < victim->lruStamp)
                victim = &way;
        }
        if (victimized)
            *victimized = victim->valid;
        victim->valid = true;
        victim->tag = tagOf(key);
        victim->lruStamp = ++stamp_;
        victim->data = PayloadT{};
        return *victim;
    }

    /** Invalidate a key if present. */
    void
    invalidate(std::uint64_t key)
    {
        if (Way *way = lookup(key, false))
            way->valid = false;
    }

    /** Raw access to way storage, for snapshot/restore and iteration. */
    std::vector<Way> &raw() { return ways_; }
    const std::vector<Way> &raw() const { return ways_; }

    /** Direct access to a (set, way) slot. */
    Way &
    at(unsigned set, unsigned way)
    {
        return ways_[static_cast<std::size_t>(set) * numWays_ + way];
    }

    const Way &
    at(unsigned set, unsigned way) const
    {
        return ways_[static_cast<std::size_t>(set) * numWays_ + way];
    }

    unsigned setBits() const { return setBits_; }

  private:
    unsigned numSets_;
    unsigned numWays_;
    unsigned setBits_;  ///< cached: tagOf() runs on every lookup
    std::uint32_t stamp_;
    std::vector<Way> ways_;
};

/**
 * Payload-free set-associative tag array with true-LRU replacement —
 * the same replacement policy as SetAssocTable (first invalid way,
 * else lowest stamp in way order), but stored as parallel arrays so a
 * set scan reads one cache line of tags instead of striding over
 * 24-byte Way records. Used where only presence matters (cache tag
 * arrays, the BTB), which are the hottest lookups in the simulator.
 */
class FlatTagLru
{
  public:
    FlatTagLru(unsigned num_sets, unsigned num_ways)
        : numSets_(num_sets), numWays_(num_ways),
          setBits_(floorLog2(num_sets)), stamp_(0),
          tags_(static_cast<std::size_t>(num_sets) * num_ways, 0),
          lru_(static_cast<std::size_t>(num_sets) * num_ways, 0)
    {
        lbp_assert(num_sets >= 1 && num_ways >= 1);
        lbp_assert(isPowerOf2(num_sets));
    }

    unsigned numSets() const { return numSets_; }
    unsigned numWays() const { return numWays_; }
    unsigned numEntries() const { return numSets_ * numWays_; }

    /** True when the key is present; updates LRU when @p touch. */
    bool
    lookup(std::uint64_t key, bool touch = true)
    {
        const std::size_t base =
            static_cast<std::size_t>(key & (numSets_ - 1)) * numWays_;
        const std::uint64_t want = packedTag(key);
        for (unsigned w = 0; w < numWays_; ++w) {
            if (tags_[base + w] == want) {
                if (touch)
                    lru_[base + w] = ++stamp_;
                return true;
            }
        }
        return false;
    }

    bool
    lookup(std::uint64_t key) const
    {
        return const_cast<FlatTagLru *>(this)->lookup(key, false);
    }

    /** Insert a key, evicting the set's LRU way if needed. */
    void
    insert(std::uint64_t key)
    {
        const std::size_t base =
            static_cast<std::size_t>(key & (numSets_ - 1)) * numWays_;
        std::size_t victim = base;
        for (unsigned w = 0; w < numWays_; ++w) {
            if (tags_[base + w] == 0) {
                victim = base + w;
                break;
            }
            if (lru_[base + w] < lru_[victim])
                victim = base + w;
        }
        tags_[victim] = packedTag(key);
        lru_[victim] = ++stamp_;
    }

  private:
    /**
     * Tag and valid bit share one word — a set scan then reads a single
     * contiguous line of tags — by storing tag+1: 0 means empty, and an
     * invalid way can never match a probe. Keys are line/instruction
     * addresses shifted down, so tag+1 cannot wrap.
     */
    std::uint64_t
    packedTag(std::uint64_t key) const
    {
        const std::uint64_t tag = (key >> setBits_) + 1;
        lbp_assert(tag != 0);
        return tag;
    }

    unsigned numSets_;
    unsigned numWays_;
    unsigned setBits_;
    std::uint32_t stamp_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint32_t> lru_;
};

} // namespace lbp

#endif // LBP_COMMON_SET_ASSOC_HH
