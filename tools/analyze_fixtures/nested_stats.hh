// Negative fixture: a *Stats struct nested after an access label. The
// label is not part of the scope header, so FixtureCache::FooStats is
// a class scope and its never-written counter is found.
#ifndef LBP_NESTED_STATS_HH
#define LBP_NESTED_STATS_HH

#include <cstdint>

class FixtureCache
{
  public:
    struct FooStats
    {
        std::uint64_t fooLookups = 0;  // live: see counters_user.cc
        std::uint64_t fooNever = 0;    // expect: stats-counter-dead
    };

  private:
    FooStats stats_;
};

#endif
