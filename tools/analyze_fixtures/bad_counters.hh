// Negative fixture: a *Stats struct with one live counter (written and
// read in counters_user.cc), one declared-but-dead counter, and one
// counter counters_user.cc increments but no report ever reads.
#ifndef LBP_BAD_COUNTERS_HH
#define LBP_BAD_COUNTERS_HH

#include <cstdint>

struct FixtureStats {
    std::uint64_t fixLive = 0;
    std::uint64_t fixDead = 0;    // expect: stats-counter-dead
    std::uint64_t fixUnread = 0;  // expect: stats-counter-dead (unread)
};

#endif
