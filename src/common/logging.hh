/**
 * @file
 * Status and error reporting helpers, following the gem5 conventions:
 * lbp_panic()/lbp_assert() for internal invariant violations (simulator
 * bugs), warnImpl() for non-fatal notices. The tools report usage
 * errors themselves (common/cli.hh).
 */

#ifndef LBP_COMMON_LOGGING_HH
#define LBP_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>

namespace lbp {

[[noreturn]] inline void
panicImpl(const char *file, int line, const char *msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg, file, line);
    std::abort();
}

inline void
warnImpl(const char *msg)
{
    std::fprintf(stderr, "warn: %s\n", msg);
}

} // namespace lbp

/** Abort on a condition that indicates a simulator bug. */
#define lbp_panic(msg) ::lbp::panicImpl(__FILE__, __LINE__, (msg))

/** Assert a simulator invariant; compiled in all build types. */
#define lbp_assert(cond)                                                     \
    do {                                                                     \
        if (!(cond))                                                         \
            ::lbp::panicImpl(__FILE__, __LINE__,                             \
                             "assertion failed: " #cond);                    \
    } while (0)

#endif // LBP_COMMON_LOGGING_HH
