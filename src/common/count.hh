/**
 * @file
 * The strict number parsers, for every count or duration a user can
 * type: the tools' numeric flags (common/cli.hh), sweep-spec
 * directives, and the REPRO_* environment variables (REPRO_JOBS,
 * REPRO_WORKLOADS, REPRO_WARMUP, REPRO_INSTR). They live in src/common
 * so the thread pool can read REPRO_JOBS without depending on the
 * sweep layer.
 */

#ifndef LBP_COMMON_COUNT_HH
#define LBP_COMMON_COUNT_HH

#include <cstdint>
#include <limits>
#include <string_view>

namespace lbp {

/**
 * @p text must be a plain decimal integer in [0, @p max]: no sign,
 * space, fraction, exponent or trailing characters. Returns false,
 * leaving @p out untouched, for anything else.
 */
bool parseSpecCount(std::string_view text, std::uint64_t &out,
                    std::uint64_t max =
                        std::numeric_limits<std::uint64_t>::max());

/**
 * The one strict parser for seconds-valued flags: @p text must be a
 * plain decimal ("60", "0.5"), finite and non-negative — no sign,
 * exponent, space or trailing characters. Returns false, leaving
 * @p out untouched, for anything else.
 */
bool parseSeconds(std::string_view text, double &out);

/**
 * The count held by environment variable @p name: @p fallback when it
 * is unset or empty, else its parseSpecCount() value in [0, @p max].
 * Any other value is a usage error: prints "<name> wants an integer in
 * [0, <max>], got '<value>'" to stderr and exits 1, so a malformed
 * variable stops a tool before it builds, binds or simulates anything.
 */
std::uint64_t envCount(const char *name, std::uint64_t fallback,
                       std::uint64_t max);

} // namespace lbp

#endif // LBP_COMMON_COUNT_HH
