/**
 * @file
 * The declarative sweep-spec grammar, shared by every sweep frontend.
 *
 * lbpsweep historically owned the --spec parser; the sweep daemon
 * (src/serve/) accepts the same text over the wire, and the two must
 * agree byte-for-byte on what a spec means or `lbpsweep --server`
 * stops being a thin client. This header hoists the grammar into the
 * sim layer: directives (`suite N|all`, `warmup N`, `instr N`,
 * `config <scheme> [modifiers]`), the default 11-configuration figure
 * set, and suite construction, all returning errors instead of
 * exiting so the daemon can turn a bad spec into a `rejected` reply.
 * Grammar reference: docs/SWEEP.md; wire usage: docs/SERVER.md.
 */

#ifndef LBP_SIM_SWEEP_SPEC_HH
#define LBP_SIM_SWEEP_SPEC_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sweep.hh"
#include "workload/suite.hh"

namespace lbp {

/**
 * A fully described sweep request: suite selection, instruction
 * budgets, and the configurations to run. Field defaults mirror the
 * lbpsweep command-line defaults; parseSweepSpecText() overrides them
 * in directive order, and config lines capture the budgets in effect
 * at their point in the text (so a `warmup` directive applies to the
 * config lines after it, exactly as the CLI always behaved).
 */
struct SweepSpec
{
    unsigned suite = 8;        ///< workload cap (ignored if fullSuite)
    bool fullSuite = false;    ///< `suite all`: the whole 202 workloads
    std::uint64_t warmupInstrs = 40000;   ///< warm-up budget per cell
    std::uint64_t measureInstrs = 60000;  ///< measured budget per cell
    std::vector<SweepConfig> configs;     ///< empty = caller's default
};

/**
 * The one strict parser for `suite`, `warmup` and `instr` values (and
 * lbpsweep's --jobs), shared by spec text, the wire protocol's submit
 * fields and lbpsweep's flags. @p text must be a plain decimal integer
 * in [0, @p max]: no sign, fraction, exponent or trailing characters.
 * Returns false, leaving @p out untouched, for anything else.
 */
bool parseSpecCount(std::string_view text, std::uint64_t &out,
                    std::uint64_t max =
                        std::numeric_limits<std::uint64_t>::max());

/**
 * parseSpecCount() for a value that arrived as a JSON number: it must
 * be finite, integral and in [0, @p max].
 */
bool parseSpecCount(double value, std::uint64_t &out,
                    std::uint64_t max =
                        std::numeric_limits<std::uint64_t>::max());

/**
 * The one strict parser for the tools' seconds-valued flags: @p text
 * must be a plain decimal ("60", "0.5"), finite and non-negative — no
 * sign, exponent, space or trailing characters. Returns false, leaving
 * @p out untouched, for anything else.
 */
bool parseSeconds(std::string_view text, double &out);

/**
 * Parse a `ports` value "M-N-P": exactly three plain decimals (see
 * parseSpecCount) with M in [RepairPorts::minEntries,
 * RepairPorts::maxEntries] and N, P in [1, RepairPorts::maxPorts].
 * Returns false, leaving @p out untouched, for anything else.
 */
bool parseRepairPorts(std::string_view text, RepairPorts &out);

/**
 * Parse a `limited-m` value: a plain decimal in
 * [1, RepairConfig::maxLimitedM]. Returns false, leaving @p out
 * untouched, for anything else.
 */
bool parseLimitedM(std::string_view text, unsigned &out);

/**
 * Parse a `loop` value: 64, 128 or 256 CBPw-Loop BHT/PT entries
 * (LoopConfig::entries64() and friends). Returns false, leaving @p out
 * untouched, for anything else.
 */
bool parseLoopConfig(std::string_view text, LoopConfig &out);

/**
 * Parse a `tage` value: the 7, 9 or 57 KB configuration
 * (TageConfig::kb7() and friends). Returns false, leaving @p out
 * untouched, for anything else.
 */
bool parseTageConfig(std::string_view text, TageConfig &out);

/** What parseRepairPorts() accepts, for error messages. */
std::string repairPortsRange();

/** What parseLimitedM() accepts, for error messages. */
std::string limitedMRange();

/**
 * Scheme-name -> RepairKind mapping ("perfect", "forward-walk", ...).
 * False when @p name names no scheme ("baseline" is not a scheme: it
 * is the TAGE-only configuration config lines special-case).
 */
bool sweepSchemeKind(const std::string &name, RepairKind &kind);

/**
 * Parse spec text ('#' comments, blank lines, directives — see the
 * file comment) into @p spec, overriding its current fields. On
 * error, fills @p error with a one-line description and returns
 * false; @p spec is then partially updated and must be discarded.
 */
bool parseSweepSpecText(const std::string &text, SweepSpec &spec,
                        std::string &error);

/**
 * The default figure set at @p spec's budgets: baseline, perfect,
 * no-repair, retire-update, backward-walk, snapshot, forward-walk,
 * forward-walk+merge, limited-pc, multi-stage, future-file — every
 * paper configuration at CBPw-Loop128.
 */
std::vector<SweepConfig> defaultFigureConfigs(const SweepSpec &spec);

/** Substitute the default figure set when the spec has no configs. */
void finalizeSweepSpec(SweepSpec &spec);

/** The suite-construction options @p spec selects (cap or full). */
SuiteOptions specSuiteOptions(const SweepSpec &spec);

/** Build the workload suite @p spec selects: buildSuite() of
 *  specSuiteOptions(@p spec) on @p jobs workers. */
std::vector<Program> buildSpecSuite(const SweepSpec &spec,
                                    unsigned jobs = 0);

/**
 * The cross-client identity of a sweep request: suiteKey(suite)
 * followed by each configuration's display name and configKey(), one
 * per line. Two requests with equal keys produce byte-identical
 * results (CSV included — the name is the CSV's config column), which
 * is exactly the condition under which the daemon coalesces them.
 */
std::string sweepRequestKey(const std::vector<Program> &suite,
                            const std::vector<SweepConfig> &configs);

} // namespace lbp

#endif // LBP_SIM_SWEEP_SPEC_HH
