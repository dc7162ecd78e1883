/**
 * @file
 * The one command-line parser. lbpsim, lbpsweep and lbpserved each
 * describe their flags as one table of CliFlag rows; parseCli() walks
 * argv against it and cliUsage() renders it, so the accepted flags and
 * the help text cannot drift. Each row's binder writes the parsed value
 * straight into the field the flag configures (a SimConfig, SweepSpec,
 * ServeOptions, ...), so a tool keeps no mirror of its options.
 *
 * The parser owns --help/-h, "unknown option", "missing value" and the
 * one error format for a rejected value:
 *
 *   <tool>: <flag> <complaint>, got '<value>'
 */

#ifndef LBP_COMMON_CLI_HH
#define LBP_COMMON_CLI_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/count.hh"

namespace lbp {

/** How a flag stores its value; made by the cli*() helpers below. */
struct CliBinder
{
    /** Parse @p value into the bound field. A boolean flag gets an
     *  empty value. Returns false, leaving the field untouched, for a
     *  value the flag does not accept. */
    std::function<bool(std::string_view value)> store;
    /** What a rejected value should have been ("wants an integer in
     *  [0, 9]"); empty for a flag that accepts every value. */
    std::string complaint;
};

/** One row of a tool's flag table. */
struct CliFlag
{
    const char *flag;     ///< spelling, "--name"
    const char *alias;    ///< alternate spelling, or nullptr
    const char *metavar;  ///< value placeholder, or nullptr (boolean)
    const char *help;     ///< '\n' continues on an aligned next line
    CliBinder bind;       ///< writes the value into its field
};

/** A tool's command line: its name, its usage title and its flags. */
struct CliSpec
{
    const char *tool;             ///< error prefix ("lbpsim")
    const char *title;            ///< first line of the usage text
    std::vector<CliFlag> flags;   ///< rows, in usage order
};

/**
 * The usage text: the title, a blank line, the parser's own
 * "--help, -h" row, then one row per flag in table order. Each row is
 * the spelling, the alias and the placeholder, with the help text in
 * a column aligned across the table.
 */
std::string cliUsage(const CliSpec &spec);

/**
 * Walk @p argv (argv[0] is skipped) against @p spec's flags, storing
 * each value through its row's binder, in argument order.
 * - --help or -h prints cliUsage() to stdout and returns 0;
 * - an unknown argument prints "<tool>: unknown option <arg>" to
 *   stderr, then the usage text, and returns 1;
 * - a value flag in last position prints "<tool>: missing value for
 *   <flag>" and returns 1;
 * - a value the binder rejects prints "<tool>: <flag> <complaint>,
 *   got '<value>'" and returns 1.
 * Returns nullopt when every argument was accepted and the tool
 * should run; otherwise the exit status the tool should return.
 */
std::optional<int> parseCli(const CliSpec &spec, int argc,
                            const char *const *argv);

/** Bind a plain decimal count in [0, @p max] (parseSpecCount). */
template <class T>
CliBinder
cliCount(T &field, std::uint64_t max = static_cast<std::uint64_t>(
                       std::numeric_limits<T>::max()))
{
    return {[&field, max](std::string_view v) {
                std::uint64_t n = 0;
                if (!parseSpecCount(v, n, max))
                    return false;
                field = static_cast<T>(n);
                return true;
            },
            "wants an integer in [0, " + std::to_string(max) + "]"};
}

/** Bind a finite, non-negative number of seconds (parseSeconds). */
CliBinder cliSeconds(double &field);

/** Bind the value through @p parse, a strict value parser that leaves
 *  its output untouched on failure; @p complaint names what it takes. */
template <class T>
CliBinder
cliParsed(T &field, bool (*parse)(std::string_view, T &),
          std::string complaint)
{
    return {[&field, parse](std::string_view v) { return parse(v, field); },
            std::move(complaint)};
}

/** Bind any text (a path, an address, an id). */
template <class T>
CliBinder
cliText(T &field)
{
    return {[&field](std::string_view v) {
                field = std::string(v);
                return true;
            },
            ""};
}

/** A boolean flag: its presence stores @p value into @p field. */
template <class T>
CliBinder
cliAssign(T &field, std::type_identity_t<T> value)
{
    return {[&field, value](std::string_view) {
                field = value;
                return true;
            },
            ""};
}

/**
 * Open @p path for writing (or appending, with @p mode); a file that
 * cannot be opened prints "<tool>: cannot write <path>" to stderr and
 * exits 1.
 */
std::ofstream openOutput(const char *tool, const std::string &path,
                         std::ios::openmode mode = std::ios::out);

} // namespace lbp

#endif // LBP_COMMON_CLI_HH
