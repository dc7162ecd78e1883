/**
 * @file
 * The one command-line parser (common/cli.hh), driven directly: the
 * table walk, the parser-owned errors and help, and each binder's
 * range text. The tools' own tables are covered end to end by the
 * `cli.*` and `*.help` ctest cases.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hh"

using namespace lbp;

namespace {

/** A small table touching every binder kind. */
struct Fields
{
    std::uint64_t count = 7;
    unsigned jobs = 0;
    double seconds = 1.5;
    std::string path;
    bool flag = false;
};

CliSpec
makeSpec(Fields &f)
{
    return {"tool",
            "tool — test table",
            {
                {"--count", "-n", "<N>", "a count", cliCount(f.count)},
                {"--jobs", nullptr, "<N>", "workers\nsecond line",
                 cliCount(f.jobs)},
                {"--seconds", nullptr, "<secs>", "a duration",
                 cliSeconds(f.seconds)},
                {"--path", nullptr, "<path>", "a file", cliText(f.path)},
                {"--flag", nullptr, nullptr, "a boolean",
                 cliAssign(f.flag, true)},
            }};
}

/** parseCli() on @p args (argv[0] added), with its stderr. */
std::optional<int>
run(const CliSpec &spec, std::vector<const char *> args, std::string &err)
{
    args.insert(args.begin(), "tool");
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const std::optional<int> rc =
        parseCli(spec, static_cast<int>(args.size()), args.data());
    err = testing::internal::GetCapturedStderr();
    testing::internal::GetCapturedStdout();
    return rc;
}

} // namespace

TEST(Cli, ValuesLandInTheirFieldsInArgumentOrder)
{
    Fields f;
    const CliSpec spec = makeSpec(f);
    std::string err;
    EXPECT_EQ(run(spec,
                  {"--count", "3", "--jobs", "4", "--seconds", "0.25",
                   "--path", "out.csv", "--flag", "--count", "9"},
                  err),
              std::nullopt);
    EXPECT_EQ(err, "");
    EXPECT_EQ(f.count, 9u);  // the later --count wins
    EXPECT_EQ(f.jobs, 4u);
    EXPECT_DOUBLE_EQ(f.seconds, 0.25);
    EXPECT_EQ(f.path, "out.csv");
    EXPECT_TRUE(f.flag);
}

TEST(Cli, UnknownOptionIsAnError)
{
    Fields f;
    const CliSpec spec = makeSpec(f);
    std::string err;
    EXPECT_EQ(run(spec, {"--flag", "--bogus"}, err), 1);
    EXPECT_EQ(err, "tool: unknown option --bogus\n");
}

TEST(Cli, MissingValueIsAnError)
{
    Fields f;
    const CliSpec spec = makeSpec(f);
    std::string err;
    EXPECT_EQ(run(spec, {"--jobs"}, err), 1);
    EXPECT_EQ(err, "tool: missing value for --jobs\n");
    EXPECT_EQ(f.jobs, 0u);
}

TEST(Cli, AliasReachesTheSameRow)
{
    Fields f;
    const CliSpec spec = makeSpec(f);
    std::string err;
    EXPECT_EQ(run(spec, {"-n", "12"}, err), std::nullopt);
    EXPECT_EQ(f.count, 12u);
    EXPECT_EQ(run(spec, {"-n", "x"}, err), 1);
    EXPECT_EQ(err, "tool: -n wants an integer in [0, "
                   "18446744073709551615], got 'x'\n");
    EXPECT_EQ(f.count, 12u);
}

TEST(Cli, StrayTokenAfterABooleanIsAnUnknownOption)
{
    Fields f;
    const CliSpec spec = makeSpec(f);
    std::string err;
    EXPECT_EQ(run(spec, {"--flag", "yes"}, err), 1);
    EXPECT_EQ(err, "tool: unknown option yes\n");
}

TEST(Cli, RejectedValuesNameTheFlagTheRangeAndTheValue)
{
    Fields f;
    const CliSpec spec = makeSpec(f);
    std::string err;
    EXPECT_EQ(run(spec, {"--jobs", "-1"}, err), 1);
    EXPECT_EQ(err, "tool: --jobs wants an integer in [0, 4294967295], "
                   "got '-1'\n");
    EXPECT_EQ(run(spec, {"--seconds", "1e3"}, err), 1);
    EXPECT_EQ(err, "tool: --seconds wants a finite, non-negative number "
                   "of seconds, got '1e3'\n");
    // A rejected value leaves its field as it was.
    EXPECT_EQ(f.jobs, 0u);
    EXPECT_DOUBLE_EQ(f.seconds, 1.5);
}

TEST(Cli, EachBinderStatesItsRange)
{
    std::uint64_t u64 = 0;
    unsigned u32 = 0;
    std::uint16_t port = 0;
    int metricsPort = -1;
    double secs = 0.0;
    std::string text;
    bool set = false;
    EXPECT_EQ(cliCount(u64).complaint,
              "wants an integer in [0, 18446744073709551615]");
    EXPECT_EQ(cliCount(u32).complaint,
              "wants an integer in [0, 4294967295]");
    EXPECT_EQ(cliCount(port).complaint, "wants an integer in [0, 65535]");
    EXPECT_EQ(cliCount(metricsPort, 65535).complaint,
              "wants an integer in [0, 65535]");
    EXPECT_EQ(cliSeconds(secs).complaint,
              "wants a finite, non-negative number of seconds");
    EXPECT_EQ(cliText(text).complaint, "");
    EXPECT_EQ(cliAssign(set, true).complaint, "");

    // The count binder stops at its own maximum, not at 2^64.
    EXPECT_FALSE(cliCount(port).store("65536"));
    EXPECT_TRUE(cliCount(port).store("65535"));
    EXPECT_EQ(port, 65535u);
    EXPECT_TRUE(cliCount(metricsPort, 65535).store("0"));
    EXPECT_EQ(metricsPort, 0);
    EXPECT_FALSE(cliCount(u32).store("4294967296"));

    // cliParsed hands the value to the strict parser it names.
    double parsed = 0.0;
    const CliBinder b = cliParsed(parsed, parseSeconds, "wants seconds");
    EXPECT_EQ(b.complaint, "wants seconds");
    EXPECT_FALSE(b.store("-1"));
    EXPECT_TRUE(b.store("2.5"));
    EXPECT_DOUBLE_EQ(parsed, 2.5);
}

TEST(Cli, HelpListsEveryRowInTableOrder)
{
    Fields f;
    const CliSpec spec = makeSpec(f);
    const std::string usage = cliUsage(spec);
    EXPECT_EQ(usage,
              "tool — test table\n"
              "\n"
              "  --help, -h        print this help and exit\n"
              "  --count, -n <N>   a count\n"
              "  --jobs <N>        workers\n"
              "                    second line\n"
              "  --seconds <secs>  a duration\n"
              "  --path <path>     a file\n"
              "  --flag            a boolean\n");

    testing::internal::CaptureStdout();
    const char *argv[] = {"tool", "--jobs", "3", "-h", "--bogus"};
    EXPECT_EQ(parseCli(spec, 5, argv), 0);  // help stops the walk
    EXPECT_EQ(testing::internal::GetCapturedStdout(), usage);
    EXPECT_EQ(f.jobs, 3u);
}
