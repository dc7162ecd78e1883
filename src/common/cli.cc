#include "common/cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lbp {

namespace {

/** The row the parser owns; cliUsage() lists it first. */
CliFlag
helpFlag()
{
    return {"--help", "-h", nullptr, "print this help and exit", {}};
}

bool
spells(const CliFlag &f, const char *arg)
{
    return std::strcmp(arg, f.flag) == 0 ||
           (f.alias && std::strcmp(arg, f.alias) == 0);
}

/** A row's left column: "  --flag, alias <metavar>". */
std::string
usageLead(const CliFlag &f)
{
    std::string lead = std::string("  ") + f.flag;
    if (f.alias)
        lead += std::string(", ") + f.alias;
    if (f.metavar)
        lead += std::string(" ") + f.metavar;
    return lead;
}

} // namespace

std::string
cliUsage(const CliSpec &spec)
{
    const CliFlag help = helpFlag();
    std::size_t width = usageLead(help).size();
    for (const CliFlag &f : spec.flags)
        width = std::max(width, usageLead(f).size());
    width += 2;

    std::string out = std::string(spec.title) + "\n\n";
    const auto row = [&](const CliFlag &f) {
        const std::string lead = usageLead(f);
        out += lead;
        out.append(width - lead.size(), ' ');
        for (const char *p = f.help; *p; ++p) {
            out += *p;
            if (*p == '\n')
                out.append(width, ' ');
        }
        out += '\n';
    };
    row(help);
    for (const CliFlag &f : spec.flags)
        row(f);
    return out;
}

std::optional<int>
parseCli(const CliSpec &spec, int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (spells(helpFlag(), arg)) {
            std::fputs(cliUsage(spec).c_str(), stdout);
            return 0;
        }
        const auto f = std::find_if(
            spec.flags.begin(), spec.flags.end(),
            [arg](const CliFlag &row) { return spells(row, arg); });
        if (f == spec.flags.end()) {
            std::fprintf(stderr, "%s: unknown option %s\n", spec.tool, arg);
            std::fputs(cliUsage(spec).c_str(), stdout);
            return 1;
        }
        const char *value = "";
        if (f->metavar) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value for %s\n",
                             spec.tool, arg);
                return 1;
            }
            value = argv[++i];
        }
        if (!f->bind.store(value)) {
            std::fprintf(stderr, "%s: %s %s, got '%s'\n", spec.tool, arg,
                         f->bind.complaint.c_str(), value);
            return 1;
        }
    }
    return std::nullopt;
}

CliBinder
cliSeconds(double &field)
{
    return cliParsed(field, parseSeconds,
                     "wants a finite, non-negative number of seconds");
}

std::ofstream
openOutput(const char *tool, const std::string &path,
           std::ios::openmode mode)
{
    std::ofstream out(path, mode);
    if (!out) {
        std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
        std::exit(1);
    }
    return out;
}

} // namespace lbp
