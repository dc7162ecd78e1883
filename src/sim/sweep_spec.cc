#include "sim/sweep_spec.hh"

#include <cmath>
#include <sstream>

#include "sim/suite_cache.hh"
#include "verify/auditor.hh"
#include "workload/suite.hh"

namespace lbp {

bool
parseSpecCount(double value, std::uint64_t &out, std::uint64_t max)
{
    // 2^64: every finite double below it converts to uint64 exactly.
    if (!(value >= 0.0) || value >= 18446744073709551616.0 ||
        std::floor(value) != value ||
        static_cast<std::uint64_t>(value) > max)
        return false;
    out = static_cast<std::uint64_t>(value);
    return true;
}

bool
parseSuiteSize(std::string_view text, unsigned &out)
{
    std::uint64_t n = 0;
    if (text != "all" &&
        !parseSpecCount(text, n, std::numeric_limits<unsigned>::max()))
        return false;
    out = static_cast<unsigned>(n);
    return true;
}

bool
parseRepairPorts(std::string_view text, RepairPorts &out)
{
    // Split at the first two dashes; each part then takes the strict
    // count parser, which rejects signs, spaces and trailing text.
    const std::size_t d1 = text.find('-');
    const std::size_t d2 = d1 == std::string_view::npos
                               ? d1
                               : text.find('-', d1 + 1);
    if (d2 == std::string_view::npos)
        return false;
    std::uint64_t m = 0, n = 0, p = 0;
    if (!parseSpecCount(text.substr(0, d1), m, RepairPorts::maxEntries) ||
        !parseSpecCount(text.substr(d1 + 1, d2 - d1 - 1), n,
                        RepairPorts::maxPorts) ||
        !parseSpecCount(text.substr(d2 + 1), p, RepairPorts::maxPorts) ||
        m < RepairPorts::minEntries || n < 1 || p < 1)
        return false;
    out = {static_cast<unsigned>(m), static_cast<unsigned>(n),
           static_cast<unsigned>(p)};
    return true;
}

bool
parseLimitedM(std::string_view text, unsigned &out)
{
    std::uint64_t m = 0;
    if (!parseSpecCount(text, m, RepairConfig::maxLimitedM) || m < 1)
        return false;
    out = static_cast<unsigned>(m);
    return true;
}

bool
parseLoopConfig(std::string_view text, LoopConfig &out)
{
    if (text == "64")
        out = LoopConfig::entries64();
    else if (text == "128")
        out = LoopConfig::entries128();
    else if (text == "256")
        out = LoopConfig::entries256();
    else
        return false;
    return true;
}

bool
parseTageConfig(std::string_view text, TageConfig &out)
{
    if (text == "7")
        out = TageConfig::kb7();
    else if (text == "9")
        out = TageConfig::kb9();
    else if (text == "57")
        out = TageConfig::kb57();
    else
        return false;
    return true;
}

std::string
suiteSizeRange()
{
    return "an integer in [0, " +
           std::to_string(std::numeric_limits<unsigned>::max()) +
           "] or 'all'";
}

std::string
repairPortsRange()
{
    return "M-N-P with M in [" + std::to_string(RepairPorts::minEntries) +
           ", " + std::to_string(RepairPorts::maxEntries) +
           "] and N, P in [1, " + std::to_string(RepairPorts::maxPorts) +
           "]";
}

std::string
limitedMRange()
{
    return "an integer in [1, " +
           std::to_string(RepairConfig::maxLimitedM) + "]";
}

std::string
auditableSchemes()
{
    std::string names;
    for (int k = 0; k <= static_cast<int>(RepairKind::FutureFile); ++k) {
        const auto kind = static_cast<RepairKind>(k);
        if (!SpecStateAuditor::auditableKind(kind))
            continue;
        if (!names.empty())
            names += ", ";
        names += repairKindName(kind);
    }
    return names;
}

bool
sweepSchemeKind(std::string_view name, RepairKind &kind)
{
    for (int k = 0; k <= static_cast<int>(RepairKind::FutureFile); ++k) {
        if (name == repairKindName(static_cast<RepairKind>(k))) {
            kind = static_cast<RepairKind>(k);
            return true;
        }
    }
    return false;
}

namespace {

/**
 * Parse one `config` line: scheme name plus optional ports=M-N-P,
 * loop=64|128|256, tage=7|9|57, limited-m=M, coalesce, audit, name=<id>
 * modifiers. Budgets are the spec's current ones.
 */
bool
parseConfigLine(std::istringstream &ls, const SweepSpec &spec,
                SweepConfig &out, std::string &error)
{
    std::string scheme;
    if (!(ls >> scheme)) {
        error = "spec: 'config' needs a scheme name";
        return false;
    }

    out = SweepConfig();
    out.name = scheme;
    out.cfg.warmupInstrs = spec.warmupInstrs;
    out.cfg.measureInstrs = spec.measureInstrs;
    if (scheme != "baseline") {
        RepairKind kind;
        if (!sweepSchemeKind(scheme, kind)) {
            error = "spec: unknown scheme '" + scheme + "'";
            return false;
        }
        out.cfg.useLocal = true;
        out.cfg.repair.kind = kind;
    }

    std::string tok;
    while (ls >> tok) {
        if (tok == "coalesce") {
            out.cfg.repair.coalesce = true;
            continue;
        }
        if (tok == "audit") {
            if (!auditableConfig(out.cfg)) {
                error = "spec: audit wants an auditable scheme (" +
                        auditableSchemes() + "), got '" + scheme + "'";
                return false;
            }
            out.cfg.obs.audit = true;
            continue;
        }
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos) {
            error = "spec: bad config modifier '" + tok + "'";
            return false;
        }
        const std::string k = tok.substr(0, eq);
        const std::string v = tok.substr(eq + 1);
        if (k == "name") {
            out.name = v;
        } else if (k == "ports") {
            if (!parseRepairPorts(v, out.cfg.repair.ports)) {
                error = "spec: ports wants " + repairPortsRange();
                return false;
            }
        } else if (k == "loop") {
            if (!parseLoopConfig(v, out.cfg.repair.loop)) {
                error = "spec: loop must be 64, 128 or 256";
                return false;
            }
        } else if (k == "tage") {
            if (!parseTageConfig(v, out.cfg.tage)) {
                error = "spec: tage must be 7, 9 or 57";
                return false;
            }
        } else if (k == "limited-m") {
            if (!parseLimitedM(v, out.cfg.repair.limitedM)) {
                error = "spec: limited-m wants " + limitedMRange();
                return false;
            }
        } else {
            error = "spec: unknown config key '" + k + "'";
            return false;
        }
    }
    return true;
}

} // namespace

bool
parseSweepSpecText(const std::string &text, SweepSpec &spec,
                   std::string &error)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word))
            continue;
        if (word == "suite") {
            std::string v, extra;
            ls >> v;
            if ((ls >> extra) || !parseSuiteSize(v, spec.suite)) {
                error = "spec: suite wants " + suiteSizeRange();
                return false;
            }
            spec.fullSuite = spec.suite == 0;
        } else if (word == "warmup" || word == "instr") {
            std::string v, extra;
            ls >> v;
            if ((ls >> extra) ||
                !parseSpecCount(v, word == "warmup" ? spec.warmupInstrs
                                                    : spec.measureInstrs)) {
                error = "spec: " + word + " wants one integer in [0, " +
                        std::to_string(
                            std::numeric_limits<std::uint64_t>::max()) +
                        "]";
                return false;
            }
        } else if (word == "config") {
            SweepConfig sc;
            if (!parseConfigLine(ls, spec, sc, error))
                return false;
            spec.configs.push_back(std::move(sc));
        } else {
            error = "spec: unknown directive '" + word + "'";
            return false;
        }
    }
    return true;
}

std::vector<SweepConfig>
defaultFigureConfigs(const SweepSpec &spec)
{
    const char *schemes[] = {
        "baseline",      "perfect",      "no-repair",
        "retire-update", "backward-walk", "snapshot",
        "forward-walk",  "forward-walk+merge", "limited-pc",
        "multi-stage",   "future-file",
    };
    std::vector<SweepConfig> configs;
    for (const char *s : schemes) {
        std::string scheme = s;
        const bool merge = scheme == "forward-walk+merge";
        std::istringstream mods(merge ? "forward-walk coalesce "
                                        "name=forward-walk+merge"
                                      : scheme);
        SweepConfig sc;
        std::string error;
        // The default set is a fixed, well-formed spec; a parse
        // failure here is a programming error, not user input.
        if (parseConfigLine(mods, spec, sc, error))
            configs.push_back(std::move(sc));
    }
    return configs;
}

void
finalizeSweepSpec(SweepSpec &spec)
{
    if (spec.configs.empty())
        spec.configs = defaultFigureConfigs(spec);
}

SuiteOptions
specSuiteOptions(const SweepSpec &spec)
{
    SuiteOptions sopts;
    sopts.maxWorkloads = spec.fullSuite ? 0 : spec.suite;
    return sopts;
}

std::vector<Program>
buildSpecSuite(const SweepSpec &spec, unsigned jobs)
{
    return buildSuite(specSuiteOptions(spec), jobs);
}

std::string
sweepRequestKey(const std::vector<Program> &suite,
                const std::vector<SweepConfig> &configs)
{
    std::string key = suiteKey(suite);
    for (const SweepConfig &sc : configs) {
        key += '\n';
        key += sc.name;
        key += '\x1f';
        key += configKey(sc.cfg);
    }
    return key;
}

} // namespace lbp
