/**
 * @file
 * Sweep orchestration observability (src/sim/sweep): JSON-lines event
 * log well-formedness and wall-time reconciliation, pinned progress/ETA
 * line content, manifest schema and provenance, the sweep-counter
 * table, the strict spec-count parser, and Figure-8 port-analysis
 * reconciliation against the raw forensics records.
 */

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "obs/port_analysis.hh"
#include "sim/result_store.hh"
#include "sim/suite_cache.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"
#include "workload/suite.hh"

using namespace lbp;

namespace {

SimConfig
schemeConfig(RepairKind kind)
{
    SimConfig cfg;
    cfg.warmupInstrs = 5000;
    cfg.measureInstrs = 8000;
    cfg.useLocal = true;
    cfg.repair.kind = kind;
    return cfg;
}

std::vector<Program>
smallSuite(unsigned n)
{
    SuiteOptions opts;
    opts.maxWorkloads = n;
    return buildSuite(opts);
}

std::vector<SweepConfig>
twoConfigs()
{
    return {{"forward-walk", schemeConfig(RepairKind::ForwardWalk)},
            {"snapshot", schemeConfig(RepairKind::Snapshot)}};
}

/**
 * Minimal recursive-descent validator for one JSON value — enough to
 * prove the event log and manifest are real JSON, not curly-brace
 * lookalikes. Accepts objects/arrays/strings/numbers/literals.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }
    bool
    consume(char c)
    {
        skipWs();
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    string()
    {
        if (!consume('"'))
            return false;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        return pos_ < s_.size() && s_[pos_++] == '"';
    }

    bool
    number()
    {
        skipWs();
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())) ||
               peek() == '.' || peek() == 'e' || peek() == 'E' ||
               peek() == '+' || peek() == '-')
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        skipWs();
        const std::size_t len = std::string(word).size();
        if (s_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    bool
    value()
    {
        skipWs();
        switch (peek()) {
          case '{': {
            consume('{');
            skipWs();
            if (peek() == '}')
                return consume('}');
            do {
                if (!string() || !consume(':') || !value())
                    return false;
                skipWs();
            } while (consume(','));
            return consume('}');
          }
          case '[': {
            consume('[');
            skipWs();
            if (peek() == ']')
                return consume(']');
            do {
                if (!value())
                    return false;
                skipWs();
            } while (consume(','));
            return consume(']');
          }
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** Value of the first `"key":<number>` occurrence; fails the test if
 *  the key is absent. */
double
numberField(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = text.find(needle);
    if (pos == std::string::npos) {
        ADD_FAILURE() << "missing JSON field " << key;
        return -1.0;
    }
    return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

/**
 * Value of the named counter in a MetricsRegistry JSON dump, where
 * scalars are `{"name": "<name>", ..., "value": <v>}` objects.
 */
double
counterValue(const std::string &text, const std::string &name)
{
    const std::string needle = "{\"name\": \"" + name + "\"";
    const std::size_t pos = text.find(needle);
    if (pos == std::string::npos) {
        ADD_FAILURE() << "missing counter " << name;
        return -1.0;
    }
    const std::string value = "\"value\": ";
    const std::size_t vpos = text.find(value, pos);
    if (vpos == std::string::npos) {
        ADD_FAILURE() << "counter " << name << " has no value";
        return -1.0;
    }
    return std::strtod(text.c_str() + vpos + value.size(), nullptr);
}

} // namespace

TEST(Sweep, EventLogIsValidJsonLinesAndWallTimesReconcile)
{
    const std::vector<Program> suite = smallSuite(2);
    const std::vector<SweepConfig> configs = twoConfigs();

    std::ostringstream events;
    SuiteCache cache;
    SweepOptions opts;
    opts.jobs = 1;
    opts.cache = &cache;
    opts.eventLog = &events;
    const SweepResult res = runSweep(suite, configs, opts);

    std::istringstream lines(events.str());
    std::string line;
    std::vector<std::string> kinds;
    double cellWallSum = 0.0;
    double endCellWall = -1.0;
    while (std::getline(lines, line)) {
        ASSERT_TRUE(JsonChecker(line).valid())
            << "event line is not valid JSON: " << line;
        if (line.find("\"event\":\"cell\"") != std::string::npos) {
            kinds.push_back("cell");
            cellWallSum += numberField(line, "wall_s");
        } else if (line.find("\"event\":\"config\"") !=
                   std::string::npos) {
            kinds.push_back("config");
        } else if (line.find("\"event\":\"sweep_start\"") !=
                   std::string::npos) {
            kinds.push_back("start");
        } else if (line.find("\"event\":\"sweep_end\"") !=
                   std::string::npos) {
            kinds.push_back("end");
            endCellWall = numberField(line, "cell_wall_s");
        } else {
            FAIL() << "unknown event line: " << line;
        }
    }

    // One line per cell and per config, framed by start/end.
    const std::size_t cells = configs.size() * suite.size();
    ASSERT_FALSE(kinds.empty());
    EXPECT_EQ(kinds.front(), "start");
    EXPECT_EQ(kinds.back(), "end");
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(kinds.begin(), kinds.end(), "cell")),
              cells);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(kinds.begin(), kinds.end(), "config")),
              configs.size());

    // Per-cell wall times reconcile with the aggregate counter, both
    // as logged (%.17g round-trips doubles) and as recorded.
    EXPECT_NEAR(cellWallSum, res.stats.cellWallSeconds, 1e-9);
    EXPECT_NEAR(endCellWall, res.stats.cellWallSeconds, 1e-9);
    double recorded = 0.0;
    for (const SweepCell &cell : res.cells)
        recorded += cell.wallSeconds;
    EXPECT_DOUBLE_EQ(recorded, res.stats.cellWallSeconds);
    EXPECT_LE(res.stats.cellWallSeconds,
              res.stats.wallSeconds * static_cast<double>(res.jobs) +
                  1e-6);
}

TEST(Sweep, ProgressLineContentIsPinned)
{
    // No throughput yet: percentage but no rate/ETA estimate.
    EXPECT_EQ(renderSweepProgress(0, 10, 0.0),
              "[sweep] 0/10 cells (0.0%) ETA --");
    EXPECT_EQ(renderSweepProgress(0, 10, 1.5),
              "[sweep] 0/10 cells (0.0%) ETA --");
    // Mid-sweep: 5 cells in 2s -> 2.5 cells/s, 5 remaining -> 2s.
    EXPECT_EQ(renderSweepProgress(5, 10, 2.0),
              "[sweep] 5/10 cells (50.0%) 2.5 cells/s ETA 2s");
    // Done: ETA reaches zero.
    EXPECT_EQ(renderSweepProgress(10, 10, 4.0),
              "[sweep] 10/10 cells (100.0%) 2.5 cells/s ETA 0s");
}

TEST(Sweep, ProgressSinkReceivesLiveLine)
{
    const std::vector<Program> suite = smallSuite(1);
    const std::vector<SweepConfig> configs = twoConfigs();

    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    SuiteCache cache;
    SweepOptions opts;
    opts.jobs = 1;
    opts.cache = &cache;
    opts.progress = sink;
    const SweepResult res = runSweep(suite, configs, opts);

    std::rewind(sink);
    std::string text;
    char buf[256];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), sink)) > 0)
        text.append(buf, got);
    std::fclose(sink);

    const std::string done = std::to_string(res.stats.cellsTotal);
    EXPECT_NE(text.find("[sweep] "), std::string::npos);
    EXPECT_NE(text.find(done + "/" + done + " cells (100.0%)"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find('\r'), std::string::npos)
        << "progress line must redraw in place";
}

TEST(Sweep, ManifestParsesAndCarriesProvenance)
{
    const std::vector<Program> suite = smallSuite(2);
    const std::vector<SweepConfig> configs = twoConfigs();

    SuiteCache cache;
    SweepOptions opts;
    opts.jobs = 1;
    opts.cache = &cache;
    const SweepResult res = runSweep(suite, configs, opts);

    std::ostringstream os;
    writeSweepManifest(os, res, configs);
    const std::string text = os.str();

    ASSERT_TRUE(JsonChecker(text).valid())
        << "manifest is not valid JSON";
    EXPECT_NE(text.find("\"schema\": \"lbp-sweep-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"git_sha\": "), std::string::npos);
    EXPECT_NE(text.find("\"fingerprint\": "), std::string::npos);
    EXPECT_NE(text.find(gitShaString()), std::string::npos);

    // Every sweep counter the metrics table names must be present, and
    // the cell wall-time total must reconcile with the cells recorded.
    for (const MetricDesc<SweepStats> &d : sweepMetrics()) {
        std::string quoted("\"");
        quoted += d.name;
        quoted += '"';
        EXPECT_NE(text.find(quoted), std::string::npos)
            << "manifest counters missing " << d.name;
    }
    EXPECT_EQ(static_cast<std::uint64_t>(
                  counterValue(text, "sweep_cells_total")),
              res.stats.cellsTotal);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  counterValue(text, "sweep_cells_simulated")),
              res.stats.cellsSimulated);
    double cellSum = 0.0;
    for (const SweepCell &cell : res.cells)
        cellSum += cell.wallSeconds;
    // Gauges render with 6 significant digits; compare accordingly.
    EXPECT_NEAR(counterValue(text, "sweep_cell_wall_s"), cellSum,
                1e-5 * std::max(1.0, cellSum));

    // Per-config provenance: names and every workload appear.
    for (const SweepConfig &c : configs)
        EXPECT_NE(text.find("\"name\": \"" + c.name + "\""),
                  std::string::npos);
    for (const Program &p : suite)
        EXPECT_NE(text.find("\"workload\": \"" + p.name + "\""),
                  std::string::npos);
}

TEST(Sweep, MetricTableNamesUniqueAndBound)
{
    const auto &table = sweepMetrics();
    ASSERT_GE(table.size(), 12u);

    std::map<std::string, int> names;
    for (const MetricDesc<SweepStats> &d : table)
        ++names[d.name];
    for (const auto &[name, count] : names)
        EXPECT_EQ(count, 1) << "duplicate sweep metric " << name;

    SweepStats s;
    s.cellsTotal = 7;
    s.cellsSimulated = 4;
    s.cellsStoreHit = 2;
    s.cellsCacheHit = 1;
    s.storeHits = 2;
    s.storeMisses = 5;
    s.storeStale = 1;
    s.storeWrites = 4;
    s.simInstrs = 2'000'000;
    s.wallSeconds = 4.0;
    s.cellWallSeconds = 3.5;

    MetricsRegistry reg;
    registerMetrics(reg, sweepMetrics(), s);
    ASSERT_EQ(reg.scalars().size(), table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(reg.scalars()[i].name, table[i].name);
        EXPECT_EQ(reg.scalars()[i].value, table[i].get(s));
    }

    const auto value = [&](const char *name) {
        for (const MetricDesc<SweepStats> &d : table)
            if (std::string(name) == d.name)
                return d.get(s);
        ADD_FAILURE() << "missing sweep metric " << name;
        return -1.0;
    };
    EXPECT_EQ(value("sweep_cells_total"), 7.0);
    EXPECT_EQ(value("sweep_cells_simulated"), 4.0);
    EXPECT_EQ(value("store_stale"), 1.0);
    EXPECT_EQ(value("sweep_wall_s"), 4.0);
    // Derived gauge: simulated Minstr over sweep wall time.
    EXPECT_DOUBLE_EQ(value("sweep_minstr_per_s"), 0.5);
}

// `suite`, `warmup` and `instr` share one strict parser: plain decimal
// integers in range, nothing else.
TEST(SweepSpec, CountParserIsStrict)
{
    std::uint64_t v = 7;
    EXPECT_TRUE(parseSpecCount("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseSpecCount("18446744073709551615", v));
    EXPECT_EQ(v, 18446744073709551615ull);
    EXPECT_TRUE(parseSpecCount("4294967295", v, 4294967295u));
    EXPECT_EQ(v, 4294967295u);
    v = 7;
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "2.7", "1e3",
                            "abc", "12abc", "0x10",
                            "18446744073709551616"})
        EXPECT_FALSE(parseSpecCount(bad, v)) << "'" << bad << "'";
    EXPECT_FALSE(parseSpecCount("4294967296", v, 4294967295u));
    EXPECT_EQ(v, 7u);  // untouched on failure

    EXPECT_TRUE(parseSpecCount(40000.0, v));
    EXPECT_EQ(v, 40000u);
    EXPECT_TRUE(parseSpecCount(1e3, v));  // JSON 1e3 is the integer 1000
    EXPECT_EQ(v, 1000u);
    v = 7;
    for (double bad : {-1.0, 2.7, 1e30, 18446744073709551616.0,
                       std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()})
        EXPECT_FALSE(parseSpecCount(bad, v)) << bad;
    EXPECT_FALSE(parseSpecCount(4294967296.0, v, 4294967295u));
    EXPECT_EQ(v, 7u);
}

TEST(SweepSpec, MalformedCountsAreSpecErrors)
{
    for (const char *text :
         {"warmup -1", "warmup 1e3", "warmup abc", "warmup", "instr 2.7",
          "instr 5 6", "suite abc", "suite -3", "suite 4294967296",
          "suite all 8"}) {
        SweepSpec spec;
        std::string err;
        EXPECT_FALSE(parseSweepSpecText(text, spec, err)) << text;
        EXPECT_EQ(err.rfind("spec: ", 0), 0u) << text << ": " << err;
    }

    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(parseSweepSpecText("suite all\nwarmup 1000\n"
                                   "instr 18446744073709551615\n",
                                   spec, err))
        << err;
    EXPECT_TRUE(spec.fullSuite);
    EXPECT_EQ(spec.suite, 0u);
    EXPECT_EQ(spec.warmupInstrs, 1000u);
    EXPECT_EQ(spec.measureInstrs, 18446744073709551615ull);
    ASSERT_TRUE(parseSweepSpecText("suite 3  # three\n", spec, err));
    EXPECT_FALSE(spec.fullSuite);
    EXPECT_EQ(spec.suite, 3u);
}

TEST(SweepSpec, OutOfRangeModifiersAreSpecErrors)
{
    // Before the modifiers were parsed strictly, each of these reached
    // a scheme-constructor assertion, ran as a different value, or
    // sized a ring past the cap.
    for (const char *mods : {
             "limited-pc limited-m=0",
             "limited-pc limited-m=17",
             "limited-pc limited-m=4x",
             "limited-pc limited-m=",
             "limited-pc limited-m=-1",
             "limited-pc limited-m=+4",
             "forward-walk ports=1-4-2",
             "forward-walk ports=0-4-2",
             "forward-walk ports=4097-4-2",
             "forward-walk ports=32-0-2",
             "forward-walk ports=32-4-0",
             "forward-walk ports=32-65-2",
             "forward-walk ports=32-4-65",
             "forward-walk ports=32-4",
             "forward-walk ports=32-4-2-1",
             "forward-walk ports=32-4-2x",
             "forward-walk ports=32--4-2",
             "forward-walk ports=-32-4-2",
             "forward-walk ports=32-+4-2",
             "forward-walk ports=4294967328-4-2",
             "snapshot ports=99999999999-1-1",
             "forward-walk loop=96",
             "forward-walk loop=128x",
             "forward-walk loop=+128",
             "forward-walk loop=",
             "baseline tage=8",
             "baseline tage=7.0",
             "perfect tage= 9",
         }) {
        const std::string text = std::string("config ") + mods;
        SweepSpec spec;
        std::string err;
        EXPECT_FALSE(parseSweepSpecText(text, spec, err)) << text;
        EXPECT_EQ(err.rfind("spec: ", 0), 0u) << text << ": " << err;
    }

    // The bounds themselves are accepted, and valid values land as
    // before.
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(parseSweepSpecText(
                    "config limited-pc limited-m=1\n"
                    "config limited-pc limited-m=16 ports=32-4-4\n"
                    "config forward-walk ports=2-1-1\n"
                    "config snapshot ports=4096-64-64\n"
                    "config forward-walk loop=256 tage=57\n",
                    spec, err))
        << err;
    ASSERT_EQ(spec.configs.size(), 5u);
    EXPECT_EQ(spec.configs[0].cfg.repair.limitedM, 1u);
    EXPECT_EQ(spec.configs[1].cfg.repair.limitedM,
              RepairConfig::maxLimitedM);
    EXPECT_EQ(spec.configs[1].cfg.repair.ports.entries, 32u);
    EXPECT_EQ(spec.configs[1].cfg.repair.ports.readPorts, 4u);
    EXPECT_EQ(spec.configs[1].cfg.repair.ports.bhtWritePorts, 4u);
    EXPECT_EQ(spec.configs[2].cfg.repair.ports.entries,
              RepairPorts::minEntries);
    EXPECT_EQ(spec.configs[3].cfg.repair.ports.entries,
              RepairPorts::maxEntries);
    EXPECT_EQ(spec.configs[3].cfg.repair.ports.readPorts,
              RepairPorts::maxPorts);
    EXPECT_EQ(spec.configs[3].cfg.repair.ports.bhtWritePorts,
              RepairPorts::maxPorts);
    EXPECT_EQ(spec.configs[4].cfg.repair.loop.bhtEntries,
              LoopConfig::entries256().bhtEntries);
    EXPECT_EQ(spec.configs[4].cfg.tage.storageKB(),
              TageConfig::kb57().storageKB());
}

TEST(SweepSpec, PortAndLimitedMParsersLeaveOutputOnError)
{
    RepairPorts ports{32, 4, 2};
    EXPECT_FALSE(parseRepairPorts("1-1-1", ports));
    EXPECT_FALSE(parseRepairPorts("", ports));
    EXPECT_EQ(ports.entries, 32u);
    EXPECT_EQ(ports.readPorts, 4u);
    EXPECT_EQ(ports.bhtWritePorts, 2u);
    ASSERT_TRUE(parseRepairPorts("64-8-4", ports));
    EXPECT_EQ(ports.entries, 64u);
    EXPECT_EQ(ports.readPorts, 8u);
    EXPECT_EQ(ports.bhtWritePorts, 4u);

    unsigned m = 4;
    EXPECT_FALSE(parseLimitedM("0", m));
    EXPECT_FALSE(parseLimitedM("2.5", m));
    EXPECT_EQ(m, 4u);
    ASSERT_TRUE(parseLimitedM("7", m));
    EXPECT_EQ(m, 7u);

    LoopConfig loop = LoopConfig::entries64();
    EXPECT_FALSE(parseLoopConfig("128x", loop));
    EXPECT_FALSE(parseLoopConfig("", loop));
    EXPECT_EQ(loop.bhtEntries, LoopConfig::entries64().bhtEntries);
    ASSERT_TRUE(parseLoopConfig("256", loop));
    EXPECT_EQ(loop.bhtEntries, LoopConfig::entries256().bhtEntries);

    TageConfig tage = TageConfig::kb9();
    EXPECT_FALSE(parseTageConfig("57KB", tage));
    EXPECT_FALSE(parseTageConfig("8", tage));
    EXPECT_EQ(tage.storageKB(), TageConfig::kb9().storageKB());
    ASSERT_TRUE(parseTageConfig("57", tage));
    EXPECT_EQ(tage.storageKB(), TageConfig::kb57().storageKB());

    // The seconds-valued tool flags: plain, finite, non-negative
    // decimals only.
    double secs = 2.5;
    for (const char *bad :
         {"", "abc", "-1", "-0", "+1", " 1", "1e3", "inf", "nan", "1s"})
        EXPECT_FALSE(parseSeconds(bad, secs)) << bad;
    EXPECT_EQ(secs, 2.5);
    ASSERT_TRUE(parseSeconds("0.25", secs));
    EXPECT_EQ(secs, 0.25);
    ASSERT_TRUE(parseSeconds("600", secs));
    EXPECT_EQ(secs, 600.0);
}

// Figure-8 port analysis must reconcile exactly against the raw
// forensics records: every row aggregates every squash, single-cycle
// counts match a direct recount, and more ports never hurt.
TEST(Sweep, PortAnalysisReconcilesWithForensicsRecords)
{
    const std::vector<Program> suite = smallSuite(3);
    SimConfig cfg = schemeConfig(RepairKind::ForwardWalk);
    cfg.obs.forensics = true;

    const SuiteResult res = runSuite(suite, cfg, 1);
    std::vector<const ObsRun *> obs;
    std::uint64_t records = 0;
    for (const RunResult &r : res.runs) {
        ASSERT_TRUE(r.obs) << r.workload;
        obs.push_back(r.obs.get());
        records += r.obs->squashes.size();
    }
    ASSERT_GT(records, 0u);

    const std::vector<unsigned> ports = {1, 2, 4, 8};
    const auto rows = portAnalysis(obs, ports);
    ASSERT_EQ(rows.size(), ports.size());

    for (std::size_t i = 0; i < rows.size(); ++i) {
        SCOPED_TRACE("ports=" + std::to_string(ports[i]));
        EXPECT_EQ(rows[i].ports, ports[i]);
        EXPECT_EQ(rows[i].squashes, records)
            << "row does not aggregate every forensics record";

        // Direct recount against the raw records.
        std::uint64_t walkFit = 0, writeFit = 0, maxWalk = 0;
        double drainSum = 0.0;
        for (const ObsRun *o : obs) {
            for (const SquashRecord &sq : o->squashes) {
                walkFit += sq.walkLength <= ports[i];
                writeFit += sq.repairWrites <= ports[i];
                const std::uint64_t drain =
                    (sq.walkLength + ports[i] - 1) / ports[i];
                drainSum += static_cast<double>(drain);
                maxWalk = std::max(maxWalk, drain);
            }
        }
        EXPECT_EQ(rows[i].walkSingleCycle, walkFit);
        EXPECT_EQ(rows[i].writeSingleCycle, writeFit);
        EXPECT_EQ(rows[i].maxWalkDrainCycles, maxWalk);
        EXPECT_DOUBLE_EQ(rows[i].avgWalkDrainCycles,
                         drainSum / static_cast<double>(records));
        EXPECT_NEAR(rows[i].walkSingleCyclePct,
                    100.0 * static_cast<double>(walkFit) /
                        static_cast<double>(records),
                    1e-9);
    }

    // Monotone in ports: more ports never drain slower.
    for (std::size_t i = 1; i < rows.size(); ++i) {
        EXPECT_GE(rows[i].walkSingleCycle, rows[i - 1].walkSingleCycle);
        EXPECT_GE(rows[i].writeSingleCycle,
                  rows[i - 1].writeSingleCycle);
        EXPECT_LE(rows[i].avgWalkDrainCycles,
                  rows[i - 1].avgWalkDrainCycles);
        EXPECT_LE(rows[i].maxWalkDrainCycles,
                  rows[i - 1].maxWalkDrainCycles);
    }

    // CSV: header plus one row per port count.
    std::ostringstream csv;
    writePortAnalysisCsv(csv, rows);
    const std::string text = csv.str();
    EXPECT_EQ(text.rfind("ports,squashes,", 0), 0u);
    std::size_t lines = 0;
    for (const char c : text)
        lines += c == '\n';
    EXPECT_EQ(lines, rows.size() + 1);
    EXPECT_NE(formatPortAnalysis(rows).find("ports"),
              std::string::npos);
}
