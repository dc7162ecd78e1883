/**
 * @file
 * Observability-layer tests (src/obs): the bit-identity contract
 * (trace-on == trace-off), Chrome trace well-formedness, forensics/
 * counter reconciliation, histogram/counter reconciliation, Konata
 * framing, and the run-metric table.
 */

#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/runner.hh"
#include "workload/suite.hh"

using namespace lbp;

namespace {

/** Every repair scheme. */
constexpr RepairKind allSchemes[] = {
    RepairKind::Perfect,     RepairKind::NoRepair,
    RepairKind::RetireUpdate, RepairKind::BackwardWalk,
    RepairKind::Snapshot,    RepairKind::ForwardWalk,
    RepairKind::LimitedPc,   RepairKind::MultiStage,
    RepairKind::FutureFile,
};

SimConfig
schemeConfig(RepairKind kind)
{
    SimConfig cfg;
    cfg.warmupInstrs = 20000;
    cfg.measureInstrs = 30000;
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

/** Run with observability fully on (trace + forensics). */
RunResult
observedRun(const Program &prog, SimConfig cfg)
{
    cfg.obs.trace = true;
    cfg.obs.forensics = true;
    return runOne(prog, cfg);
}

/**
 * Minimal recursive-descent JSON parser — just enough structure checking
 * to prove the Chrome trace is real JSON (not a curly-brace lookalike),
 * plus extraction of the "ph"/"tid" fields of each event object.
 */
class MiniJson
{
  public:
    struct Event
    {
        char ph = '?';
        std::int64_t tid = -1;
        std::int64_t ts = -1;
    };

    explicit MiniJson(const std::string &text) : s_(text) {}

    /** Parse the top-level array; false on any syntax error. */
    bool
    parseTraceArray()
    {
        skipWs();
        if (!consume('['))
            return false;
        skipWs();
        if (peek() == ']')
            return consume(']');
        do {
            Event ev;
            if (!parseObject(&ev))
                return false;
            events.push_back(ev);
            skipWs();
        } while (consume(','));
        if (!consume(']'))
            return false;
        skipWs();
        return pos_ == s_.size();
    }

    std::vector<Event> events;

  private:
    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    bool
    consume(char c)
    {
        skipWs();
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    parseString(std::string *out)
    {
        if (!consume('"'))
            return false;
        std::string v;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            v += s_[pos_++];
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_;  // closing quote
        if (out)
            *out = v;
        return true;
    }

    bool
    parseNumber(double *out)
    {
        skipWs();
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())) ||
               peek() == '.' || peek() == 'e' || peek() == 'E' ||
               peek() == '+' || peek() == '-')
            ++pos_;
        if (pos_ == start)
            return false;
        *out = std::stod(s_.substr(start, pos_ - start));
        return true;
    }

    bool
    parseValue(Event *ev, const std::string &key)
    {
        skipWs();
        const char c = peek();
        if (c == '"') {
            std::string v;
            if (!parseString(&v))
                return false;
            if (ev && key == "ph" && v.size() == 1)
                ev->ph = v[0];
            return true;
        }
        if (c == '{')
            return parseObject(nullptr);
        if (c == '[') {
            if (!consume('['))
                return false;
            skipWs();
            if (peek() == ']')
                return consume(']');
            do {
                if (!parseValue(nullptr, ""))
                    return false;
            } while (consume(','));
            return consume(']');
        }
        double num = 0.0;
        if (!parseNumber(&num))
            return false;
        if (ev && key == "tid")
            ev->tid = static_cast<std::int64_t>(num);
        if (ev && key == "ts")
            ev->ts = static_cast<std::int64_t>(num);
        return true;
    }

    bool
    parseObject(Event *ev)
    {
        if (!consume('{'))
            return false;
        skipWs();
        if (peek() == '}')
            return consume('}');
        do {
            std::string key;
            skipWs();
            if (!parseString(&key))
                return false;
            if (!consume(':'))
                return false;
            if (!parseValue(ev, key))
                return false;
            skipWs();
        } while (consume(','));
        return consume('}');
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

// The load-bearing contract: attaching the tracer (events + forensics)
// must not change a single architectural counter. Covers a walk scheme,
// a snapshot scheme, the multi-stage split BHT (early resteers take a
// different hook path) and the TAGE-only baseline.
TEST(Trace, TraceOnIsBitIdenticalToTraceOff)
{
    SimConfig base;
    base.warmupInstrs = 20000;
    base.measureInstrs = 30000;
    const SimConfig configs[] = {
        base,
        schemeConfig(RepairKind::ForwardWalk),
        schemeConfig(RepairKind::Snapshot),
        schemeConfig(RepairKind::MultiStage),
    };
    for (const Program &prog : smallSuite(3)) {
        for (const SimConfig &cfg : configs) {
            SCOPED_TRACE(prog.name + " / " + configLabel(cfg));
            const RunResult off = runOne(prog, cfg);
            const RunResult on = observedRun(prog, cfg);

            EXPECT_FALSE(off.obs);
            ASSERT_TRUE(on.obs);

            EXPECT_EQ(on.stats.cycles, off.stats.cycles);
            EXPECT_EQ(on.stats.retiredInstrs, off.stats.retiredInstrs);
            EXPECT_EQ(on.stats.retiredCond, off.stats.retiredCond);
            EXPECT_EQ(on.stats.mispredicts, off.stats.mispredicts);
            EXPECT_EQ(on.stats.fetchedInstrs, off.stats.fetchedInstrs);
            EXPECT_EQ(on.stats.wrongPathFetched,
                      off.stats.wrongPathFetched);
            EXPECT_EQ(on.stats.earlyResteers, off.stats.earlyResteers);
            EXPECT_EQ(on.stats.btbMisses, off.stats.btbMisses);
            EXPECT_EQ(on.overrides, off.overrides);
            EXPECT_EQ(on.overridesCorrect, off.overridesCorrect);
            EXPECT_EQ(on.repairs, off.repairs);
            EXPECT_EQ(on.repairWrites, off.repairWrites);
            EXPECT_EQ(on.uncheckpointedMispredicts,
                      off.uncheckpointedMispredicts);
            EXPECT_EQ(on.deniedPredictions, off.deniedPredictions);
            EXPECT_EQ(on.skippedSpecUpdates, off.skippedSpecUpdates);
            EXPECT_EQ(on.cacheAccesses, off.cacheAccesses);
            EXPECT_EQ(on.cacheMisses, off.cacheMisses);
            EXPECT_EQ(on.ipc, off.ipc);
            EXPECT_EQ(on.mpki, off.mpki);
        }
    }
}

// The Chrome export must be valid JSON with every duration-begin matched
// by an end on the same tid, never nesting out of order (Perfetto
// rejects unbalanced pairs).
TEST(Trace, ChromeTraceParsesWithBalancedPairs)
{
    const std::vector<Program> suite = smallSuite(2);
    std::vector<RunResult> results;
    for (const Program &prog : suite)
        results.push_back(
            observedRun(prog, schemeConfig(RepairKind::ForwardWalk)));

    std::vector<const ObsRun *> obs;
    for (const RunResult &r : results)
        obs.push_back(r.obs.get());

    std::ostringstream os;
    writeChromeTrace(os, obs);
    const std::string text = os.str();

    MiniJson parser(text);
    ASSERT_TRUE(parser.parseTraceArray())
        << "trace is not valid JSON";
    ASSERT_FALSE(parser.events.empty());

    std::uint64_t begins = 0, ends = 0;
    std::map<std::int64_t, int> depth;
    for (const MiniJson::Event &ev : parser.events) {
        if (ev.ph == 'B') {
            ++begins;
            ++depth[ev.tid];
        } else if (ev.ph == 'E') {
            ++ends;
            ASSERT_GT(depth[ev.tid], 0)
                << "E without matching B on tid " << ev.tid;
            --depth[ev.tid];
        }
    }
    EXPECT_EQ(begins, ends);
    for (const auto &[tid, d] : depth)
        EXPECT_EQ(d, 0) << "unclosed span on tid " << tid;
}

// Forensics channel reconciles exactly with the core and the scheme,
// for every repair scheme: one squash record per misprediction, the
// per-squash walk lengths and repair writes (what each recovery's
// RepairOutcome reported) sum to the scheme's own RepairStats totals,
// and the CSV dump has one row per record plus the header.
TEST(Trace, ForensicsReconcilesWithCoreStats)
{
    const std::vector<Program> suite = smallSuite(3);
    for (const RepairKind kind : allSchemes) {
        SimConfig cfg = schemeConfig(kind);
        cfg.obs.forensics = true;
        std::vector<ObsRun> runs;
        std::size_t total_squashes = 0;
        for (const Program &prog : suite) {
            SCOPED_TRACE(prog.name + " / " + configLabel(cfg));
            OooCore core(prog, cfg);
            PipelineTracer tracer(cfg.obs);
            core.attachTracer(&tracer);
            core.run(cfg.warmupInstrs + cfg.measureInstrs);
            ObsRun o = tracer.finish();
            o.workload = prog.name;

            EXPECT_EQ(o.squashes.size(), core.stats().mispredicts);
            EXPECT_GT(core.stats().mispredicts, 0u);
            std::uint64_t walk = 0, writes = 0;
            for (const SquashRecord &sq : o.squashes) {
                walk += sq.walkLength;
                writes += sq.repairWrites;
            }
            const RepairStats &rs = core.scheme()->stats();
            EXPECT_EQ(walk, rs.walkLength.sum());
            EXPECT_EQ(writes, rs.repairWrites);
            total_squashes += o.squashes.size();
            runs.push_back(std::move(o));
        }

        std::vector<const ObsRun *> obs;
        for (const ObsRun &o : runs)
            obs.push_back(&o);
        std::ostringstream os;
        writeForensicsCsv(os, obs);
        const std::string text = os.str();
        std::size_t lines = 0;
        for (char c : text)
            if (c == '\n')
                ++lines;
        EXPECT_EQ(lines, total_squashes + 1);  // +1 header
        EXPECT_EQ(text.rfind("workload,cycle,pc,seq,source,", 0), 0u);
    }
}

// Histogram bucket sums must equal their sample counts, and the sample
// counts must reconcile with the squash/repair totals they observe —
// for every repair scheme, down to the run's repair-write total.
TEST(Trace, HistogramsReconcileWithCounters)
{
    for (const Program &prog : smallSuite(2)) {
        for (const RepairKind kind : allSchemes) {
            SCOPED_TRACE(prog.name + " / " + repairKindName(kind));
            const RunResult r = observedRun(prog, schemeConfig(kind));
            ASSERT_TRUE(r.obs);
            const ObsRun &o = *r.obs;

            const std::uint64_t n = o.squashes.size();
            EXPECT_EQ(o.resolveLatency.count(), n);
            EXPECT_EQ(o.robOccupancy.count(), n);
            // Walk-length samples only exist for squashes whose repair
            // actually walked entries, so the count is bounded by, not
            // equal to, the repair total.
            EXPECT_LE(o.walkLength.count(), o.totalRepairs);

            for (const FixedHistogram *h :
                 {&o.resolveLatency, &o.robOccupancy, &o.walkLength}) {
                EXPECT_EQ(h->bucketTotal(), h->count());
                std::uint64_t max_seen = h->max();
                EXPECT_LE(max_seen, h->sum());
            }

            // Per-record sums must match the histogram sums and the
            // run's repair-write total exactly.
            std::uint64_t lat = 0, rob = 0, walk = 0, writes = 0;
            for (const SquashRecord &sq : o.squashes) {
                lat += sq.resolveLatency;
                rob += sq.robOccupancy;
                walk += sq.walkLength;
                writes += sq.repairWrites;
            }
            EXPECT_EQ(o.resolveLatency.sum(), lat);
            EXPECT_EQ(o.robOccupancy.sum(), rob);
            EXPECT_EQ(o.walkLength.sum(), walk);
            EXPECT_EQ(r.repairWrites, writes);
        }
    }
}

TEST(Trace, FixedHistogramBucketBounds)
{
    FixedHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.sample(3);
    EXPECT_EQ(h.min(), 3u);
    h = FixedHistogram();
    h.sample(0);
    h.sample(1);   // bucket 0: v <= 1
    h.sample(2);   // bucket 1: 1 < v <= 2
    h.sample(3);   // bucket 2: 2 < v <= 4
    h.sample(4);
    h.sample(5);   // bucket 3
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.sum(), 15u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
    EXPECT_EQ(h.bucketTotal(), h.count());
    // Clamp: huge samples land in the last bucket, not out of bounds.
    h.sample(~0ull);
    EXPECT_EQ(h.bucket(FixedHistogram::numBuckets - 1), 1u);
    EXPECT_EQ(h.bucketTotal(), h.count());
}

TEST(Trace, KonataLogStartsWithFormatHeader)
{
    const std::vector<Program> suite = smallSuite(1);
    const RunResult r =
        observedRun(suite[0], schemeConfig(RepairKind::ForwardWalk));
    ASSERT_TRUE(r.obs);
    std::ostringstream os;
    writeKonata(os, *r.obs);
    const std::string text = os.str();
    EXPECT_EQ(text.rfind("Kanata\t0004\n", 0), 0u);
    EXPECT_NE(text.find("\nC=\t"), std::string::npos);
    EXPECT_NE(text.find("\nR\t"), std::string::npos);
}

// Window bounding: a tiny window must yield a subset of a huge window's
// events (same suffix), and dropped + kept spans the same emission total.
TEST(Trace, WindowBoundsEventMemory)
{
    const std::vector<Program> suite = smallSuite(1);
    SimConfig cfg = schemeConfig(RepairKind::ForwardWalk);
    cfg.obs.trace = true;

    cfg.obs.traceWindowCycles = 500;
    const RunResult small = runOne(suite[0], cfg);
    cfg.obs.traceWindowCycles = 1u << 20;
    const RunResult big = runOne(suite[0], cfg);

    ASSERT_TRUE(small.obs);
    ASSERT_TRUE(big.obs);
    EXPECT_LE(small.obs->events.size(), big.obs->events.size());
    ASSERT_FALSE(small.obs->events.empty());

    // Every kept event lies within the window of the newest one.
    Cycle newest = 0;
    for (const TraceRecord &e : small.obs->events)
        newest = std::max(newest, e.end);
    for (const TraceRecord &e : small.obs->events)
        EXPECT_GE(e.end + 500, newest);
}

// Offender aggregation: squash totals are conserved and the table is
// sorted by squash count.
TEST(Trace, TopOffendersConserveSquashes)
{
    const std::vector<Program> suite = smallSuite(1);
    const RunResult r =
        observedRun(suite[0], schemeConfig(RepairKind::ForwardWalk));
    ASSERT_TRUE(r.obs);
    const std::vector<const ObsRun *> obs = {r.obs.get()};

    const auto all = topOffenders(obs, ~std::size_t{0});
    std::uint64_t sum = 0;
    for (const OffenderRow &row : all)
        sum += row.squashes;
    EXPECT_EQ(sum, r.obs->squashes.size());
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_GE(all[i - 1].squashes, all[i].squashes);

    const auto top3 = topOffenders(obs, 3);
    ASSERT_LE(top3.size(), 3u);
    for (std::size_t i = 0; i < top3.size(); ++i)
        EXPECT_EQ(top3[i].pc, all[i].pc);

    const std::string table = formatOffenders(all);
    EXPECT_NE(table.find("squashes"), std::string::npos);
}

// The metric table is the single naming authority: every entry must
// produce the same value as the RunResult field it fronts, names must be
// unique, and registration must preserve table order.
TEST(Trace, RunMetricTableMatchesRunResult)
{
    const std::vector<Program> suite = smallSuite(1);
    const RunResult r =
        runOne(suite[0], schemeConfig(RepairKind::ForwardWalk));

    const auto &table = runMetrics();
    ASSERT_GE(table.size(), 20u);

    std::map<std::string, int> names;
    for (const MetricDesc<RunResult> &d : table)
        ++names[d.name];
    for (const auto &[name, count] : names)
        EXPECT_EQ(count, 1) << "duplicate metric name " << name;

    MetricsRegistry reg;
    registerMetrics(reg, runMetrics(), r);
    ASSERT_EQ(reg.scalars().size(), table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(reg.scalars()[i].name, table[i].name);
        EXPECT_EQ(reg.scalars()[i].value, table[i].get(r));
        EXPECT_EQ(reg.scalars()[i].integral, table[i].integral);
    }

    // Spot-check a few bindings against the underlying fields.
    const auto value = [&](const char *name) {
        for (const MetricDesc<RunResult> &d : table)
            if (std::string(name) == d.name)
                return d.get(r);
        ADD_FAILURE() << "missing metric " << name;
        return -1.0;
    };
    EXPECT_EQ(value("ipc"), r.ipc);
    EXPECT_EQ(value("mpki"), r.mpki);
    EXPECT_EQ(value("mispredicts"),
              static_cast<double>(r.stats.mispredicts));
    EXPECT_EQ(value("repairs"), static_cast<double>(r.repairs));
    EXPECT_EQ(value("cache_misses"),
              static_cast<double>(r.cacheMisses));

    // JSON export round-trips through the mini parser's object grammar.
    std::ostringstream os;
    reg.writeJson(os);
    const std::string js = os.str();
    EXPECT_EQ(js.find('{'), 0u);
    EXPECT_NE(js.find("\"scalars\""), std::string::npos);
}

// Windowed forensics striding: recording every Nth squash must keep
// exactly ceil(totalMispredicts / N) records (the first squash is
// always recorded), reconcile against the recorded sampling factor,
// sample histograms only from recorded squashes — and, like all
// observability, leave the architectural counters untouched.
TEST(Trace, ForensicsStrideReconcilesAndStaysBitIdentical)
{
    const std::vector<Program> suite = smallSuite(2);
    SimConfig cfg = schemeConfig(RepairKind::ForwardWalk);
    cfg.obs.forensics = true;

    for (const Program &prog : suite) {
        const RunResult full = runOne(prog, cfg);
        ASSERT_TRUE(full.obs);
        const std::uint64_t mispredicts = full.obs->totalMispredicts;
        ASSERT_GT(mispredicts, 0u) << prog.name;
        EXPECT_EQ(full.obs->forensicsStride, 1u);
        EXPECT_EQ(full.obs->squashes.size(), mispredicts);

        for (const std::uint64_t stride : {2ull, 7ull, 1000000ull}) {
            SCOPED_TRACE(prog.name + " stride " +
                         std::to_string(stride));
            SimConfig strided = cfg;
            strided.obs.forensicsStride = stride;
            const RunResult r = runOne(prog, strided);
            ASSERT_TRUE(r.obs);
            const ObsRun &o = *r.obs;

            // Reconciliation against the recorded sampling factor.
            EXPECT_EQ(o.forensicsStride, stride);
            EXPECT_EQ(o.totalMispredicts, mispredicts);
            EXPECT_EQ(o.squashes.size(),
                      (mispredicts + stride - 1) / stride);

            // Every recorded squash is a verbatim member of the full
            // record stream, at stride spacing from its start.
            for (std::size_t i = 0; i < o.squashes.size(); ++i) {
                const SquashRecord &got = o.squashes[i];
                const SquashRecord &want =
                    full.obs->squashes[i * stride];
                EXPECT_EQ(got.cycle, want.cycle);
                EXPECT_EQ(got.pc, want.pc);
                EXPECT_EQ(got.walkLength, want.walkLength);
                EXPECT_EQ(got.repairWrites, want.repairWrites);
            }

            // Histograms sample only recorded squashes.
            EXPECT_EQ(o.resolveLatency.count(), o.squashes.size());
            EXPECT_EQ(o.robOccupancy.count(), o.squashes.size());

            // Observation-only: simulation outcome is unchanged.
            EXPECT_EQ(r.stats.cycles, full.stats.cycles);
            EXPECT_EQ(r.stats.mispredicts, full.stats.mispredicts);
            EXPECT_EQ(r.ipc, full.ipc);
            EXPECT_EQ(r.repairWrites, full.repairWrites);
        }
    }
}

// Konata multi-run naming: the workload tag lands before the
// extension, path separators survive, and hostile characters are
// sanitized to '_'.
TEST(Trace, KonataRunPathInsertsWorkloadTag)
{
    EXPECT_EQ(konataRunPath("trace.kanata", "Server:0"),
              "trace.Server_0.kanata");
    EXPECT_EQ(konataRunPath("out/pipe.kanata", "Client:12"),
              "out/pipe.Client_12.kanata");
    // No extension: the tag is appended.
    EXPECT_EQ(konataRunPath("trace", "Mix:3"), "trace.Mix_3");
    // A dot in a parent directory is not an extension.
    EXPECT_EQ(konataRunPath("run.d/trace", "A"), "run.d/trace.A");
    // Already-safe characters pass through untouched.
    EXPECT_EQ(konataRunPath("t.kanata", "plain_Name-7"),
              "t.plain_Name-7.kanata");
}
