/**
 * @file
 * Persistent result store (src/sim/result_store): bit-exact
 * serialization round trips, fingerprint/key validation, stale-entry
 * invalidation, entry-file naming, and the cold-then-warm sweep
 * contract (the warm pass performs zero simulations yet emits CSVs
 * byte-identical to the cold pass that populated the store).
 */

#include <bit>
#include <cfloat>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "sim/result_store.hh"
#include "sim/suite_cache.hh"
#include "sim/sweep.hh"
#include "workload/suite.hh"

using namespace lbp;
namespace fs = std::filesystem;

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

/** Fresh empty directory under the test temp root. */
fs::path
freshDir(const char *name)
{
    const fs::path d = fs::path(::testing::TempDir()) / name;
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
}

/**
 * Exact equality over every serialized RunResult field — the
 * round-trip analogue of test_determinism.cc's expectIdentical, plus
 * identity (workload/category) and storage accounting. Doubles compare
 * with EXPECT_EQ: the %a hex-float format round-trips IEEE bits.
 */
void
expectRunIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.retiredInstrs, b.stats.retiredInstrs);
    EXPECT_EQ(a.stats.retiredCond, b.stats.retiredCond);
    EXPECT_EQ(a.stats.mispredicts, b.stats.mispredicts);
    EXPECT_EQ(a.stats.earlyResteers, b.stats.earlyResteers);
    EXPECT_EQ(a.stats.wrongPathFetched, b.stats.wrongPathFetched);
    EXPECT_EQ(a.stats.btbMisses, b.stats.btbMisses);
    EXPECT_EQ(a.stats.fetchedInstrs, b.stats.fetchedInstrs);
    EXPECT_EQ(a.overrides, b.overrides);
    EXPECT_EQ(a.overridesCorrect, b.overridesCorrect);
    EXPECT_EQ(a.repairs, b.repairs);
    EXPECT_EQ(a.repairWrites, b.repairWrites);
    EXPECT_EQ(a.earlyResteers, b.earlyResteers);
    EXPECT_EQ(a.earlyResteersWrong, b.earlyResteersWrong);
    EXPECT_EQ(a.uncheckpointedMispredicts, b.uncheckpointedMispredicts);
    EXPECT_EQ(a.deniedPredictions, b.deniedPredictions);
    EXPECT_EQ(a.skippedSpecUpdates, b.skippedSpecUpdates);
    EXPECT_EQ(a.maxRepairsNeeded, b.maxRepairsNeeded);
    EXPECT_EQ(a.auditChecks, b.auditChecks);
    EXPECT_EQ(a.auditViolations, b.auditViolations);
    EXPECT_EQ(a.auditResyncs, b.auditResyncs);
    EXPECT_EQ(a.auditSkipped, b.auditSkipped);
    EXPECT_EQ(a.auditUncovered, b.auditUncovered);
    EXPECT_EQ(a.cacheAccesses, b.cacheAccesses);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.cachePrefetchFills, b.cachePrefetchFills);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.avgRepairsNeeded, b.avgRepairsNeeded);
    EXPECT_EQ(a.avgWalkLength, b.avgWalkLength);
    EXPECT_EQ(a.avgRepairWrites, b.avgRepairWrites);
    EXPECT_EQ(a.avgRepairCycles, b.avgRepairCycles);
    EXPECT_EQ(a.tageKB, b.tageKB);
    EXPECT_EQ(a.localKB, b.localKB);
    EXPECT_EQ(a.repairKB, b.repairKB);
}

} // namespace

TEST(ResultStore, SerializationRoundTripsEveryFieldExactly)
{
    const std::vector<Program> suite = smallSuite(2);
    const SimConfig cfg = schemeConfig(RepairKind::ForwardWalk);
    SuiteResult res = runSuite(suite, cfg, 1);
    const std::string sk = suiteKey(suite);
    const std::string ck = configKey(cfg);
    // Doubles a simulation rarely produces, where a hex-float parser
    // goes wrong first: a sign on zero, the smallest subnormal, the
    // largest finite value. Compared bit for bit below (-0.0 == 0.0).
    ASSERT_GE(res.runs.size(), 2u);
    res.runs[0].ipc = -0.0;
    res.runs[0].mpki = std::numeric_limits<double>::denorm_min();
    res.runs[1].avgWalkLength = DBL_MAX;
    res.runs[1].repairKB = -std::numeric_limits<double>::denorm_min();

    std::stringstream ss;
    serializeSuiteResult(ss, buildFingerprint(), sk, ck, res);
    const auto back = deserializeSuiteResult(ss.str(), buildFingerprint(),
                                             sk, ck);
    ASSERT_TRUE(back);
    ASSERT_EQ(back->runs.size(), res.runs.size());
    for (std::size_t i = 0; i < res.runs.size(); ++i) {
        SCOPED_TRACE(res.runs[i].workload);
        expectRunIdentical(res.runs[i], back->runs[i]);
        // Observability capture is deliberately not persisted.
        EXPECT_FALSE(back->runs[i].obs);
    }
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    EXPECT_EQ(bits(back->runs[0].ipc), bits(-0.0));
    EXPECT_EQ(bits(back->runs[0].mpki),
              bits(std::numeric_limits<double>::denorm_min()));
    EXPECT_EQ(bits(back->runs[1].avgWalkLength), bits(DBL_MAX));
    EXPECT_EQ(bits(back->runs[1].repairKB),
              bits(-std::numeric_limits<double>::denorm_min()));
    // A loaded result reports no simulation cost.
    EXPECT_EQ(back->telemetry.wallSeconds, 0.0);
    EXPECT_EQ(back->telemetry.simInstrs, 0u);
}

TEST(ResultStore, MismatchedKeysOrFingerprintRejectEntry)
{
    const std::vector<Program> suite = smallSuite(1);
    const SimConfig cfg = schemeConfig(RepairKind::Snapshot);
    const SuiteResult res = runSuite(suite, cfg, 1);
    const std::string sk = suiteKey(suite);
    const std::string ck = configKey(cfg);

    const auto tryLoad = [&](const std::string &fp,
                             const std::string &suite_key,
                             const std::string &config_key) {
        std::stringstream ss;
        serializeSuiteResult(ss, buildFingerprint(), sk, ck, res);
        return deserializeSuiteResult(ss.str(), fp, suite_key, config_key);
    };

    EXPECT_TRUE(tryLoad(buildFingerprint(), sk, ck));
    EXPECT_FALSE(tryLoad("doctored-fingerprint", sk, ck));
    EXPECT_FALSE(tryLoad(buildFingerprint(), sk + "x", ck));
    EXPECT_FALSE(tryLoad(buildFingerprint(), sk, ck + "x"));

    // A truncated entry (missing terminator) must also be rejected.
    std::stringstream ss;
    serializeSuiteResult(ss, buildFingerprint(), sk, ck, res);
    std::string text = ss.str();
    text.resize(text.size() / 2);
    EXPECT_FALSE(deserializeSuiteResult(text, buildFingerprint(), sk, ck));
}

TEST(ResultStore, SaveLoadHitMissAndStaleCounters)
{
    const fs::path dir = freshDir("lbp-store-counters");
    const std::vector<Program> suite = smallSuite(1);
    const SimConfig cfg = schemeConfig(RepairKind::ForwardWalk);
    const SuiteResult res = runSuite(suite, cfg, 1);
    const std::string sk = suiteKey(suite);
    const std::string ck = configKey(cfg);

    ResultStore store(dir.string());
    EXPECT_FALSE(store.load(sk, ck));  // cold miss
    EXPECT_EQ(store.stats().misses, 1u);

    ASSERT_TRUE(store.save(sk, ck, res));
    EXPECT_EQ(store.stats().writes, 1u);
    const auto hit = store.load(sk, ck);
    ASSERT_TRUE(hit);
    EXPECT_EQ(store.stats().hits, 1u);
    expectRunIdentical(res.runs[0], hit->runs[0]);

    // Doctor the on-disk entry with a foreign fingerprint: the next
    // load must count it stale, delete the file, and report a miss.
    const fs::path entry =
        dir / ResultStore::entryFileName(buildFingerprint(), sk, ck);
    ASSERT_TRUE(fs::exists(entry));
    {
        std::ofstream f(entry);
        serializeSuiteResult(f, "stale-build-fingerprint", sk, ck, res);
    }
    EXPECT_FALSE(store.load(sk, ck));
    EXPECT_EQ(store.stats().stale, 1u);
    EXPECT_EQ(store.stats().misses, 2u);
    EXPECT_FALSE(fs::exists(entry)) << "stale entry not removed";
}

// Two writers of one entry (two lbpsweep --store runs, or one beside
// lbpserved) used to share the fixed temp name <entry>.tmp: one
// truncated the other's file, and the loser's rename failed.
TEST(ResultStore, ConcurrentWritersOfOneEntryAllInstall)
{
    const fs::path dir = freshDir("lbp-store-race");
    const std::vector<Program> suite = smallSuite(1);
    const SimConfig cfg = schemeConfig(RepairKind::ForwardWalk);
    const SuiteResult res = runSuite(suite, cfg, 1);
    const std::string sk = suiteKey(suite);
    const std::string ck = configKey(cfg);

    constexpr unsigned kSaves = 1500;
    ResultStore a(dir.string()), b(dir.string());
    ResultStore *stores[] = {&a, &b};
    unsigned failed[2] = {0, 0};
    ThreadPool pool(2);
    pool.parallelFor(2, [&](std::size_t w) {
        for (unsigned i = 0; i < kSaves; ++i)
            failed[w] += stores[w]->save(sk, ck, res) ? 0 : 1;
    });
    EXPECT_EQ(failed[0], 0u);
    EXPECT_EQ(failed[1], 0u);
    EXPECT_EQ(a.stats().writes, kSaves);
    EXPECT_EQ(b.stats().writes, kSaves);

    ResultStore reader(dir.string());
    const auto hit = reader.load(sk, ck);
    ASSERT_TRUE(hit);
    EXPECT_EQ(reader.stats().hits, 1u);
    ASSERT_EQ(hit->runs.size(), res.runs.size());
    expectRunIdentical(res.runs[0], hit->runs[0]);

    std::vector<std::string> files;
    for (const auto &e : fs::directory_iterator(dir))
        files.push_back(e.path().filename().string());
    ASSERT_EQ(files.size(), 1u) << "temp files left behind";
    EXPECT_EQ(files[0], ResultStore::entryFileName(buildFingerprint(), sk, ck));
}

namespace {

/** @p text with its first @p from replaced by @p to (which must occur). */
std::string
doctored(std::string text, const std::string &from, const std::string &to)
{
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << "no '" << from << "' to doctor";
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

} // namespace

// Every corruption of a well-formed entry must read as a stale entry:
// never a crash, never a result with a wrong number in it.
TEST(ResultStore, CorruptFieldsRejectEntry)
{
    const std::vector<Program> suite = smallSuite(1);
    const SimConfig cfg = schemeConfig(RepairKind::ForwardWalk);
    const SuiteResult res = runSuite(suite, cfg, 1);
    const std::string sk = suiteKey(suite);
    const std::string ck = configKey(cfg);
    const std::string fp = buildFingerprint();
    std::stringstream ss;
    serializeSuiteResult(ss, fp, sk, ck, res);
    const std::string good = ss.str();
    ASSERT_TRUE(deserializeSuiteResult(good, fp, sk, ck));

    const std::string runs = "\nruns " + std::to_string(res.runs.size());
    const std::string cycles =
        "\ncs " + std::to_string(res.runs[0].stats.cycles) + " ";
    const std::vector<std::pair<std::string, std::string>> cases = {
        // Run counts that disagree with the suite key's n=, including
        // one far too large to allocate.
        {runs, "\nruns 99999999999"},
        {runs, runs + "0"},
        {runs, "\nruns 0"},
        // Integers that are not plain decimal digits, or overflow.
        {cycles, "\ncs -" + cycles.substr(4)},
        {cycles, "\ncs +" + cycles.substr(4)},
        {cycles, "\ncs 18446744073709551616 "},
        {cycles, "\ncs 12x "},
        {cycles, "\ncs  "},
        // Lines holding one field too many or too few.
        {"\nca ", "\nca 7 "},
        // Floats that are not %a hex-floats.
        {"\nfp ", "\nfp 1.5 "},
        {"\nfp ", "\nfp 0x-1p+0 "},
        {"\nfp ", "\nfp --0x1p+0 "},
        {"\nfp ", "\nfp 0xinf "},
        // Trailing bytes after the terminator.
        {"\nend\n", "\nend\nend\n"},
    };
    for (const auto &[from, to] : cases) {
        SCOPED_TRACE(to);
        EXPECT_FALSE(deserializeSuiteResult(doctored(good, from, to), fp,
                                            sk, ck));
    }
    // One field short: drop the last field of the first "au" line.
    const std::size_t au = good.find("\nau ");
    ASSERT_NE(au, std::string::npos);
    const std::size_t eol = good.find('\n', au + 1);
    const std::size_t lastSp = good.rfind(' ', eol);
    std::string shortLine = good;
    shortLine.erase(lastSp, eol - lastSp);
    EXPECT_FALSE(deserializeSuiteResult(shortLine, fp, sk, ck));
}

// The two corruptions a lenient parser mishandles, through a primed
// store: a run count far beyond the suite (allocating it aborts with
// std::bad_alloc) and a negated counter (strtoull wraps "-7796" to
// 2^64 - 7796). Both must count as stale: deleted, audited, and
// re-simulated.
TEST(ResultStore, CorruptEntryIsStaleNotAHitOrACrash)
{
    const fs::path dir = freshDir("lbp-store-corrupt");
    const std::vector<Program> suite = smallSuite(2);
    const std::vector<SweepConfig> configs = {
        {"forward-walk", schemeConfig(RepairKind::ForwardWalk)},
    };
    ResultStore store(dir.string());
    SuiteCache coldCache;
    SweepOptions opts;
    opts.jobs = 1;
    opts.store = &store;
    opts.cache = &coldCache;
    const SweepResult cold = runSweep(suite, configs, opts);
    std::ostringstream coldCsv;
    writeSweepCsv(coldCsv, cold, configs);

    const fs::path entry =
        dir / ResultStore::entryFileName(buildFingerprint(), cold.suiteKey,
                                         cold.configKeys[0]);
    std::string good;
    {
        std::ifstream in(entry);
        std::stringstream buf;
        buf << in.rdbuf();
        good = buf.str();
    }
    const RunResult &first = cold.configResults[0]->runs[0];
    const std::string cycles = "\ncs " + std::to_string(first.stats.cycles);
    const std::vector<std::string> corrupt = {
        doctored(good, "\nruns " + std::to_string(suite.size()),
                 "\nruns 99999999999"),
        doctored(good, cycles, "\ncs -" + cycles.substr(4)),
    };
    for (const std::string &text : corrupt) {
        {
            std::ofstream out(entry, std::ios::binary);
            out << text;
        }
        const ResultStore::StoreStats before = store.stats();
        SuiteCache warmCache;
        opts.cache = &warmCache;
        const SweepResult warm = runSweep(suite, configs, opts);
        EXPECT_EQ(warm.stats.cellsStoreHit, 0u);
        EXPECT_EQ(warm.stats.cellsSimulated, suite.size());
        EXPECT_EQ(warm.stats.storeStale, 1u);
        EXPECT_EQ(store.stats().stale, before.stale + 1);
        ASSERT_EQ(warm.storeAudit.size(), 1u);
        EXPECT_EQ(warm.storeAudit[0].reason, "stale");
        EXPECT_EQ(warm.storeAudit[0].file, entry.filename().string());
        EXPECT_EQ(warm.storeAudit[0].fingerprint, buildFingerprint());
        EXPECT_EQ(warm.storeAudit[0].bytes, text.size());
        // The re-simulated result replaced the entry, and the CSV is
        // the cold one: no wrapped counter reached it.
        std::ostringstream warmCsv;
        writeSweepCsv(warmCsv, warm, configs);
        EXPECT_EQ(warmCsv.str(), coldCsv.str());
        EXPECT_EQ(warmCsv.str().find("18446744073709"), std::string::npos);
    }
}

TEST(ResultStore, DistinctKeysGetDistinctEntryFiles)
{
    const std::string fp = buildFingerprint();
    const std::string f1 = ResultStore::entryFileName(fp, "s1", "c1");
    EXPECT_NE(f1, ResultStore::entryFileName(fp, "s1", "c2"));
    EXPECT_NE(f1, ResultStore::entryFileName(fp, "s2", "c1"));
    EXPECT_NE(f1, ResultStore::entryFileName("other", "s1", "c1"));
    // Stable across calls (cross-process addressing depends on it).
    EXPECT_EQ(f1, ResultStore::entryFileName(fp, "s1", "c1"));
}

// The headline contract: a warm-store sweep in a "fresh process"
// (modeled by a fresh SuiteCache) performs zero simulations and emits
// a CSV byte-identical to the cold pass that populated the store.
TEST(ResultStore, ColdThenWarmSweepIsByteIdenticalWithZeroSims)
{
    const fs::path dir = freshDir("lbp-store-sweep");
    const std::vector<Program> suite = smallSuite(3);
    const std::vector<SweepConfig> configs = {
        {"forward-walk", schemeConfig(RepairKind::ForwardWalk)},
        {"snapshot", schemeConfig(RepairKind::Snapshot)},
    };
    const std::size_t cells = configs.size() * suite.size();
    ResultStore store(dir.string());

    SuiteCache coldCache;
    SweepOptions opts;
    opts.jobs = 1;
    opts.store = &store;
    opts.cache = &coldCache;
    const SweepResult cold = runSweep(suite, configs, opts);
    EXPECT_EQ(cold.stats.cellsTotal, cells);
    EXPECT_EQ(cold.stats.cellsSimulated, cells);
    EXPECT_EQ(cold.stats.cellsStoreHit, 0u);
    EXPECT_EQ(cold.stats.storeWrites, configs.size());
    EXPECT_EQ(cold.stats.storeMisses, configs.size());

    SuiteCache warmCache;
    opts.cache = &warmCache;
    const SweepResult warm = runSweep(suite, configs, opts);
    EXPECT_EQ(warm.stats.cellsSimulated, 0u) << "warm pass simulated";
    EXPECT_EQ(warm.stats.cellsStoreHit, cells);
    EXPECT_EQ(warm.stats.storeHits, configs.size());
    EXPECT_EQ(warm.stats.storeWrites, 0u);
    EXPECT_EQ(warm.stats.simInstrs, 0u);

    std::ostringstream coldCsv, warmCsv;
    writeSweepCsv(coldCsv, cold, configs);
    writeSweepCsv(warmCsv, warm, configs);
    EXPECT_FALSE(coldCsv.str().empty());
    EXPECT_EQ(coldCsv.str(), warmCsv.str())
        << "store round trip is not byte-exact";

    // Third pass in the same "process": served by the cache, store
    // untouched.
    const ResultStore::StoreStats before = store.stats();
    const SweepResult cached = runSweep(suite, configs, opts);
    EXPECT_EQ(cached.stats.cellsCacheHit, cells);
    EXPECT_EQ(store.stats().hits, before.hits);
    EXPECT_EQ(store.stats().misses, before.misses);
}
