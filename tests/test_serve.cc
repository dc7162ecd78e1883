/**
 * @file
 * Resident sweep daemon (src/serve): cross-client dedup with
 * byte-identical results, graceful drain semantics (in-flight work
 * finishes, new submits are rejected, clean exit), and the thin-client
 * guarantee — `lbpsweep --server` output byte-identical to a local
 * sweep for the default figure set. Wire format under test:
 * docs/SERVER.md (lbp-serve-v1).
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/jsonl.hh"
#include "common/socket.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/result_store.hh"
#include "sim/suite_cache.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"

using namespace lbp;

namespace {

constexpr const char *kHello =
    "{\"type\":\"hello\",\"protocol\":\"lbp-serve-v1\"}\n";

/** Read one frame (30s timeout) and parse it; fails the test on EOF,
 *  timeout or malformed JSON. */
JsonValue
readFrame(TcpConn &conn)
{
    std::string line;
    const int got = conn.readLine(line, 30000);
    EXPECT_EQ(got, 1) << "no frame from server";
    JsonValue msg;
    std::string err;
    EXPECT_TRUE(JsonValue::parse(line, msg, &err))
        << err << " in: " << line;
    return msg;
}

std::string
frameType(const JsonValue &msg)
{
    const JsonValue *t = msg.member("type");
    return t ? t->str() : "";
}

/** Drive the hello exchange; returns after the server's hello. */
void
shakeHands(TcpConn &conn)
{
    ASSERT_TRUE(conn.sendAll(kHello));
    const JsonValue reply = readFrame(conn);
    ASSERT_EQ(frameType(reply), "hello");
    const JsonValue *proto = reply.member("protocol");
    ASSERT_TRUE(proto);
    EXPECT_EQ(proto->str(), "lbp-serve-v1");
}

/** Consume frames for @p id until its result arrives; returns it. */
JsonValue
awaitResult(TcpConn &conn, const std::string &id)
{
    while (true) {
        const JsonValue msg = readFrame(conn);
        const std::string type = frameType(msg);
        EXPECT_NE(type, "rejected") << "request " << id << " rejected";
        EXPECT_NE(type, "error") << "protocol error for " << id;
        if (type == "rejected" || type == "error" || type.empty())
            return msg;
        if (type == "result") {
            const JsonValue *idv = msg.member("id");
            EXPECT_TRUE(idv && idv->str() == id);
            return msg;
        }
    }
}

/** A submit frame meaty enough (~1.4M instrs) to still be in flight
 *  when a back-to-back duplicate arrives. */
std::string
bigSubmit(const std::string &id)
{
    return "{\"type\":\"submit\",\"id\":\"" + id +
           "\",\"suite\":2,\"warmup\":1000,\"instr\":200000,"
           "\"spec\":\"config forward-walk\"}\n";
}

/** Send a `metrics` frame and return the unescaped exposition text. */
std::string
scrape(TcpConn &conn)
{
    EXPECT_TRUE(conn.sendAll("{\"type\":\"metrics\"}\n"));
    const JsonValue msg = readFrame(conn);
    EXPECT_EQ(frameType(msg), "metrics");
    const JsonValue *e = msg.member("exposition");
    EXPECT_TRUE(e);
    return e ? e->str() : std::string();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

/** Count unlabeled sample lines for @p name ("name value"). */
std::size_t
countSamples(const std::vector<std::string> &lines,
             const std::string &name)
{
    const std::string prefix = name + ' ';
    std::size_t n = 0;
    for (const std::string &l : lines)
        if (l.rfind(prefix, 0) == 0)
            ++n;
    return n;
}

/** Exposition-format histogram invariants: all 24 finite buckets
 *  present and monotonically cumulative, the +Inf bucket and the top
 *  finite bucket (samples clamp) both equal to _count. */
void
expectHistogramWellFormed(const std::vector<std::string> &lines,
                          const std::string &name)
{
    std::vector<std::uint64_t> buckets;
    std::uint64_t inf = 0, count = 0;
    bool haveInf = false, haveCount = false;
    const std::string bucketPrefix = name + "_bucket{le=\"";
    const std::string countPrefix = name + "_count ";
    for (const std::string &l : lines) {
        if (l.rfind(bucketPrefix, 0) == 0) {
            const std::size_t sep = l.find("\"} ");
            ASSERT_NE(sep, std::string::npos) << l;
            const std::uint64_t v =
                std::strtoull(l.c_str() + sep + 3, nullptr, 10);
            if (l.compare(bucketPrefix.size(), 4, "+Inf") == 0) {
                inf = v;
                haveInf = true;
            } else {
                buckets.push_back(v);
            }
        } else if (l.rfind(countPrefix, 0) == 0) {
            count = std::strtoull(l.c_str() + countPrefix.size(),
                                  nullptr, 10);
            haveCount = true;
        }
    }
    ASSERT_TRUE(haveInf) << name;
    ASSERT_TRUE(haveCount) << name;
    ASSERT_EQ(buckets.size(), FixedHistogram::numBuckets) << name;
    for (std::size_t i = 1; i < buckets.size(); ++i)
        EXPECT_GE(buckets[i], buckets[i - 1])
            << name << " bucket " << i << " not cumulative";
    EXPECT_EQ(inf, count) << name;
    EXPECT_EQ(buckets.back(), count) << name;
}

} // namespace

TEST(Serve, DedupTwoClientsShareOneSimulation)
{
    SuiteCache cache;  // fresh: the server must actually simulate
    ServeOptions sopts;
    sopts.port = 0;
    sopts.jobs = 2;
    sopts.cache = &cache;
    Server server(sopts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    ThreadPool pool(1);
    int rc = -1;
    pool.submit([&] { rc = server.run(); });

    TcpConn a = tcpConnect("127.0.0.1", server.port(), err);
    ASSERT_TRUE(a.valid()) << err;
    TcpConn b = tcpConnect("127.0.0.1", server.port(), err);
    ASSERT_TRUE(b.valid()) << err;
    shakeHands(a);
    shakeHands(b);

    // Identical submits, back to back: the second must coalesce onto
    // the first (the sweep runs far longer than the submit gap).
    ASSERT_TRUE(a.sendAll(bigSubmit("ra")));
    const JsonValue accA = readFrame(a);
    ASSERT_EQ(frameType(accA), "accepted");
    ASSERT_TRUE(accA.member("dedup"));
    EXPECT_FALSE(accA.member("dedup")->boolean(true));

    ASSERT_TRUE(b.sendAll(bigSubmit("rb")));
    const JsonValue accB = readFrame(b);
    ASSERT_EQ(frameType(accB), "accepted");
    ASSERT_TRUE(accB.member("dedup"));
    EXPECT_TRUE(accB.member("dedup")->boolean(false));

    const JsonValue resA = awaitResult(a, "ra");
    const JsonValue resB = awaitResult(b, "rb");
    ASSERT_EQ(frameType(resA), "result");
    ASSERT_EQ(frameType(resB), "result");

    // Both subscribers get byte-identical payloads.
    const JsonValue *csvA = resA.member("csv");
    const JsonValue *csvB = resB.member("csv");
    ASSERT_TRUE(csvA && csvB);
    EXPECT_FALSE(csvA->str().empty());
    EXPECT_EQ(csvA->str(), csvB->str());
    ASSERT_TRUE(resA.member("manifest") && resB.member("manifest"));
    EXPECT_EQ(resA.member("manifest")->str(),
              resB.member("manifest")->str());

    a.closeConn();
    b.closeConn();
    server.requestDrain();
    pool.wait();
    EXPECT_EQ(rc, 0);

    const ServeStats st = server.stats();
    EXPECT_EQ(st.sweepsExecuted, 1u);   // one simulation for both
    EXPECT_EQ(st.requestsReceived, 2u);
    EXPECT_EQ(st.requestsAccepted, 2u);
    EXPECT_EQ(st.requestsDeduped, 1u);
    EXPECT_EQ(st.requestsCompleted, 2u);
    EXPECT_EQ(st.clientsConnected, 2u);
    EXPECT_GT(st.eventsStreamed, 0u);
    EXPECT_GT(st.cellsSimulated, 0u);
}

TEST(Serve, DrainFinishesInFlightAndRejectsNewSubmits)
{
    SuiteCache cache;
    ServeOptions sopts;
    sopts.port = 0;
    sopts.jobs = 2;
    sopts.cache = &cache;
    Server server(sopts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    ThreadPool pool(1);
    int rc = -1;
    pool.submit([&] { rc = server.run(); });

    TcpConn conn = tcpConnect("127.0.0.1", server.port(), err);
    ASSERT_TRUE(conn.valid()) << err;
    shakeHands(conn);

    ASSERT_TRUE(conn.sendAll(bigSubmit("r1")));
    const JsonValue acc = readFrame(conn);
    ASSERT_EQ(frameType(acc), "accepted");

    // Drain via the protocol: same-connection ordering guarantees the
    // server is draining before it reads the next submit. Event frames
    // from the in-flight sweep may interleave before the reply.
    ASSERT_TRUE(conn.sendAll("{\"type\":\"drain\"}\n"));
    JsonValue draining;
    while (true) {
        draining = readFrame(conn);
        if (frameType(draining) != "event")
            break;
    }
    ASSERT_EQ(frameType(draining), "draining");
    ASSERT_TRUE(draining.member("pending"));
    EXPECT_EQ(draining.member("pending")->number(), 1.0);

    ASSERT_TRUE(conn.sendAll(bigSubmit("r2")));
    JsonValue rej;
    while (true) {
        rej = readFrame(conn);
        if (frameType(rej) != "event")
            break;
    }
    ASSERT_EQ(frameType(rej), "rejected");
    ASSERT_TRUE(rej.member("id") && rej.member("code"));
    EXPECT_EQ(rej.member("id")->str(), "r2");
    EXPECT_EQ(rej.member("code")->str(), "draining");

    // The in-flight request still completes...
    const JsonValue res = awaitResult(conn, "r1");
    ASSERT_EQ(frameType(res), "result");
    ASSERT_TRUE(res.member("csv"));
    EXPECT_FALSE(res.member("csv")->str().empty());

    // ...and the server then exits cleanly.
    pool.wait();
    EXPECT_EQ(rc, 0);
    const ServeStats st = server.stats();
    EXPECT_EQ(st.sweepsExecuted, 1u);
    EXPECT_EQ(st.requestsCompleted, 1u);
    EXPECT_EQ(st.requestsRejected, 1u);
    EXPECT_GT(st.drainSeconds, 0.0);
}

TEST(Serve, ServerSweepByteIdenticalToLocal)
{
    // Local reference: the default figure set over a tiny suite,
    // simulated from a cold cache.
    SweepSpec spec;
    spec.suite = 2;
    spec.warmupInstrs = 2000;
    spec.measureInstrs = 3000;
    finalizeSweepSpec(spec);
    const std::vector<Program> suite = buildSpecSuite(spec);

    SuiteCache localCache;
    SweepOptions lopts;
    lopts.jobs = 2;
    lopts.cache = &localCache;
    const SweepResult local = runSweep(suite, spec.configs, lopts);
    std::ostringstream localCsv;
    writeSweepCsv(localCsv, local, spec.configs);

    // Server side: a fresh daemon with its own cold cache.
    SuiteCache serverCache;
    ServeOptions sopts;
    sopts.port = 0;
    sopts.jobs = 2;
    sopts.cache = &serverCache;
    Server server(sopts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    ThreadPool pool(1);
    int rc = -1;
    pool.submit([&] { rc = server.run(); });

    ServeClientOptions copts;
    copts.host = "127.0.0.1";
    copts.port = server.port();
    copts.suite = 2;
    copts.warmupInstrs = 2000;
    copts.measureInstrs = 3000;
    ServeSweepResult res;
    ASSERT_TRUE(runServeSweep(copts, res, err)) << err;

    EXPECT_EQ(res.cells, local.stats.cellsTotal);
    EXPECT_EQ(res.csv, localCsv.str());
    EXPECT_EQ(res.configs.size(), spec.configs.size());
    for (std::size_t c = 0; c < res.configs.size(); ++c) {
        EXPECT_EQ(res.configs[c].name, spec.configs[c].name);
        EXPECT_EQ(res.configs[c].key, local.configKeys[c]);
    }
    // Manifests agree on identity (timings legitimately differ).
    EXPECT_NE(res.manifest.find("\"suite_key\": " +
                                jsonQuote(local.suiteKey)),
              std::string::npos);
    EXPECT_EQ(res.counter("sweep_cells_total"),
              static_cast<double>(local.stats.cellsTotal));
    EXPECT_EQ(res.counter("sweep_cells_simulated"),
              static_cast<double>(local.stats.cellsSimulated));

    server.requestDrain();
    pool.wait();
    EXPECT_EQ(rc, 0);
}

TEST(Serve, MetricsFrameCoversEveryRegistryRowExactlyOnce)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "serve_scrape_store";
    fs::remove_all(dir);
    ResultStore store(dir.string());

    SuiteCache cache;
    ServeOptions sopts;
    sopts.port = 0;
    sopts.jobs = 2;
    sopts.cache = &cache;
    sopts.store = &store;
    Server server(sopts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    ThreadPool pool(1);
    int rc = -1;
    pool.submit([&] { rc = server.run(); });

    // One executed sweep gives every registry real traffic: run
    // aggregates, sweep totals, serve counters, store writes.
    ServeClientOptions copts;
    copts.host = "127.0.0.1";
    copts.port = server.port();
    copts.suite = 2;
    copts.warmupInstrs = 1000;
    copts.measureInstrs = 2000;
    ServeSweepResult res;
    ASSERT_TRUE(runServeSweep(copts, res, err)) << err;

    TcpConn conn = tcpConnect("127.0.0.1", server.port(), err);
    ASSERT_TRUE(conn.valid()) << err;
    shakeHands(conn);
    const std::string expo = scrape(conn);
    conn.closeConn();

    server.requestDrain();
    pool.wait();
    EXPECT_EQ(rc, 0);

    // Every row of all four descriptor tables renders exactly one
    // unlabeled sample — no missing rows, no duplicates, so scrape
    // names cannot drift from the tables.
    const std::vector<std::string> lines = splitLines(expo);
    for (const MetricDesc<RunResult> &d : runMetrics())
        EXPECT_EQ(countSamples(lines, d.name), 1u) << d.name;
    for (const MetricDesc<SweepStats> &d : sweepMetrics())
        EXPECT_EQ(countSamples(lines, d.name), 1u) << d.name;
    for (const MetricDesc<ServeStats> &d : serveMetrics())
        EXPECT_EQ(countSamples(lines, d.name), 1u) << d.name;
    for (const MetricDesc<StoreStats> &d : storeMetrics())
        EXPECT_EQ(countSamples(lines, d.name), 1u) << d.name;

    for (const char *h : {"serve_queue_wait_ms", "serve_execute_ms",
                          "serve_request_total_ms", "serve_queue_depth"})
        expectHistogramWellFormed(lines, h);

    // The cold sweep missed and then wrote fresh entries, so the
    // per-fingerprint labeled families carry the live fingerprint.
    EXPECT_GT(store.stats().writes, 0u);
    EXPECT_NE(
        expo.find("result_store_fingerprint_misses{fingerprint=\""),
        std::string::npos);
    EXPECT_NE(
        expo.find("result_store_fingerprint_bytes{fingerprint=\""),
        std::string::npos);
}

TEST(Serve, ScrapeDuringInFlightSweepParsesCleanly)
{
    SuiteCache cache;
    ServeOptions sopts;
    sopts.port = 0;
    sopts.jobs = 2;
    sopts.cache = &cache;
    Server server(sopts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    ThreadPool pool(1);
    int rc = -1;
    pool.submit([&] { rc = server.run(); });

    TcpConn a = tcpConnect("127.0.0.1", server.port(), err);
    ASSERT_TRUE(a.valid()) << err;
    shakeHands(a);
    ASSERT_TRUE(a.sendAll(bigSubmit("rs")));
    const JsonValue acc = readFrame(a);
    ASSERT_EQ(frameType(acc), "accepted");
    ASSERT_TRUE(acc.member("trace_id"));
    EXPECT_EQ(acc.member("trace_id")->str(), "srv-1");

    // A second connection scrapes while that sweep is executing: the
    // reply must be a complete, parseable exposition.
    TcpConn b = tcpConnect("127.0.0.1", server.port(), err);
    ASSERT_TRUE(b.valid()) << err;
    shakeHands(b);
    const std::vector<std::string> lines = splitLines(scrape(b));
    b.closeConn();
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(countSamples(lines, "serve_requests_received"), 1u);
    EXPECT_EQ(countSamples(lines, "sweep_cells_total"), 1u);
    for (const std::string &l : lines) {
        if (l.empty() || l[0] == '#')
            continue;
        EXPECT_NE(l.find(' '), std::string::npos)
            << "sample line without a value: " << l;
    }

    const JsonValue resp = awaitResult(a, "rs");
    ASSERT_EQ(frameType(resp), "result");
    a.closeConn();
    server.requestDrain();
    pool.wait();
    EXPECT_EQ(rc, 0);

    // The executed request landed one sample in each latency
    // histogram (and one admission-time queue-depth sample).
    const ServeHistograms hs = server.histograms();
    EXPECT_EQ(hs.queueWaitMs.count(), 1u);
    EXPECT_EQ(hs.executeMs.count(), 1u);
    EXPECT_EQ(hs.requestTotalMs.count(), 1u);
    EXPECT_EQ(hs.queueDepth.count(), 1u);
    EXPECT_GE(server.stats().scrapesServed, 1u);
}

TEST(Serve, TraceIdPropagatesEndToEnd)
{
    SuiteCache cache;
    std::ostringstream serverLog, traceOut;
    ServeOptions sopts;
    sopts.port = 0;
    sopts.jobs = 2;
    sopts.cache = &cache;
    sopts.eventLog = &serverLog;
    sopts.traceOut = &traceOut;
    Server server(sopts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    ThreadPool pool(1);
    int rc = -1;
    pool.submit([&] { rc = server.run(); });

    // Client-supplied trace id: echoed in the accepted frame, stamped
    // on every mirrored sweep event, embedded in the manifest.
    std::ostringstream clientLog;
    ServeClientOptions copts;
    copts.host = "127.0.0.1";
    copts.port = server.port();
    copts.suite = 2;
    copts.warmupInstrs = 1000;
    copts.measureInstrs = 2000;
    copts.traceId = "trace-e2e";
    copts.eventLog = &clientLog;
    ServeSweepResult res;
    ASSERT_TRUE(runServeSweep(copts, res, err)) << err;
    EXPECT_EQ(res.traceId, "trace-e2e");
    EXPECT_NE(res.manifest.find("\"trace_id\": \"trace-e2e\""),
              std::string::npos);
    const std::vector<std::string> clientLines =
        splitLines(clientLog.str());
    ASSERT_FALSE(clientLines.empty());
    for (const std::string &l : clientLines)
        EXPECT_NE(l.find("\"trace\":\"trace-e2e\""), std::string::npos)
            << l;

    // Identical request without a client trace: the server mints a
    // deterministic id, and the payload bytes don't depend on tracing.
    ServeClientOptions copts2 = copts;
    copts2.traceId.clear();
    copts2.eventLog = nullptr;
    ServeSweepResult res2;
    ASSERT_TRUE(runServeSweep(copts2, res2, err)) << err;
    EXPECT_EQ(res2.traceId.rfind("srv-", 0), 0u);
    EXPECT_EQ(res2.csv, res.csv);

    server.requestDrain();
    pool.wait();
    EXPECT_EQ(rc, 0);

    // Daemon side: event-log records and the Chrome-trace service
    // spans carry the same id, completing the traversal.
    EXPECT_NE(serverLog.str().find("\"trace\":\"trace-e2e\""),
              std::string::npos);
    const std::string spans = traceOut.str();
    EXPECT_NE(spans.find("\"trace_id\":\"trace-e2e\""),
              std::string::npos);
    for (const char *phase : {"queue", "simulate", "assemble"}) {
        const std::string needle =
            std::string("\"name\":\"") + phase + "\"";
        EXPECT_NE(spans.find(needle), std::string::npos) << phase;
    }
}

TEST(Serve, RepeatSelectionReusesResidentSuite)
{
    SuiteCache cache;
    ServeOptions sopts;
    sopts.port = 0;
    sopts.jobs = 2;
    sopts.cache = &cache;
    Server server(sopts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    ThreadPool pool(1);
    int rc = -1;
    pool.submit([&] { rc = server.run(); });

    ServeClientOptions copts;
    copts.host = "127.0.0.1";
    copts.port = server.port();
    copts.suite = 1;
    copts.warmupInstrs = 500;
    copts.measureInstrs = 1000;

    // The live count comes from a stats frame: Server::stats() may
    // only be read once run() has returned.
    TcpConn conn = tcpConnect("127.0.0.1", server.port(), err);
    ASSERT_TRUE(conn.valid()) << err;
    shakeHands(conn);
    const auto suiteBuilds = [&conn] {
        EXPECT_TRUE(conn.sendAll("{\"type\":\"stats\"}\n"));
        const JsonValue msg = readFrame(conn);
        const JsonValue *c = msg.member("counters");
        const JsonValue *v = c ? c->member("serve_suite_builds") : nullptr;
        EXPECT_TRUE(v) << "stats frame lacks serve_suite_builds";
        return v ? v->number(-1.0) : -1.0;
    };

    // Three identical submits: one suite build, and the two repeats
    // (served from the resident suite) return the first one's CSV.
    std::vector<std::string> csvs;
    for (int i = 0; i < 3; ++i) {
        ServeSweepResult res;
        ASSERT_TRUE(runServeSweep(copts, res, err)) << err;
        EXPECT_FALSE(res.csv.empty());
        csvs.push_back(res.csv);
    }
    EXPECT_EQ(csvs[1], csvs[0]);
    EXPECT_EQ(csvs[2], csvs[0]);
    EXPECT_EQ(suiteBuilds(), 1.0);

    // Another selection replaces the resident suite. (Caps up to 7
    // all give one workload per category; 8 adds a workload.)
    copts.suite = 8;
    ServeSweepResult other;
    ASSERT_TRUE(runServeSweep(copts, other, err)) << err;
    EXPECT_NE(other.csv, csvs[0]);
    EXPECT_EQ(suiteBuilds(), 2.0);
    conn.closeConn();

    server.requestDrain();
    pool.wait();
    EXPECT_EQ(rc, 0);
    const ServeStats st = server.stats();
    EXPECT_EQ(st.suiteBuilds, 2u);
    EXPECT_EQ(st.requestsCompleted, 4u);
    EXPECT_EQ(st.sweepsExecuted, 4u);
}

// `suite`, `warmup` and `instr` pass the spec grammar's strict count
// parser: a negative, fractional, out-of-range or non-numeric value is
// a bad_request (a bad_spec inside spec text), and nothing runs.
TEST(Serve, MalformedCountsAreRejected)
{
    SuiteCache cache;
    ServeOptions sopts;
    sopts.port = 0;
    sopts.jobs = 1;
    sopts.cache = &cache;
    Server server(sopts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    ThreadPool pool(1);
    int rc = -1;
    pool.submit([&] { rc = server.run(); });

    TcpConn conn = tcpConnect("127.0.0.1", server.port(), err);
    ASSERT_TRUE(conn.valid()) << err;
    shakeHands(conn);
    const auto submit = [&conn](const std::string &fields) {
        EXPECT_TRUE(conn.sendAll(
            "{\"type\":\"submit\",\"id\":\"r\"," + fields + "}\n"));
        const JsonValue msg = readFrame(conn);
        EXPECT_EQ(frameType(msg), "rejected") << fields;
        const JsonValue *code = msg.member("code");
        return code ? code->str() : std::string();
    };
    const char *bad[] = {
        "\"suite\":-1",     "\"suite\":1e30",    "\"suite\":2.7",
        "\"suite\":\"8\"",  "\"warmup\":-1",    "\"warmup\":1e30",
        "\"instr\":0.5",    "\"instr\":true",
    };
    for (const char *fields : bad)
        EXPECT_EQ(submit(fields), "bad_request") << fields;
    EXPECT_EQ(submit("\"warmup\":1000,\"spec\":\"warmup -1\""), "bad_spec");
    conn.closeConn();

    server.requestDrain();
    pool.wait();
    EXPECT_EQ(rc, 0);
    const ServeStats st = server.stats();
    EXPECT_EQ(st.requestsRejected, 9u);
    EXPECT_EQ(st.sweepsExecuted, 0u);
}

// A config modifier outside its range used to pass the daemon's spec
// parser and abort the whole process on a scheme-constructor assertion,
// losing every client's queued work. It is a bad_spec now, and the
// daemon goes on serving.
TEST(Serve, OutOfRangeModifierIsRejectedAndDaemonServesOn)
{
    SuiteCache cache;
    ServeOptions sopts;
    sopts.port = 0;
    sopts.jobs = 1;
    sopts.cache = &cache;
    Server server(sopts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    ThreadPool pool(1);
    int rc = -1;
    pool.submit([&] { rc = server.run(); });

    TcpConn conn = tcpConnect("127.0.0.1", server.port(), err);
    ASSERT_TRUE(conn.valid()) << err;
    shakeHands(conn);
    for (const char *mods : {"limited-pc limited-m=0",
                             "forward-walk ports=1-4-2"}) {
        ASSERT_TRUE(conn.sendAll(
            std::string("{\"type\":\"submit\",\"id\":\"bad\",") +
            "\"suite\":1,\"warmup\":500,\"instr\":1000," +
            "\"spec\":\"config " + mods + "\"}\n"));
        const JsonValue msg = readFrame(conn);
        ASSERT_EQ(frameType(msg), "rejected") << mods;
        const JsonValue *code = msg.member("code");
        ASSERT_TRUE(code);
        EXPECT_EQ(code->str(), "bad_spec") << mods;
    }
    ASSERT_TRUE(conn.sendAll(
        "{\"type\":\"submit\",\"id\":\"good\",\"suite\":1,"
        "\"warmup\":500,\"instr\":1000,"
        "\"spec\":\"config limited-pc limited-m=4\"}\n"));
    const JsonValue result = awaitResult(conn, "good");
    ASSERT_EQ(frameType(result), "result");
    conn.closeConn();

    server.requestDrain();
    pool.wait();
    EXPECT_EQ(rc, 0);
    const ServeStats st = server.stats();
    EXPECT_EQ(st.requestsRejected, 2u);
    EXPECT_EQ(st.sweepsExecuted, 1u);
}
