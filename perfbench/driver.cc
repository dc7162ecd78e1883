/**
 * @file
 * perfbench — the repository benchmark driver (run through run.py).
 *
 * One process runs one workload as a closed loop of identical ops from
 * a single client thread, checks every op's output outside the timed
 * region, and prints its result line (resultLine() in bench_core.hh)
 * as its last line of standard output:
 *
 *   perfbench --workload hotpath|figure-sweep|warm-requests
 *             --seed N --seconds S --trace 0|1
 *             --daemon <lbpserved> --expected <digests file>
 *             [--work-dir <dir>]
 *   perfbench --print-digests      (regenerate the expected digests)
 *
 * Only calls into public functions of workload, bpu, core, sim and
 * serve are timed. Every workload reports the same end-to-end metrics:
 * setup_s, peak_rss_mb and op_ms_p50, the median time of one round of
 * its ops. With --trace 1 the run is split in two halves: the first
 * untraced, the second recording a span around every call the driver
 * makes into a layer, followed by direct calls into the inner public
 * APIs (Executor, TAGE, loop predictor, OooCore, ResultStore, and a
 * warm sweep and a served request where the ops bypass those layers).
 * The traced half and those probes yield the per-layer metrics, every
 * one measured on every workload; the difference between the halves
 * is printed as the tracing overhead, and the spans are written as
 * Chrome trace JSON. Why each workload exists and what each metric
 * should move: perfbench/NOTES.md.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.hh"
#include "bpu/loop_predictor.hh"
#include "bpu/tage.hh"
#include "common/jsonl.hh"
#include "common/socket.hh"
#include "core/core.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "sim/suite_cache.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"
#include "workload/executor.hh"
#include "workload/suite.hh"

extern char **environ;

namespace fs = std::filesystem;
namespace pb = perfbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 0x5CA1AB1Eull;

/**
 * Set-ups per phase: at least kSetupReps and kSetupSeconds in total
 * (short set-ups are repeated more), at most kSetupRepsMax. setup_s
 * reports their median, which also drops the process's cold first one.
 */
constexpr unsigned kSetupReps = 3;
constexpr double kSetupSeconds = 3.0;
constexpr unsigned kSetupRepsMax = 10;

/** hotpath's worker count: 2 varied less than 1 or 4 on the 4-vCPU
 *  host the benchmark was tuned on. */
constexpr unsigned kHotpathJobs = 2;

/** figure-sweep and warm-requests use all four vCPUs. */
constexpr unsigned kSweepJobs = 4;

/** Warm sweeps hotpath's traced run makes over its probe store, so
 *  the sweep layer's read and rendering path is measured there too. */
constexpr unsigned kWarmSweepProbes = 3;

/** No round starts after this much process time (a run must end
 *  within 180 s). */
constexpr double kHardStopSeconds = 150.0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A set-up step failed: the run cannot measure anything. */
struct SetupError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Peak resident set (VmHWM) of @p pid ("self" for this process). */
double
peakRssMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

double
mean(const std::vector<double> &v)
{
    return ratio(sum(v), static_cast<double>(v.size()));
}

void
emptyDir(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
}

/**
 * A RunResult as the result store serializes it: every simulated field
 * (the store must round-trip them all), doubles bit-exact as hex
 * floats, no wall times. Its digest is what "one simulated bit
 * changed" is checked against.
 */
std::string
canonicalRun(const lbp::RunResult &r)
{
    lbp::SuiteResult one;
    one.runs.push_back(r);
    std::ostringstream os;
    lbp::serializeSuiteResult(os, "", "", "", one);
    return os.str();
}

/** (workload, digest of its canonicalRun) in suite order. */
using RunDigests = std::vector<std::pair<std::string, std::string>>;

RunDigests
perWorkload(const lbp::SuiteResult &res)
{
    RunDigests out;
    for (const lbp::RunResult &r : res.runs)
        out.emplace_back(r.workload, pb::digestHex(canonicalRun(r)));
    return out;
}

/** One digest over a suite's per-workload digests. */
std::string
joinDigest(const RunDigests &d)
{
    std::string all;
    for (const auto &[name, digest] : d)
        all += name + ' ' + digest + '\n';
    return pb::digestHex(all);
}

/** Exact simulated-work totals over a set of suite results. */
struct WorkTotals
{
    std::uint64_t runs = 0;
    std::uint64_t simInstrs = 0;  ///< true-path, warm-up included
    std::uint64_t retired = 0;    ///< measurement windows only
    std::uint64_t cycles = 0;
    std::uint64_t fetched = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t repairs = 0;
    std::uint64_t repairWrites = 0;
    double walkEntries = 0.0;  ///< mean walk length x repairs, summed

    void
    add(const lbp::SuiteResult &res, std::uint64_t warmup)
    {
        for (const lbp::RunResult &r : res.runs) {
            ++runs;
            simInstrs += r.stats.retiredInstrs + warmup;
            retired += r.stats.retiredInstrs;
            cycles += r.stats.cycles;
            fetched += r.stats.fetchedInstrs;
            mispredicts += r.stats.mispredicts;
            repairs += r.repairs;
            repairWrites += r.repairWrites;
            walkEntries +=
                r.avgWalkLength * static_cast<double>(r.repairs);
        }
    }

    void
    appendCounters(pb::Counters &c) const
    {
        c.emplace_back("instructions_simulated", simInstrs);
        c.emplace_back("cycles", cycles);
        c.emplace_back("fetched", fetched);
        c.emplace_back("mispredicts", mispredicts);
        c.emplace_back("repairs", repairs);
        c.emplace_back("repair_bht_writes", repairWrites);
    }
};

/**
 * Durations of the spans named @p name; with a non-empty @p under, only
 * those whose parent's name starts with it (e.g. "op." for timed ops).
 */
std::vector<double>
spanDurs(const std::vector<pb::Span> &spans, const std::string &name,
         const std::string &under = "")
{
    std::vector<double> out;
    for (const pb::Span &s : spans) {
        if (s.name != name)
            continue;
        if (!under.empty() &&
            (s.parent < 0 ||
             spans[static_cast<std::size_t>(s.parent)].name.rfind(under,
                                                                  0) != 0))
            continue;
        out.push_back(s.durUs());
    }
    return out;
}

// ---------------------------------------------------------------------
// Per-layer metrics: one table, every workload reports every row.
// ---------------------------------------------------------------------

/** Per-layer metric names and units, in report order. */
constexpr std::pair<const char *, const char *> kLayerMetrics[] = {
    {"workload.build_suite_ms", "ms"},
    {"workload.exec_ns_per_instr", "ns"},
    {"bpu.tage_ns_per_branch", "ns"},
    {"bpu.loop_ns_per_branch", "ns"},
    {"repair.repairs_per_kinstr", "1/kinstr"},
    {"repair.walk_entries_per_repair", "entries"},
    {"repair.bht_writes_per_repair", "writes"},
    {"core.construct_us", "us"},
    {"core.run_ns_per_instr", "ns"},
    {"core.run_ns_per_cycle", "ns"},
    {"core.cycles_per_kinstr", "1/kinstr"},
    {"core.fetched_per_kinstr", "1/kinstr"},
    {"core.mispredicts_per_kinstr", "1/kinstr"},
    {"sim.run_one_ms_p50", "ms"},
    {"sim.sweep_busy_frac", "fraction"},
    {"sim.sweep_idle_worker_s", "s"},
    {"sim.store_save_ms", "ms"},
    {"sim.store_bytes_written", "bytes"},
    {"sim.store_load_ms", "ms"},
    {"sim.store_bytes_read", "bytes"},
    {"sim.run_sweep_ms", "ms"},
    {"sim.csv_ms", "ms"},
    {"sim.manifest_ms", "ms"},
    {"sim.cells_simulated", "count"},
    {"serve.request_ms_mean", "ms"},
    {"serve.queue_wait_ms_mean", "ms"},
    {"serve.execute_ms_mean", "ms"},
    {"serve.outside_server_ms_mean", "ms"},
    {"serve.reply_bytes", "bytes"},
};

/** Measured per-layer values by name: (value, samples). */
using LayerValues = std::map<std::string, std::pair<double, std::size_t>>;

/**
 * Every kLayerMetrics row in order; a layer the workload never calls
 * reports 0 with 0 samples.
 */
std::vector<pb::Metric>
layerMetrics(const LayerValues &v)
{
    std::vector<pb::Metric> out;
    for (const auto &[name, unit] : kLayerMetrics) {
        const auto it = v.find(name);
        const double value = it == v.end() ? 0.0 : it->second.first;
        const std::size_t n = it == v.end() ? 0 : it->second.second;
        const bool whole = (std::strcmp(unit, "count") == 0 ||
                            std::strcmp(unit, "bytes") == 0) &&
                           value == std::floor(value);
        out.push_back({name, value, unit, n, whole});
    }
    return out;
}

/** Repair and core counts per kilo-instruction from exact totals. */
void
addWorkValues(LayerValues &v, const WorkTotals &w)
{
    const double repairs = static_cast<double>(w.repairs);
    const double retired = static_cast<double>(w.retired);
    v["repair.repairs_per_kinstr"] = {
        1000.0 * ratio(repairs, static_cast<double>(w.simInstrs)), w.runs};
    v["repair.walk_entries_per_repair"] = {ratio(w.walkEntries, repairs),
                                           w.runs};
    v["repair.bht_writes_per_repair"] = {
        ratio(static_cast<double>(w.repairWrites), repairs), w.runs};
    v["core.cycles_per_kinstr"] = {
        1000.0 * ratio(static_cast<double>(w.cycles), retired), w.runs};
    v["core.fetched_per_kinstr"] = {
        1000.0 * ratio(static_cast<double>(w.fetched), retired), w.runs};
    v["core.mispredicts_per_kinstr"] = {
        1000.0 * ratio(static_cast<double>(w.mispredicts), retired),
        w.runs};
}

/** Pool utilisation of the timed sim ops (median over ops). */
void
addPoolValues(LayerValues &v, const std::vector<double> &busy,
              const std::vector<double> &idle)
{
    v["sim.sweep_busy_frac"] = {pb::median(busy), busy.size()};
    v["sim.sweep_idle_worker_s"] = {pb::median(idle), idle.size()};
}

/** runSweep / CSV / manifest medians over the sweeps under roots
 *  named @p under ("op." for the timed ops). */
void
addRenderValues(LayerValues &v, const std::vector<pb::Span> &spans,
                const std::string &under)
{
    for (const auto &[span, name] :
         {std::pair{"sim.runSweep", "sim.run_sweep_ms"},
          std::pair{"sim.writeSweepCsv", "sim.csv_ms"},
          std::pair{"sim.writeSweepManifest", "sim.manifest_ms"}}) {
        const std::vector<double> d = spanDurs(spans, span, under);
        v[name] = {pb::median(d) / 1000.0, d.size()};
    }
}

// ---------------------------------------------------------------------
// Inner-API probes (traced runs): the layers below the op's entry call,
// called directly on the op's own inputs.
// ---------------------------------------------------------------------

/** Totals the probes accumulate; turned into LayerValues at the end. */
struct ProbeTotals
{
    std::uint64_t execInstrs = 0;
    std::uint64_t branches = 0;
    std::uint64_t coreInstrs = 0;  ///< retired, warm-up included
    std::uint64_t coreCycles = 0;
    lbp::StoreStats store;
    std::uint64_t sink = 0;  ///< keeps probe results observable

    void
    addTo(LayerValues &v, const std::vector<pb::Span> &spans) const
    {
        const std::vector<double> build =
            spanDurs(spans, "workload.buildSuite");
        v["workload.build_suite_ms"] = {pb::median(build) / 1000.0,
                                        build.size()};
        // Nanoseconds per unit of work over all spans of one name.
        const auto nsPer = [&](const char *span, std::uint64_t units) {
            const std::vector<double> d = spanDurs(spans, span);
            return std::pair{ratio(sum(d) * 1000.0,
                                   static_cast<double>(units)),
                             d.size()};
        };
        v["workload.exec_ns_per_instr"] =
            nsPer("workload.Executor.next", execInstrs);
        v["bpu.tage_ns_per_branch"] =
            nsPer("bpu.TagePredictor.predictTrain", branches);
        v["bpu.loop_ns_per_branch"] =
            nsPer("bpu.LoopPredictor.predictTrain", branches);
        const std::vector<double> ctor = spanDurs(spans, "core.OooCore.ctor");
        v["core.construct_us"] = {mean(ctor), ctor.size()};
        v["core.run_ns_per_instr"] = nsPer("core.OooCore.run", coreInstrs);
        v["core.run_ns_per_cycle"] = nsPer("core.OooCore.run", coreCycles);
        const std::vector<double> save =
            spanDurs(spans, "sim.ResultStore.save");
        const std::vector<double> load =
            spanDurs(spans, "sim.ResultStore.load");
        v["sim.store_save_ms"] = {mean(save) / 1000.0, save.size()};
        v["sim.store_load_ms"] = {mean(load) / 1000.0, load.size()};
        v["sim.store_bytes_written"] = {
            static_cast<double>(store.bytesWritten), save.size()};
        v["sim.store_bytes_read"] = {static_cast<double>(store.bytesRead),
                                     load.size()};
    }
};

/**
 * workload + bpu probes on one program: an Executor replay of its true
 * path, then TAGE and the CBPw loop predictor predicting and training
 * over that path's conditional-branch stream.
 */
void
probeFrontEnd(pb::SpanRecorder &rec, std::uint64_t op,
              const lbp::Program &prog, const lbp::SimConfig &cfg,
              ProbeTotals &acc)
{
    const std::uint64_t n = cfg.warmupInstrs + cfg.measureInstrs;
    {
        pb::ScopedSpan s(rec, "workload.Executor.next", op);
        lbp::Executor ex(prog);
        for (std::uint64_t i = 0; i < n; ++i)
            acc.sink += ex.next().pc;
    }
    acc.execInstrs += n;
    std::vector<std::pair<lbp::Addr, bool>> stream;
    lbp::Executor ex(prog);
    for (std::uint64_t i = 0; i < n; ++i) {
        const lbp::DynInstDesc &d = ex.next();
        if (d.branchId >= 0)
            stream.emplace_back(d.pc, d.taken);
    }
    acc.branches += stream.size();
    {
        pb::ScopedSpan s(rec, "bpu.TagePredictor.predictTrain", op);
        lbp::TagePredictor tage(cfg.tage);
        lbp::TagePredStorage p;
        for (const auto &[pc, dir] : stream) {
            acc.sink += tage.predict(pc, p);
            tage.specUpdateHist(pc, dir);
            tage.train(pc, dir, p);
        }
    }
    {
        pb::ScopedSpan s(rec, "bpu.LoopPredictor.predictTrain", op);
        lbp::LoopPredictor loop(cfg.repair.loop);
        for (const auto &[pc, dir] : stream) {
            acc.sink += loop.predict(pc).dir;
            loop.specUpdate(pc, dir);
            loop.retireTrain(pc, dir);
        }
    }
}

/**
 * core probe: construct an OooCore and run it through the warm-up and
 * measurement windows exactly as runOne does. False when its window
 * stats differ from @p expect, the op's result for the same cell.
 */
bool
probeCore(pb::SpanRecorder &rec, std::uint64_t op,
          const lbp::Program &prog, const lbp::SimConfig &cfg,
          const lbp::CoreStats &expect, ProbeTotals &acc)
{
    std::unique_ptr<lbp::OooCore> core;
    {
        pb::ScopedSpan s(rec, "core.OooCore.ctor", op);
        core = std::make_unique<lbp::OooCore>(prog, cfg);
    }
    lbp::CoreStats atWarm;
    {
        pb::ScopedSpan s(rec, "core.OooCore.run", op);
        core->run(cfg.warmupInstrs);
        atWarm = core->stats();
        core->run(cfg.measureInstrs);
    }
    acc.coreInstrs += core->stats().retiredInstrs;
    acc.coreCycles += core->stats().cycles;
    const lbp::CoreStats w = lbp::CoreStats::delta(core->stats(), atWarm);
    return w.cycles == expect.cycles &&
           w.retiredInstrs == expect.retiredInstrs &&
           w.mispredicts == expect.mispredicts &&
           w.fetchedInstrs == expect.fetchedInstrs &&
           w.wrongPathFetched == expect.wrongPathFetched;
}

/** One config's result set as a ResultStore addresses it. */
struct StoredConfig
{
    std::string name;
    lbp::SimConfig cfg;
    const lbp::SuiteResult *result = nullptr;
};

/**
 * The inner-API probes every workload runs on its own inputs: the
 * front end over every program (TAGE and loop tables of the first core
 * config; every figure-set config shares them), OooCore over every
 * (config, program) cell of @p coreConfigs with a
 * cross-check against the op's results, and a ResultStore save + load
 * round trip of every config on a scratch store, which must give back
 * the exact result. The store is left in @p scratchDir (the run's
 * work directory is removed at exit).
 */
void
probeLayers(pb::SpanRecorder &rec, std::uint64_t &op,
            const std::vector<lbp::Program> &suite,
            const std::vector<StoredConfig> &configs,
            const std::vector<StoredConfig> &coreConfigs,
            const std::string &scratchDir, ProbeTotals &acc,
            std::vector<std::string> &problems)
{
    // Grouped by layer, so every probe of one kind runs with the same
    // allocator history (core construction cost depends on it).
    const lbp::SimConfig front = coreConfigs.front().cfg;
    for (const lbp::Program &prog : suite) {
        const std::uint64_t id = op++;
        pb::ScopedSpan root(rec, "probe.frontEnd", id);
        probeFrontEnd(rec, id, prog, front, acc);
    }
    for (const StoredConfig &sc : coreConfigs) {
        for (std::size_t w = 0; w < suite.size(); ++w) {
            const std::uint64_t id = op++;
            pb::ScopedSpan root(rec, "probe.core", id);
            if (!probeCore(rec, id, suite[w], sc.cfg,
                           sc.result->runs[w].stats, acc))
                problems.push_back("OooCore probe of " + sc.name + "/" +
                                   suite[w].name +
                                   " disagrees with the op's result");
        }
    }
    emptyDir(scratchDir);
    lbp::ResultStore store(scratchDir);
    const std::string suiteKey = lbp::suiteKey(suite);
    for (const StoredConfig &sc : configs) {
        const std::uint64_t id = op++;
        pb::ScopedSpan root(rec, "probe.store", id);
        pb::ScopedSpan s(rec, "sim.ResultStore.save", id);
        if (!store.save(suiteKey, lbp::configKey(sc.cfg), *sc.result))
            problems.push_back("ResultStore::save failed for " + sc.name);
    }
    for (const StoredConfig &sc : configs) {
        const std::uint64_t id = op++;
        std::unique_ptr<lbp::SuiteResult> back;
        {
            pb::ScopedSpan root(rec, "probe.store", id);
            pb::ScopedSpan s(rec, "sim.ResultStore.load", id);
            back = store.load(suiteKey, lbp::configKey(sc.cfg));
        }
        if (!back || perWorkload(*back) != perWorkload(*sc.result))
            problems.push_back("ResultStore round trip changed " +
                               sc.name);
    }
    acc.store = store.stats();
}

// ---------------------------------------------------------------------
// The serving daemon, and the serve layer's per-layer values.
// ---------------------------------------------------------------------

/** A running lbpserved child; SIGTERM-drained and reaped on stop(). */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Spawn and wait until it answers a hello. A non-empty
     * @p traceOut makes the daemon write its per-request service spans
     * there when it drains.
     */
    void
    start(const std::string &exe, const std::string &storeDir,
          const std::string &workDir, const std::string &traceOut)
    {
        const std::string portFile = workDir + "/port";
        std::error_code ec;
        fs::remove(portFile, ec);
        const std::string log = workDir + "/lbpserved.log";
        std::vector<std::string> args = {
            exe,      "--port", "0", "--port-file", portFile, "--store",
            storeDir, "--jobs", std::to_string(kSweepJobs), "--quiet"};
        if (!traceOut.empty()) {
            args.push_back("--trace-out");
            args.push_back(traceOut);
        }
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        const int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid_ = -1;
            throw SetupError("cannot start " + exe + ": " +
                             std::strerror(rc));
        }
        const auto t0 = Clock::now();
        while (port_ == 0) {
            std::ifstream pf(portFile);
            unsigned p = 0;
            if (pf >> p && p > 0)
                port_ = static_cast<std::uint16_t>(p);
            else if (int status = 0; waitpid(pid_, &status, WNOHANG) == pid_)
                throw SetupError((pid_ = -1, "lbpserved exited during "
                                             "start-up; see " + log));
            else if (secondsSince(t0) > 30.0)
                throw SetupError("lbpserved did not bind within 30 s");
            else
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        std::string err;
        lbp::TcpConn conn = lbp::tcpConnect("127.0.0.1", port_, err);
        std::string line;
        if (!conn.valid() ||
            !conn.sendAll(std::string("{\"type\":\"hello\",\"protocol\":"
                                      "\"") +
                          lbp::kServeProtocol + "\"}\n") ||
            conn.readLine(line, 10000) != 1 ||
            line.find("\"type\":\"hello\"") == std::string::npos)
            throw SetupError("lbpserved hello failed: " + err + line);
        conn.sendAll("{\"type\":\"bye\"}\n");
    }

    std::uint16_t port() const { return port_; }
    double peakRss() const { return peakRssMb(std::to_string(pid_)); }

    void
    stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        const auto t0 = Clock::now();
        int status = 0;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 10.0) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
        port_ = 0;
    }

  private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

/** Per daemon request number: phase -> (begin, end) in microseconds. */
using ServiceSpans =
    std::map<std::uint64_t,
             std::map<std::string, std::pair<double, double>>>;

/**
 * The daemon's own --trace-out spans (queue / simulate / assemble per
 * request, B/E pairs in microseconds). Its metrics-frame histograms
 * hold whole milliseconds, so sub-millisecond queue waits read 0 there.
 */
ServiceSpans
readServiceTrace(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    lbp::JsonValue doc;
    if (!lbp::JsonValue::parse(text.str(), doc))
        throw SetupError("unreadable lbpserved trace " + path);
    ServiceSpans out;
    for (const lbp::JsonValue &e : doc.items()) {
        const lbp::JsonValue *ph = e.member("ph");
        const lbp::JsonValue *tid = e.member("tid");
        const lbp::JsonValue *ts = e.member("ts");
        const lbp::JsonValue *name = e.member("name");
        if (!ph || !tid || !ts || !name)
            continue;
        auto &span = out[static_cast<std::uint64_t>(tid->number())]
                        [name->str()];
        (ph->str() == "B" ? span.first : span.second) = ts->number();
    }
    return out;
}

/**
 * serve.* values: the daemon's service spans for the last
 * @p clientMs.size() requests it answered (it must have drained, which
 * writes @p serviceTrace), their latency as the client saw it, and
 * their CSV + manifest reply bytes.
 */
void
addServeValues(LayerValues &v, const std::string &serviceTrace,
               const std::vector<double> &clientMs,
               const std::vector<double> &replyBytes)
{
    const ServiceSpans reqs = readServiceTrace(serviceTrace);
    std::size_t skip = reqs.size() - std::min(reqs.size(), clientMs.size());
    std::map<std::string, std::vector<double>> daemonMs;
    for (const auto &[seq, phases] : reqs) {
        if (skip > 0) {
            --skip;
            continue;
        }
        const auto phase = [&phases](const char *name) {
            const auto it = phases.find(name);
            return it == phases.end() ? std::pair{0.0, 0.0} : it->second;
        };
        const auto q = phase("queue"), x = phase("simulate"),
                   a = phase("assemble");
        daemonMs["request"].push_back((a.second - q.first) / 1000.0);
        daemonMs["queue"].push_back((q.second - q.first) / 1000.0);
        daemonMs["execute"].push_back((x.second - x.first) / 1000.0);
    }
    const double requestMs = mean(daemonMs["request"]);
    const std::size_t n = daemonMs["request"].size();
    v["serve.request_ms_mean"] = {requestMs, n};
    v["serve.queue_wait_ms_mean"] = {mean(daemonMs["queue"]), n};
    v["serve.execute_ms_mean"] = {mean(daemonMs["execute"]), n};
    v["serve.outside_server_ms_mean"] = {mean(clientMs) - requestMs,
                                         clientMs.size()};
    v["serve.reply_bytes"] = {mean(replyBytes), replyBytes.size()};
}

/** Warm requests the serve probe times. */
constexpr unsigned kServeProbeRequests = 10;

/**
 * serve probe, for workloads whose ops never reach the serve layer: an
 * lbpserved on an empty scratch store answers one small request cold
 * (the default figure set over two workloads at short budgets, 22
 * cells; untimed), then kServeProbeRequests identical ones from its
 * resident cache, which must return the same CSV and simulate nothing.
 */
void
probeServe(pb::SpanRecorder &rec, std::uint64_t &op,
           const std::string &daemonExe, const std::string &dir,
           LayerValues &v, std::vector<std::string> &problems)
{
    emptyDir(dir + "/store");
    const std::string trace = dir + "/lbpserved-trace.json";
    Daemon daemon;
    daemon.start(daemonExe, dir + "/store", dir, trace);
    lbp::ServeClientOptions co;
    co.port = daemon.port();
    co.suite = 2;
    co.warmupInstrs = 2000;
    co.measureInstrs = 3000;
    co.timeoutSeconds = 30.0;
    std::string coldCsv;
    std::vector<double> ms, bytes;
    for (unsigned i = 0; i <= kServeProbeRequests; ++i) {
        const std::uint64_t id = op++;
        lbp::ServeSweepResult res;
        std::string error;
        bool ok = false;
        const auto t0 = Clock::now();
        {
            pb::ScopedSpan root(rec, "probe.serve", id);
            pb::ScopedSpan s(rec, "serve.runServeSweep", id);
            ok = lbp::runServeSweep(co, res, error);
        }
        const double seconds = secondsSince(t0);
        if (!ok) {
            problems.push_back("serve probe request failed: " + error);
            return;
        }
        if (i == 0) {
            coldCsv = res.csv;
            continue;
        }
        if (res.csv != coldCsv || res.counter("sweep_cells_simulated") != 0)
            problems.push_back("serve probe: a warm request changed the "
                               "CSV or simulated cells");
        ms.push_back(seconds * 1000.0);
        bytes.push_back(
            static_cast<double>(res.csv.size() + res.manifest.size()));
    }
    daemon.stop();
    addServeValues(v, trace, ms, bytes);
}

// ---------------------------------------------------------------------
// The workload interface and its driver loop.
// ---------------------------------------------------------------------

/** Everything one phase (untraced or traced) of a run measured. */
struct PhaseResult
{
    std::vector<double> setupSeconds;  ///< one per set-up repetition
    std::vector<pb::OpOutput> outputs;  ///< every timed op, in order
    std::map<std::string, std::vector<double>> opSeconds;  ///< by kind
    pb::CheckResult check;
    std::vector<pb::Metric> e2e;
};

/**
 * One benchmark workload. A phase is several set-ups (each from
 * nothing to ready, warm-up ops included), then timed rounds, one op
 * of each of kinds() in order, until the time is up. Every workload
 * reports the same end-to-end metrics (see runPhase()).
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Op kinds in rotation order; one of each makes a round. */
    virtual std::vector<std::string> kinds() const = 0;

    /** Peak resident set of the workload's processes, in MiB. */
    virtual double peakRss() const { return peakRssMb("self"); }

    /** One set-up repetition, from nothing (tearDown() ran before it,
     *  outside the set-up clock); throws SetupError on failure. Per-op
     *  records of an earlier phase are dropped here. */
    virtual void setUp(pb::SpanRecorder &rec, std::uint64_t op) = 0;

    /** One timed op; @p seconds receives its timed wall time. */
    virtual pb::OpOutput runOp(const std::string &kind,
                               pb::SpanRecorder &rec, std::uint64_t op,
                               double &seconds) = 0;

    /** What every op of each kind must reproduce. */
    virtual std::map<std::string, pb::OpExpectation>
    expectations() const = 0;

    /** Inner-API probes and per-layer values after the traced phase. */
    virtual LayerValues probe(pb::SpanRecorder &rec, std::uint64_t &op) = 0;

    /** Stop processes and remove files a set-up created; runs before
     *  every set-up and at the end of the run. */
    virtual void tearDown() {}

    /** Probe cross-checks that disagreed with the ops' results. */
    std::vector<std::string> probeProblems;
};

/** Expected default-seed digests: workload -> (item, digest) lines. */
using ExpectedDigests = std::map<std::string, RunDigests>;

ExpectedDigests
loadExpected(const std::string &path)
{
    ExpectedDigests out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string wl, item, digest;
        if (ls >> wl >> item >> digest)
            out[wl].emplace_back(item, digest);
    }
    return out;
}

/** The paper's headline scheme: forward walk 32-4-2, CBPw-Loop128. */
lbp::SweepConfig
forwardWalk(const lbp::SweepSpec &spec)
{
    for (lbp::SweepConfig &sc : lbp::defaultFigureConfigs(spec))
        if (sc.name == "forward-walk")
            return sc;
    throw SetupError("default figure set has no forward-walk config");
}

// ---------------------------------------------------------------------
// Sweeps rendered in memory, as lbpsweep would write them.
// ---------------------------------------------------------------------

/** One sweep's outputs; the cache owns result.configResults. */
struct RenderedSweep
{
    std::unique_ptr<lbp::SuiteCache> cache;
    lbp::SweepResult result;
    lbp::StoreStats store;
    std::string csv;
    std::string manifest;

    /** The per-config results with their configs, for the probes. */
    std::vector<StoredConfig>
    stored(const std::vector<lbp::SweepConfig> &configs) const
    {
        std::vector<StoredConfig> out;
        for (std::size_t c = 0; c < configs.size(); ++c)
            out.push_back({configs[c].name, configs[c].cfg,
                           result.configResults[c]});
        return out;
    }
};

/**
 * A fresh SuiteCache and ResultStore, runSweep, then CSV and manifest.
 * The cache must be fresh: a null SweepOptions::cache means the
 * process-wide cache, which would turn a later "cold" sweep into hits.
 */
RenderedSweep
renderSweep(pb::SpanRecorder &rec, std::uint64_t op,
            const std::vector<lbp::Program> &suite,
            const std::vector<lbp::SweepConfig> &configs,
            const std::string &storeDir)
{
    RenderedSweep out;
    std::unique_ptr<lbp::ResultStore> store;
    {
        pb::ScopedSpan s(rec, "sim.openCacheAndStore", op);
        out.cache = std::make_unique<lbp::SuiteCache>();
        store = std::make_unique<lbp::ResultStore>(storeDir);
    }
    lbp::SweepOptions so;
    so.jobs = kSweepJobs;
    so.store = store.get();
    so.cache = out.cache.get();
    {
        pb::ScopedSpan s(rec, "sim.runSweep", op);
        out.result = lbp::runSweep(suite, configs, so);
    }
    {
        pb::ScopedSpan s(rec, "sim.writeSweepCsv", op);
        std::ostringstream os;
        lbp::writeSweepCsv(os, out.result, configs);
        out.csv = os.str();
    }
    {
        pb::ScopedSpan s(rec, "sim.writeSweepManifest", op);
        std::ostringstream os;
        lbp::writeSweepManifest(os, out.result, configs);
        out.manifest = os.str();
    }
    out.store = store->stats();
    return out;
}

void
appendSweepCounters(pb::Counters &c, const RenderedSweep &r)
{
    const lbp::SweepStats &s = r.result.stats;
    c.emplace_back("cells_total", s.cellsTotal);
    c.emplace_back("cells_simulated", s.cellsSimulated);
    c.emplace_back("cells_store_hit", s.cellsStoreHit);
    c.emplace_back("cells_cache_hit", s.cellsCacheHit);
    c.emplace_back("store_writes", s.storeWrites);
    c.emplace_back("store_bytes_written", r.store.bytesWritten);
    c.emplace_back("store_bytes_read", r.store.bytesRead);
    c.emplace_back("csv_bytes", r.csv.size());
}

/** Share of the sweep's worker time spent in cells, and the rest. */
std::pair<double, double>
poolUse(const RenderedSweep &r)
{
    const lbp::SweepStats &s = r.result.stats;
    const double slots = s.wallSeconds * r.result.jobs;
    return {ratio(s.cellWallSeconds, slots), slots - s.cellWallSeconds};
}

/** Run-time and pool figures of a sweep that simulated its cells. */
void
addSweepValues(LayerValues &v, const RenderedSweep &r,
               const std::vector<lbp::SweepConfig> &configs)
{
    WorkTotals work;
    for (const lbp::SuiteResult *res : r.result.configResults)
        work.add(*res, configs.front().cfg.warmupInstrs);
    addWorkValues(v, work);
    std::vector<double> cellMs;
    for (const lbp::SweepCell &c : r.result.cells)
        cellMs.push_back(c.wallSeconds * 1000.0);
    v["sim.run_one_ms_p50"] = {pb::median(cellMs), cellMs.size()};
}

// ---------------------------------------------------------------------
// hotpath: runSuite of the headline scheme over the full suite.
// ---------------------------------------------------------------------

class Hotpath : public Workload
{
  public:
    Hotpath(std::uint64_t seed, const ExpectedDigests *expected,
            const std::string &workDir, std::string daemonExe)
        : seed_(seed), fw_(forwardWalk(lbp::SweepSpec{})),
          scratchDir_(workDir + "/probe-store"),
          serveDir_(workDir + "/probe-serve"),
          daemonExe_(std::move(daemonExe))
    {
        if (expected && expected->count("hotpath"))
            expected_ = expected->at("hotpath");
    }

    std::vector<std::string> kinds() const override
    {
        return {"runSuite"};
    }

    void
    setUp(pb::SpanRecorder &rec, std::uint64_t op) override
    {
        pb::ScopedSpan root(rec, "setup.hotpath", op);
        {
            pb::ScopedSpan s(rec, "workload.buildSuite", op);
            lbp::SuiteOptions so;
            so.seed = seed_;
            suite_ = lbp::buildSuite(so);
        }
        lbp::SuiteResult warm;
        {
            pb::ScopedSpan s(rec, "sim.runSuite", op);
            warm = lbp::runSuite(suite_, fw_.cfg, kHotpathJobs);
        }
        reference_ = perWorkload(warm);
        busy_.clear();
        idle_.clear();
    }

    pb::OpOutput
    runOp(const std::string &kind, pb::SpanRecorder &rec,
          std::uint64_t op, double &seconds) override
    {
        lbp::SuiteResult res;
        const auto t0 = Clock::now();
        {
            pb::ScopedSpan root(rec, "op.runSuite", op);
            pb::ScopedSpan s(rec, "sim.runSuite", op);
            res = lbp::runSuite(suite_, fw_.cfg, kHotpathJobs);
        }
        seconds = secondsSince(t0);

        pb::OpOutput out;
        out.kind = kind;
        const auto digests = perWorkload(res);
        out.digest = joinDigest(digests);
        const auto &ref = expected_.empty() ? reference_ : expected_;
        for (std::size_t i = 0; i < digests.size() && i < ref.size(); ++i)
            if (digests[i] != ref[i])
                out.error += (out.error.empty() ? "RunResult differs for"
                                                : ",") +
                             (" " + digests[i].first);
        WorkTotals w;
        w.add(res, fw_.cfg.warmupInstrs);
        out.counters.emplace_back("workloads", res.runs.size());
        w.appendCounters(out.counters);
        double busy = 0.0;
        for (const double b : res.telemetry.workerBusySeconds)
            busy += b;
        const double slots = res.telemetry.wallSeconds * res.telemetry.jobs;
        busy_.push_back(ratio(busy, slots));
        idle_.push_back(slots - busy);
        last_ = std::move(res);
        return out;
    }

    std::map<std::string, pb::OpExpectation>
    expectations() const override
    {
        // The default seed is checked against the committed digests;
        // any other seed against the set-up's own warm-up run.
        pb::OpExpectation ex;
        ex.digest = joinDigest(expected_.empty() ? reference_ : expected_);
        ex.required = {{"workloads", suite_.size()}};
        return {{"runSuite", ex}};
    }

    LayerValues
    probe(pb::SpanRecorder &rec, std::uint64_t &op) override
    {
        ProbeTotals acc;
        const std::vector<StoredConfig> cfgs = {
            {fw_.name, fw_.cfg, &last_}};
        probeLayers(rec, op, suite_, cfgs, cfgs, scratchDir_, acc,
                    probeProblems);
        // runSuite's own per-workload entry point, on the same cells.
        for (std::size_t i = 0; i < suite_.size(); ++i) {
            const std::uint64_t id = op++;
            lbp::RunResult one;
            {
                pb::ScopedSpan root(rec, "probe.runOne", id);
                pb::ScopedSpan s(rec, "sim.runOne", id);
                one = lbp::runOne(suite_[i], fw_.cfg);
            }
            if (canonicalRun(one) != canonicalRun(last_.runs[i]))
                probeProblems.push_back("runOne of " + suite_[i].name +
                                        " disagrees with runSuite");
        }
        // The sweep layer's store-read and rendering path, which the
        // ops bypass: a warm sweep of the op's config over the scratch
        // store probeLayers() saved its result to.
        for (unsigned i = 0; i < kWarmSweepProbes; ++i) {
            const std::uint64_t id = op++;
            RenderedSweep warm;
            {
                pb::ScopedSpan root(rec, "probe.warmSweep", id);
                warm = renderSweep(rec, id, suite_, {fw_}, scratchDir_);
            }
            if (warm.result.stats.cellsStoreHit != suite_.size())
                probeProblems.push_back("warm sweep probe missed the "
                                        "stored result");
        }

        LayerValues v;
        acc.addTo(v, rec.spans());
        WorkTotals work;
        work.add(last_, fw_.cfg.warmupInstrs);
        addWorkValues(v, work);
        const std::vector<double> one = spanDurs(rec.spans(), "sim.runOne");
        v["sim.run_one_ms_p50"] = {pb::median(one) / 1000.0, one.size()};
        addPoolValues(v, busy_, idle_);
        addRenderValues(v, rec.spans(), "probe.warmSweep");
        v["sim.cells_simulated"] = {static_cast<double>(last_.runs.size()),
                                    1};
        probeServe(rec, op, daemonExe_, serveDir_, v, probeProblems);
        return v;
    }

    /** (workload, digest) of the last set-up's warm-up run. */
    const RunDigests &
    reference() const
    {
        return reference_;
    }

  private:
    std::uint64_t seed_;
    lbp::SweepConfig fw_;
    std::string scratchDir_;
    std::string serveDir_;
    std::string daemonExe_;
    std::vector<lbp::Program> suite_;
    RunDigests expected_;
    RunDigests reference_;
    lbp::SuiteResult last_;
    std::vector<double> busy_;
    std::vector<double> idle_;
};

// ---------------------------------------------------------------------
// figure-sweep: the cold 11-config x 8-workload figure sweep.
// ---------------------------------------------------------------------

class FigureSweep : public Workload
{
  public:
    FigureSweep(std::uint64_t seed, const ExpectedDigests *expected,
                const std::string &workDir, std::string daemonExe)
        : seed_(seed), storeDir_(workDir + "/store"),
          scratchDir_(workDir + "/probe-store"),
          serveDir_(workDir + "/probe-serve"),
          daemonExe_(std::move(daemonExe))
    {
        if (expected && expected->count("figure-sweep"))
            expectedCsv_ = expected->at("figure-sweep").front().second;
        lbp::SweepSpec spec;  // lbpsweep defaults: 40k + 60k, 8 loads
        configs_ = lbp::defaultFigureConfigs(spec);
        suiteCap_ = spec.suite;
    }

    std::vector<std::string> kinds() const override
    {
        return {"coldSweep"};
    }

    void
    setUp(pb::SpanRecorder &rec, std::uint64_t op) override
    {
        pb::ScopedSpan root(rec, "setup.figure-sweep", op);
        {
            pb::ScopedSpan s(rec, "workload.buildSuite", op);
            lbp::SuiteOptions so;
            so.seed = seed_;
            so.maxWorkloads = suiteCap_;
            suite_ = lbp::buildSuite(so);
        }
        referenceCsv_ =
            pb::digestHex(renderSweep(rec, op, suite_, configs_, storeDir_)
                              .csv);
        busy_.clear();
        idle_.clear();
    }

    pb::OpOutput
    runOp(const std::string &kind, pb::SpanRecorder &rec,
          std::uint64_t op, double &seconds) override
    {
        emptyDir(storeDir_);
        const auto t0 = Clock::now();
        RenderedSweep r;
        {
            pb::ScopedSpan root(rec, "op.coldSweep", op);
            r = renderSweep(rec, op, suite_, configs_, storeDir_);
        }
        seconds = secondsSince(t0);

        pb::OpOutput out;
        out.kind = kind;
        out.digest = pb::digestHex(r.csv);
        appendSweepCounters(out.counters, r);
        WorkTotals w;
        for (const lbp::SuiteResult *res : r.result.configResults)
            w.add(*res, configs_.front().cfg.warmupInstrs);
        w.appendCounters(out.counters);
        const auto [busy, idle] = poolUse(r);
        busy_.push_back(busy);
        idle_.push_back(idle);
        last_ = std::move(r);
        return out;
    }

    std::map<std::string, pb::OpExpectation>
    expectations() const override
    {
        pb::OpExpectation ex;
        ex.digest = expectedCsv_.empty() ? referenceCsv_ : expectedCsv_;
        const std::uint64_t cells = configs_.size() * suite_.size();
        ex.required = {{"cells_total", cells},
                       {"cells_simulated", cells},
                       {"store_writes", configs_.size()}};
        return {{"coldSweep", ex}};
    }

    LayerValues
    probe(pb::SpanRecorder &rec, std::uint64_t &op) override
    {
        ProbeTotals acc;
        const std::vector<StoredConfig> cfgs = last_.stored(configs_);
        probeLayers(rec, op, suite_, cfgs, cfgs, scratchDir_, acc,
                    probeProblems);
        LayerValues v;
        acc.addTo(v, rec.spans());
        addSweepValues(v, last_, configs_);
        addPoolValues(v, busy_, idle_);
        addRenderValues(v, rec.spans(), "op.");
        v["sim.cells_simulated"] = {
            static_cast<double>(last_.result.stats.cellsSimulated), 1};
        probeServe(rec, op, daemonExe_, serveDir_, v, probeProblems);
        return v;
    }

    const std::string &referenceCsv() const { return referenceCsv_; }

    void
    tearDown() override
    {
        last_ = RenderedSweep();
        std::error_code ec;
        fs::remove_all(storeDir_, ec);
    }

  private:
    std::uint64_t seed_;
    std::string storeDir_;
    std::string scratchDir_;
    std::string serveDir_;
    std::string daemonExe_;
    std::vector<lbp::SweepConfig> configs_;
    unsigned suiteCap_ = 8;
    std::vector<lbp::Program> suite_;
    std::string expectedCsv_;
    std::string referenceCsv_;
    RenderedSweep last_;
    std::vector<double> busy_;
    std::vector<double> idle_;
};

// ---------------------------------------------------------------------
// warm-requests: the stored full-suite figure set, local and served.
// ---------------------------------------------------------------------

/** splitmix64: decorrelates consecutive seeds. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

class WarmRequests : public Workload
{
  public:
    WarmRequests(std::uint64_t seed, std::string daemonExe,
                 const std::string &workDir)
        : daemonExe_(std::move(daemonExe)), workDir_(workDir),
          storeDir_(workDir + "/store"),
          scratchDir_(workDir + "/probe-store"),
          serviceTrace_(workDir + "/lbpserved-trace.json")
    {
        // Requests carry no seed (the daemon always builds the default
        // suite), so the seed picks the budgets: every stored and
        // served byte changes with it. The range is narrow so that
        // priming costs about the same for every seed.
        const std::uint64_t h = mix(seed);
        spec_.fullSuite = true;
        spec_.warmupInstrs = 3000 + h % 100;
        spec_.measureInstrs = 4000 + (h >> 32) % 100;
        lbp::finalizeSweepSpec(spec_);
    }

    std::vector<std::string> kinds() const override
    {
        return {"local", "served"};
    }

    /** This process's and the serving daemon's, summed. */
    double
    peakRss() const override
    {
        return peakRssMb("self") + daemon_.peakRss();
    }

    void
    setUp(pb::SpanRecorder &rec, std::uint64_t op) override
    {
        pb::ScopedSpan root(rec, "setup.warm-requests", op);
        {
            pb::ScopedSpan s(rec, "sim.buildSpecSuite", op);
            primeSuite_ = lbp::buildSpecSuite(spec_);
        }
        prime_ = renderSweep(rec, op, primeSuite_, spec_.configs,
                             storeDir_);
        if (prime_.result.stats.cellsSimulated !=
            prime_.result.stats.cellsTotal)
            throw SetupError("priming sweep did not simulate every cell");
        {
            pb::ScopedSpan s(rec, "serve.start", op);
            daemon_.start(daemonExe_, storeDir_, workDir_,
                          rec.enabled() ? serviceTrace_ : "");
        }
        // Untimed warm-up requests: the first served one moves the
        // stored results into the daemon's resident cache.
        double ignored = 0.0;
        for (const std::string &kind : kinds()) {
            const pb::OpOutput o = runOp(kind, rec, op, ignored);
            if (!o.error.empty())
                throw SetupError("warm-up " + kind + ": " + o.error);
        }
        servedMs_.clear();
        replyBytes_.clear();
    }

    pb::OpOutput
    runOp(const std::string &kind, pb::SpanRecorder &rec,
          std::uint64_t op, double &seconds) override
    {
        return kind == "local" ? localOp(rec, op, seconds)
                               : servedOp(rec, op, seconds);
    }

    std::map<std::string, pb::OpExpectation>
    expectations() const override
    {
        const std::uint64_t cells = prime_.result.stats.cellsTotal;
        const std::string csv = pb::digestHex(prime_.csv);
        return {
            {"local",
             {csv,
              {{"cells_total", cells},
               {"cells_simulated", 0},
               {"cells_store_hit", cells}}}},
            {"served",
             {csv, {{"cells_total", cells}, {"cells_simulated", 0}}}},
        };
    }

    LayerValues
    probe(pb::SpanRecorder &rec, std::uint64_t &op) override
    {
        // Draining makes the daemon write its service spans; the timed
        // requests are the last servedMs_.size() it answered.
        daemon_.stop();
        LayerValues v;
        addServeValues(v, serviceTrace_, servedMs_, replyBytes_);

        // Layers below the request: what priming simulated and stored.
        for (unsigned i = 0; i < kSetupReps; ++i) {
            const std::uint64_t id = op++;
            pb::ScopedSpan root(rec, "probe.buildSuite", id);
            pb::ScopedSpan s(rec, "workload.buildSuite", id);
            lbp::buildSuite(lbp::SuiteOptions{});
        }
        ProbeTotals acc;
        const std::vector<StoredConfig> cfgs = prime_.stored(spec_.configs);
        std::vector<StoredConfig> fw;
        for (const StoredConfig &sc : cfgs)
            if (sc.name == "forward-walk")
                fw.push_back(sc);
        probeLayers(rec, op, primeSuite_, cfgs, fw, scratchDir_, acc,
                    probeProblems);

        acc.addTo(v, rec.spans());
        addSweepValues(v, prime_, spec_.configs);
        const auto [busy, idle] = poolUse(prime_);
        addPoolValues(v, {busy}, {idle});
        addRenderValues(v, rec.spans(), "op.");
        // Store reads and cells of the timed local requests themselves.
        v["sim.store_bytes_read"] = {static_cast<double>(lastBytesRead_),
                                     1};
        v["sim.cells_simulated"] = {static_cast<double>(lastSimulated_), 1};
        return v;
    }

    void
    tearDown() override
    {
        daemon_.stop();
        std::error_code ec;
        fs::remove_all(storeDir_, ec);
    }

  private:
    /** What `lbpsweep --suite all --store` runs, rendered in memory. */
    pb::OpOutput
    localOp(pb::SpanRecorder &rec, std::uint64_t op, double &seconds)
    {
        std::vector<lbp::Program> suite;  // freed after the timed region
        const auto t0 = Clock::now();
        RenderedSweep r;
        {
            pb::ScopedSpan root(rec, "op.local", op);
            lbp::SweepSpec spec;
            {
                pb::ScopedSpan s(rec, "sim.finalizeSweepSpec", op);
                spec.fullSuite = true;
                spec.warmupInstrs = spec_.warmupInstrs;
                spec.measureInstrs = spec_.measureInstrs;
                lbp::finalizeSweepSpec(spec);
            }
            {
                pb::ScopedSpan s(rec, "sim.buildSpecSuite", op);
                suite = lbp::buildSpecSuite(spec);
            }
            r = renderSweep(rec, op, suite, spec.configs, storeDir_);
        }
        seconds = secondsSince(t0);

        pb::OpOutput out;
        out.kind = "local";
        out.digest = pb::digestHex(r.csv);
        appendSweepCounters(out.counters, r);
        lastBytesRead_ = r.store.bytesRead;
        lastSimulated_ = r.result.stats.cellsSimulated;
        return out;
    }

    /** What `lbpsweep --suite all --server` runs. */
    pb::OpOutput
    servedOp(pb::SpanRecorder &rec, std::uint64_t op, double &seconds)
    {
        lbp::ServeClientOptions co;
        co.port = daemon_.port();
        co.fullSuite = true;
        co.warmupInstrs = spec_.warmupInstrs;
        co.measureInstrs = spec_.measureInstrs;
        co.timeoutSeconds = 30.0;
        lbp::ServeSweepResult res;
        std::string error;
        bool ok = false;
        const auto t0 = Clock::now();
        {
            pb::ScopedSpan root(rec, "op.served", op);
            pb::ScopedSpan s(rec, "serve.runServeSweep", op);
            ok = lbp::runServeSweep(co, res, error);
        }
        seconds = secondsSince(t0);
        servedMs_.push_back(seconds * 1000.0);
        const std::size_t reply = res.csv.size() + res.manifest.size();
        replyBytes_.push_back(static_cast<double>(reply));

        pb::OpOutput out;
        out.kind = "served";
        if (!ok) {
            out.error = "runServeSweep: " + error;
            return out;
        }
        out.digest = pb::digestHex(res.csv);
        const auto count = [&res](const char *name) {
            return static_cast<std::uint64_t>(res.counter(name));
        };
        out.counters = {
            {"cells_total", res.cells},
            {"cells_simulated", count("sweep_cells_simulated")},
            {"cells_store_hit", count("sweep_cells_store_hit")},
            {"cells_cache_hit", count("sweep_cells_cache_hit")},
            {"csv_bytes", res.csv.size()},
        };
        return out;
    }

    std::string daemonExe_;
    std::string workDir_;
    std::string storeDir_;
    std::string scratchDir_;
    std::string serviceTrace_;
    lbp::SweepSpec spec_;
    Daemon daemon_;
    std::vector<lbp::Program> primeSuite_;
    RenderedSweep prime_;
    std::vector<double> servedMs_;
    std::vector<double> replyBytes_;
    std::uint64_t lastBytesRead_ = 0;
    std::uint64_t lastSimulated_ = 0;
};

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

PhaseResult
runPhase(Workload &w, pb::SpanRecorder &rec, double seconds,
         std::uint64_t &opId, Clock::time_point hardStop)
{
    PhaseResult ph;
    const auto setupStart = Clock::now();
    while (ph.setupSeconds.size() < kSetupReps ||
           (secondsSince(setupStart) < kSetupSeconds &&
            ph.setupSeconds.size() < kSetupRepsMax)) {
        w.tearDown();
        const auto t0 = Clock::now();
        w.setUp(rec, opId++);
        ph.setupSeconds.push_back(secondsSince(t0));
    }
    const std::vector<std::string> kinds = w.kinds();
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        if (i > 0 && i % kinds.size() == 0 &&
            (secondsSince(start) >= seconds || Clock::now() >= hardStop))
            break;
        const std::string &kind = kinds[i % kinds.size()];
        double s = 0.0;
        ph.outputs.push_back(w.runOp(kind, rec, opId++, s));
        ph.opSeconds[kind].push_back(s);
    }
    ph.check = pb::checkOps(ph.outputs, w.expectations());

    // The end-to-end metrics, the same for every workload.
    std::vector<std::vector<double>> perKind;
    for (const std::string &k : kinds)
        perKind.push_back(ph.opSeconds[k]);
    const std::vector<double> rounds = pb::roundSums(perKind);
    ph.e2e = {
        {"setup_s", pb::median(ph.setupSeconds), "s",
         ph.setupSeconds.size()},
        {"peak_rss_mb", w.peakRss(), "MB", 1},
        {"op_ms_p50", pb::median(rounds) * 1000.0, "ms", rounds.size()},
    };
    return ph;
}

/** Exact counts, op spread and failures of one phase. */
void
printPhase(const char *label, const PhaseResult &ph)
{
    std::map<std::string, const pb::OpOutput *> last;
    for (const pb::OpOutput &o : ph.outputs)
        last[o.kind] = &o;
    for (const auto &[kind, o] : last) {
        std::printf("counts %s %s:", label, kind.c_str());
        for (const auto &[name, v] : o->counters)
            std::printf(" %s=%llu", name.c_str(),
                        static_cast<unsigned long long>(v));
        std::printf("\n");
    }
    for (const auto &[kind, secs] : ph.opSeconds) {
        std::vector<double> ms = secs;
        for (double &x : ms)
            x *= 1000.0;
        std::sort(ms.begin(), ms.end());
        const pb::Quantile p90 = pb::quantile(ms, 0.9);
        std::printf("timing %s %s: n=%zu min %.2f p25 %.2f median %.2f "
                    "p75 %.2f p90 %.2f (%zu beyond) max %.2f ms\n",
                    label, kind.c_str(), ms.size(), ms.front(),
                    pb::quantile(ms, 0.25).value, pb::median(ms),
                    pb::quantile(ms, 0.75).value, p90.value, p90.beyond,
                    ms.back());
    }
    std::printf("ops %s: attempted %zu, failed %zu (a failed op is a "
                "wrong output, changed count, error or timeout)\n",
                label, ph.check.attempted, ph.check.failed);
    for (const std::string &p : ph.check.problems)
        std::printf("FAILED %s\n", p.c_str());
}

void
printMetrics(const char *heading, const std::vector<pb::Metric> &ms)
{
    std::printf("%s\n", heading);
    for (const pb::Metric &m : ms)
        std::printf("  %-32s %22s %-9s n=%zu\n", m.name.c_str(),
                    pb::formatNumber(m.value, m.integral).c_str(),
                    m.unit.c_str(), m.samples);
}

/** Trace-run report: overhead, span coverage, self time, trace file. */
void
printTraceReport(const PhaseResult &plain, const PhaseResult &traced,
                 const pb::SpanRecorder &rec, const std::string &path,
                 const std::string &workload)
{
    std::printf("tracing overhead (traced half vs untraced half):\n");
    for (std::size_t i = 0; i < plain.e2e.size(); ++i) {
        // VmHWM is a high-water mark of the one process that runs both
        // halves, so the traced value cannot be below the untraced one.
        if (plain.e2e[i].name == "peak_rss_mb") {
            std::printf("  %-24s not compared: the driver's peak RSS is "
                        "cumulative over both halves\n",
                        plain.e2e[i].name.c_str());
            continue;
        }
        const double a = plain.e2e[i].value, b = traced.e2e[i].value;
        std::printf("  %-24s untraced %-12.6g traced %-12.6g %+.2f%%\n",
                    plain.e2e[i].name.c_str(), a, b,
                    100.0 * ratio(b - a, a));
    }
    const std::vector<pb::Span> &spans = rec.spans();
    double minCover = 1.0, covered = 0.0, total = 0.0;
    std::size_t ops = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name.rfind("op.", 0) != 0)
            continue;
        const double c = pb::childCoverage(spans, static_cast<int>(i));
        minCover = std::min(minCover, c);
        covered += c * spans[i].durUs();
        total += spans[i].durUs();
        ++ops;
    }
    std::printf("layer spans cover %.2f%% of timed op wall time overall, "
                ">= %.2f%% of every op (%zu ops)%s\n",
                100.0 * ratio(covered, total), 100.0 * minCover, ops,
                minCover < 0.9 ? "  WARNING: an op is below 90%" : "");
    std::printf("spans by name: calls, total ms, self ms\n");
    for (const auto &[name, s] : pb::summarizeSpans(spans))
        std::printf("  %-36s %7zu %12.3f %12.3f\n", name.c_str(), s.calls,
                    s.totalUs / 1000.0, s.selfUs / 1000.0);
    std::ofstream tf(path);
    rec.writeChromeTrace(tf, "perfbench " + workload);
    std::printf("wrote %zu spans to %s (Chrome trace JSON)\n",
                spans.size(), path.c_str());
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string daemon;
    std::string expected;
    std::string workDir = ".bench_run";
    bool printDigests = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--print-digests") {
            a.printDigests = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "perfbench: %s needs a value\n",
                         f.c_str());
            return false;
        }
        const char *v = argv[++i];
        if (f == "--workload")
            a.workload = v;
        else if (f == "--seed")
            a.seed = std::strtoull(v, nullptr, 0);
        else if (f == "--seconds")
            a.seconds = std::atof(v);
        else if (f == "--trace")
            a.trace = std::atoi(v) != 0;
        else if (f == "--daemon")
            a.daemon = v;
        else if (f == "--expected")
            a.expected = v;
        else if (f == "--work-dir")
            a.workDir = v;
        else {
            std::fprintf(stderr, "perfbench: unknown option %s\n",
                         f.c_str());
            return false;
        }
    }
    return true;
}

/** Regenerate the committed default-seed digests (stdout). */
void
printDigests(const std::string &workDir)
{
    pb::SpanRecorder off(false);
    Hotpath hot(kDefaultSeed, nullptr, workDir, "");
    hot.setUp(off, 0);
    FigureSweep fig(kDefaultSeed, nullptr, workDir, "");
    fig.setUp(off, 0);
    fig.tearDown();
    std::printf("# perfbench expected digests at the default seed "
                "0x5CA1AB1E\n# (regenerate: perfbench --print-digests)\n");
    for (const auto &[name, digest] : hot.reference())
        std::printf("hotpath %s %s\n", name.c_str(), digest.c_str());
    std::printf("figure-sweep csv %s\n", fig.referenceCsv().c_str());
}

int
run(const Args &args)
{
    const auto hardStop =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kHardStopSeconds));
    const std::string workDir = args.workDir + "/" + args.workload + "-" +
                                std::to_string(getpid());
    fs::create_directories(workDir);
    struct Cleanup
    {
        std::string dir;
        ~Cleanup()
        {
            std::error_code ec;
            fs::remove_all(dir, ec);
        }
    } cleanup{workDir};

    if (args.printDigests) {
        printDigests(workDir);
        return 0;
    }

    ExpectedDigests expected;
    const bool defaultSeed = args.seed == kDefaultSeed;
    if (defaultSeed) {
        expected = loadExpected(args.expected);
        if (expected.empty())
            throw SetupError("no expected digests in '" + args.expected +
                             "' for the default seed");
    }
    const ExpectedDigests *ex = defaultSeed ? &expected : nullptr;

    if (args.daemon.empty())
        throw SetupError("--daemon <lbpserved> is required");
    std::unique_ptr<Workload> w;
    if (args.workload == "hotpath") {
        w = std::make_unique<Hotpath>(args.seed, ex, workDir, args.daemon);
    } else if (args.workload == "figure-sweep") {
        w = std::make_unique<FigureSweep>(args.seed, ex, workDir,
                                          args.daemon);
    } else if (args.workload == "warm-requests") {
        w = std::make_unique<WarmRequests>(args.seed, args.daemon,
                                           workDir);
    } else {
        throw SetupError("unknown workload '" + args.workload +
                         "' (hotpath, figure-sweep, warm-requests)");
    }
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);

    std::uint64_t opId = 0;
    pb::SpanRecorder off(false);
    std::vector<pb::Metric> reported;
    std::size_t attempted = 0, failed = 0;
    if (!args.trace) {
        const PhaseResult ph =
            runPhase(*w, off, args.seconds, opId, hardStop);
        w->tearDown();
        printPhase("run", ph);
        printMetrics("end-to-end metrics:", ph.e2e);
        reported = ph.e2e;
        attempted = ph.check.attempted;
        failed = ph.check.failed;
    } else {
        const double half = args.seconds / 2.0;
        const PhaseResult plain = runPhase(*w, off, half, opId, hardStop);
        pb::SpanRecorder rec(true);
        const PhaseResult traced = runPhase(*w, rec, half, opId, hardStop);
        reported = layerMetrics(w->probe(rec, opId));
        w->tearDown();
        printPhase("untraced", plain);
        printPhase("traced", traced);
        printMetrics("end-to-end metrics (untraced half):", plain.e2e);
        printTraceReport(plain, traced, rec,
                         args.workDir + "/trace-" + args.workload +
                             ".json",
                         args.workload);
        printMetrics("per-layer metrics (traced half and probes; n=0: "
                     "layer not called by this workload):",
                     reported);
        attempted = plain.check.attempted + traced.check.attempted;
        failed = plain.check.failed + traced.check.failed;
    }
    for (const std::string &p : w->probeProblems)
        std::printf("FAILED probe: %s\n", p.c_str());
    const bool correct = failed == 0 && w->probeProblems.empty();
    std::printf("%s\n",
                pb::resultLine(correct, attempted, failed, reported)
                    .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return 2;
    if (args.workload.empty() && !args.printDigests) {
        std::fprintf(stderr, "perfbench: --workload is required\n");
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
