/**
 * @file
 * lbpserved — the resident sweep daemon (simulation as a service).
 *
 * Keeps one SuiteCache and one persistent ResultStore warm across
 * sweep requests and serves them to concurrent lbpsweep --server
 * clients over line-delimited JSON (lbp-serve-v1, docs/SERVER.md).
 * Identical concurrent requests coalesce onto one simulation; a
 * bounded queue rejects overload explicitly; SIGTERM/SIGINT drain
 * gracefully (in-flight work finishes, new submits are rejected, then
 * the process exits 0 with a counter summary).
 *
 *   lbpserved --port 7737 --store .result-store
 *   lbpserved --port 0 --port-file port.txt --event-log served.jsonl
 *
 * Exit codes: 0 clean drain, 1 bad usage or bind failure.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"
#include "sim/result_store.hh"
#include "sim/sweep_spec.hh"

using namespace lbp;

namespace {

struct Options
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;      ///< 0 = kernel-assigned
    std::string portFile;        ///< write the bound port here
    std::string storeDir;        ///< persistent store (REPRO_RESULT_STORE)
    unsigned jobs = 0;           ///< per-sweep and suite-build workers
    std::size_t maxQueue = 8;
    std::uint64_t maxCells = 131072;
    double queueTimeout = 600.0;
    std::string eventLogPath;
    bool quiet = false;          ///< suppress the [lbpserved] log

    int metricsPort = -1;        ///< -1 off, 0 kernel-assigned
    std::string metricsPortFile; ///< write the bound metrics port here
    double heartbeat = 0.0;      ///< heartbeat interval; 0 = off
    double gcAge = 0.0;          ///< store GC: max entry age
    std::uint64_t gcBytes = 0;   ///< store GC: total size cap
    double gcInterval = 60.0;    ///< seconds between idle GC passes
    std::string traceOutPath;    ///< Chrome-trace service spans
};

struct OptSpec
{
    const char *flag;
    const char *metavar;  ///< nullptr = boolean
    const char *help;
};

constexpr OptSpec kOptions[] = {
    {"--help", nullptr, "print this help and exit"},
    {"--host", "<addr>", "bind address (default 127.0.0.1)"},
    {"--port", "<N>", "TCP port; 0 = kernel-assigned (default 0)"},
    {"--port-file", "<path>", "write the bound port (for port 0)"},
    {"--store", "<dir>", "persistent result store directory (default "
     "$REPRO_RESULT_STORE; empty = memory only)"},
    {"--jobs", "<N>", "workers per sweep and suite build (default "
     "REPRO_JOBS, else hardware concurrency)"},
    {"--max-queue", "<N>", "max requests queued or running "
     "(default 8)"},
    {"--max-cells", "<N>", "max cells queued or running "
     "(default 131072)"},
    {"--queue-timeout", "<secs>", "max wait in the queue "
     "(default 600)"},
    {"--event-log", "<path>", "append the server's JSON-lines event "
     "log (serve_* records plus every sweep's events)"},
    {"--metrics-port", "<N>", "serve Prometheus text exposition over "
     "HTTP on this port; 0 = kernel-assigned (default off)"},
    {"--metrics-port-file", "<path>", "write the bound metrics port "
     "(for --metrics-port 0)"},
    {"--heartbeat", "<secs>", "emit a heartbeat event-log record "
     "every N seconds (default off)"},
    {"--store-gc-age", "<secs>", "idle GC: evict store entries older "
     "than this (default off)"},
    {"--store-gc-bytes", "<N>", "idle GC: then cap the store at N "
     "bytes, oldest first (default off)"},
    {"--store-gc-interval", "<secs>", "seconds between idle GC passes "
     "(default 60)"},
    {"--trace-out", "<path>", "write per-request service spans as "
     "Chrome trace JSON at exit"},
    {"--quiet", nullptr, "suppress the [lbpserved] log lines"},
};

void
usage()
{
    std::printf("lbpserved — resident sweep daemon (lbp-serve-v1)\n\n");
    for (const OptSpec &o : kOptions) {
        char left[48];
        std::snprintf(left, sizeof(left), "  %s%s%s", o.flag,
                      o.metavar ? " " : "", o.metavar ? o.metavar : "");
        std::printf("%-28s%s\n", left, o.help);
    }
}

bool
parseOptions(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const OptSpec *spec = nullptr;
        for (const OptSpec &o : kOptions)
            if (std::strcmp(argv[i], o.flag) == 0)
                spec = &o;
        if (!spec) {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            usage();
            return false;
        }
        const char *v = nullptr;
        if (spec->metavar) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", argv[i]);
                return false;
            }
            v = argv[++i];
        }
        const std::string flag = spec->flag;
        // Numeric flags take the spec grammar's strict parsers; a bad
        // value is a usage error before anything binds.
        const auto count = [&](std::uint64_t max) -> std::uint64_t {
            std::uint64_t n = 0;
            if (parseSpecCount(v, n, max))
                return n;
            std::fprintf(stderr,
                         "lbpserved: %s wants an integer in [0, %llu], "
                         "got '%s'\n",
                         spec->flag, static_cast<unsigned long long>(max),
                         v);
            std::exit(1);
        };
        const auto seconds = [&]() {
            double s = 0.0;
            if (parseSeconds(v, s))
                return s;
            std::fprintf(stderr,
                         "lbpserved: %s wants a finite, non-negative "
                         "number of seconds, got '%s'\n",
                         spec->flag, v);
            std::exit(1);
        };
        constexpr std::uint64_t portMax = 65535;
        constexpr unsigned u32Max = std::numeric_limits<unsigned>::max();
        constexpr std::uint64_t u64Max =
            std::numeric_limits<std::uint64_t>::max();
        if (flag == "--help") {
            usage();
            std::exit(0);
        } else if (flag == "--host") {
            opt.host = v;
        } else if (flag == "--port") {
            opt.port = static_cast<std::uint16_t>(count(portMax));
        } else if (flag == "--port-file") {
            opt.portFile = v;
        } else if (flag == "--store") {
            opt.storeDir = v;
        } else if (flag == "--jobs") {
            opt.jobs = static_cast<unsigned>(count(u32Max));
        } else if (flag == "--max-queue") {
            opt.maxQueue = static_cast<std::size_t>(
                count(std::numeric_limits<std::size_t>::max()));
        } else if (flag == "--max-cells") {
            opt.maxCells = count(u64Max);
        } else if (flag == "--queue-timeout") {
            opt.queueTimeout = seconds();
        } else if (flag == "--event-log") {
            opt.eventLogPath = v;
        } else if (flag == "--metrics-port") {
            opt.metricsPort = static_cast<int>(count(portMax));
        } else if (flag == "--metrics-port-file") {
            opt.metricsPortFile = v;
        } else if (flag == "--heartbeat") {
            opt.heartbeat = seconds();
        } else if (flag == "--store-gc-age") {
            opt.gcAge = seconds();
        } else if (flag == "--store-gc-bytes") {
            opt.gcBytes = count(u64Max);
        } else if (flag == "--store-gc-interval") {
            opt.gcInterval = seconds();
        } else if (flag == "--trace-out") {
            opt.traceOutPath = v;
        } else if (flag == "--quiet") {
            opt.quiet = true;
        }
    }
    return true;
}

/** Drain target for the signal handlers (requestDrain is
 *  async-signal-safe: one pipe write). */
Server *gServer = nullptr;

void
onSignal(int)
{
    if (gServer)
        gServer->requestDrain();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (const char *env = std::getenv("REPRO_RESULT_STORE"))
        opt.storeDir = env;
    if (!parseOptions(argc, argv, opt))
        return 1;
    // Fixed at start-up, so a malformed REPRO_JOBS stops the daemon
    // before it opens a file or binds a port.
    opt.jobs = resolveJobs(opt.jobs);

    ResultStore store(opt.storeDir);
    std::ofstream eventLog;
    if (!opt.eventLogPath.empty()) {
        eventLog.open(opt.eventLogPath, std::ios::app);
        if (!eventLog) {
            std::fprintf(stderr, "lbpserved: cannot write %s\n",
                         opt.eventLogPath.c_str());
            return 1;
        }
    }

    std::ofstream traceOut;
    if (!opt.traceOutPath.empty()) {
        traceOut.open(opt.traceOutPath);
        if (!traceOut) {
            std::fprintf(stderr, "lbpserved: cannot write %s\n",
                         opt.traceOutPath.c_str());
            return 1;
        }
    }

    ServeOptions sopts;
    sopts.host = opt.host;
    sopts.port = opt.port;
    sopts.jobs = opt.jobs;
    sopts.store = opt.storeDir.empty() ? nullptr : &store;
    sopts.eventLog = eventLog.is_open() ? &eventLog : nullptr;
    sopts.log = opt.quiet ? nullptr : stderr;
    sopts.maxQueue = opt.maxQueue;
    sopts.maxCells = opt.maxCells;
    sopts.queueTimeoutSeconds = opt.queueTimeout;
    sopts.metricsPort = opt.metricsPort;
    sopts.heartbeatSeconds = opt.heartbeat;
    sopts.storeGc.maxAgeSeconds = opt.gcAge;
    sopts.storeGc.maxBytes = opt.gcBytes;
    sopts.gcIntervalSeconds = opt.gcInterval;
    sopts.traceOut = traceOut.is_open() ? &traceOut : nullptr;

    Server server(sopts);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "lbpserved: %s\n", error.c_str());
        return 1;
    }

    gServer = &server;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    // A client vanishing mid-write must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("lbpserved: listening on %s:%u\n", opt.host.c_str(),
                static_cast<unsigned>(server.port()));
    if (server.metricsPort())
        std::printf("lbpserved: metrics on %s:%u\n", opt.host.c_str(),
                    static_cast<unsigned>(server.metricsPort()));
    std::fflush(stdout);
    if (!opt.portFile.empty()) {
        std::ofstream pf(opt.portFile);
        if (!pf) {
            std::fprintf(stderr, "lbpserved: cannot write %s\n",
                         opt.portFile.c_str());
            return 1;
        }
        pf << server.port() << '\n';
    }
    if (!opt.metricsPortFile.empty()) {
        std::ofstream pf(opt.metricsPortFile);
        if (!pf) {
            std::fprintf(stderr, "lbpserved: cannot write %s\n",
                         opt.metricsPortFile.c_str());
            return 1;
        }
        pf << server.metricsPort() << '\n';
    }

    const int rc = server.run();
    gServer = nullptr;

    const ServeStats st = server.stats();
    std::printf("lbpserved: %llu requests (%llu deduped, %llu "
                "rejected), %llu sweeps, %llu cells served\n",
                static_cast<unsigned long long>(st.requestsReceived),
                static_cast<unsigned long long>(st.requestsDeduped),
                static_cast<unsigned long long>(st.requestsRejected),
                static_cast<unsigned long long>(st.sweepsExecuted),
                static_cast<unsigned long long>(st.cellsServed));
    return rc;
}
