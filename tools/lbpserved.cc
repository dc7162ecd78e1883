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
#include <optional>
#include <string>

#include "common/cli.hh"
#include "common/thread_pool.hh"
#include "serve/server.hh"
#include "sim/result_store.hh"

using namespace lbp;

namespace {

constexpr const char *kTool = "lbpserved";

/** The files the daemon writes besides its store entries. */
struct Files
{
    std::string portFile;         ///< the bound port (for --port 0)
    std::string metricsPortFile;  ///< the bound metrics port
    std::string eventLog;         ///< JSON-lines event log (appended)
    std::string traceOut;         ///< Chrome-trace service spans
};

/** Write @p port and a newline to @p path, when a path is given. */
void
writePort(const std::string &path, std::uint16_t port)
{
    if (!path.empty())
        openOutput(kTool, path) << port << '\n';
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
    ServeOptions sopts;
    sopts.log = stderr;
    Files files;
    std::string storeDir;
    if (const char *env = std::getenv("REPRO_RESULT_STORE"))
        storeDir = env;
    const CliSpec cli = {
        kTool,
        "lbpserved — resident sweep daemon (lbp-serve-v1)",
        {
            {"--host", nullptr, "<addr>", "bind address (default 127.0.0.1)",
             cliText(sopts.host)},
            {"--port", nullptr, "<N>",
             "TCP port; 0 = kernel-assigned (default 0)",
             cliCount(sopts.port)},
            {"--port-file", nullptr, "<path>",
             "write the bound port (for port 0)", cliText(files.portFile)},
            {"--store", nullptr, "<dir>",
             "persistent result store directory (default\n"
             "$REPRO_RESULT_STORE; empty = memory only)",
             cliText(storeDir)},
            {"--jobs", nullptr, "<N>",
             "workers per sweep and suite build (default\n"
             "REPRO_JOBS, else hardware concurrency)",
             cliCount(sopts.jobs)},
            {"--max-queue", nullptr, "<N>",
             "max requests queued or running (default 8)",
             cliCount(sopts.maxQueue)},
            {"--max-cells", nullptr, "<N>",
             "max cells queued or running (default 131072)",
             cliCount(sopts.maxCells)},
            {"--queue-timeout", nullptr, "<secs>",
             "max wait in the queue (default 600)",
             cliSeconds(sopts.queueTimeoutSeconds)},
            {"--event-log", nullptr, "<path>",
             "append the server's JSON-lines event log\n"
             "(serve_* records plus every sweep's events)",
             cliText(files.eventLog)},
            {"--metrics-port", nullptr, "<N>",
             "serve Prometheus text exposition over HTTP on\n"
             "this port; 0 = kernel-assigned (default off)",
             cliCount(sopts.metricsPort, 65535)},
            {"--metrics-port-file", nullptr, "<path>",
             "write the bound metrics port (for\n"
             "--metrics-port 0)",
             cliText(files.metricsPortFile)},
            {"--heartbeat", nullptr, "<secs>",
             "emit a heartbeat event-log record every N\n"
             "seconds (default off)",
             cliSeconds(sopts.heartbeatSeconds)},
            {"--store-gc-age", nullptr, "<secs>",
             "idle GC: evict store entries older than this\n"
             "(default off)",
             cliSeconds(sopts.storeGc.maxAgeSeconds)},
            {"--store-gc-bytes", nullptr, "<N>",
             "idle GC: then cap the store at N bytes, oldest\n"
             "first (default off)",
             cliCount(sopts.storeGc.maxBytes)},
            {"--store-gc-interval", nullptr, "<secs>",
             "seconds between idle GC passes (default 60)",
             cliSeconds(sopts.gcIntervalSeconds)},
            {"--trace-out", nullptr, "<path>",
             "write per-request service spans as Chrome\n"
             "trace JSON at exit",
             cliText(files.traceOut)},
            {"--quiet", nullptr, nullptr,
             "suppress the [lbpserved] log lines",
             cliAssign(sopts.log, nullptr)},
        }};
    if (const std::optional<int> rc = parseCli(cli, argc, argv))
        return *rc;
    // Fixed at start-up, so a malformed REPRO_JOBS stops the daemon
    // before it opens a file or binds a port.
    sopts.jobs = resolveJobs(sopts.jobs);

    ResultStore store(storeDir);
    sopts.store = storeDir.empty() ? nullptr : &store;
    std::ofstream eventLog;
    if (!files.eventLog.empty()) {
        eventLog = openOutput(kTool, files.eventLog, std::ios::app);
        sopts.eventLog = &eventLog;
    }
    std::ofstream traceOut;
    if (!files.traceOut.empty()) {
        traceOut = openOutput(kTool, files.traceOut);
        sopts.traceOut = &traceOut;
    }

    Server server(sopts);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "%s: %s\n", kTool, error.c_str());
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

    std::printf("lbpserved: listening on %s:%u\n", sopts.host.c_str(),
                static_cast<unsigned>(server.port()));
    if (server.metricsPort())
        std::printf("lbpserved: metrics on %s:%u\n", sopts.host.c_str(),
                    static_cast<unsigned>(server.metricsPort()));
    std::fflush(stdout);
    writePort(files.portFile, server.port());
    writePort(files.metricsPortFile, server.metricsPort());

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
