/**
 * @file
 * The resident sweep daemon's server core.
 *
 * One poll()-driven main loop owns every socket; one single-worker
 * ThreadPool executes sweeps (each sweep fans its cells across its own
 * inner pool, so one request at a time saturates the machine without
 * two sweeps thrashing each other). Identical concurrent requests —
 * same (build fingerprint x suite key x per-config name+key) — are
 * coalesced: one simulation runs and every subscriber receives its
 * event stream and byte-identical result. Admission control bounds
 * the queue in requests and in cells; queued requests expire after a
 * timeout and are dropped when their last subscriber disconnects.
 * SIGTERM (or a `drain` frame) drains gracefully: in-flight and
 * queued work finishes, new submits are rejected, then run() returns.
 *
 * Wire format: docs/SERVER.md (normative). Counters: ServeStats
 * (serve/protocol.hh), exported via serveMetrics().
 */

#ifndef LBP_SERVE_SERVER_HH
#define LBP_SERVE_SERVER_HH

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <memory>
#include <string>

#include "serve/protocol.hh"
#include "sim/result_store.hh"

namespace lbp {

class SuiteCache;

/**
 * Daemon configuration. Pointers are borrowed and optional; null
 * disables the corresponding facility (no store = in-memory only).
 */
struct ServeOptions
{
    std::string host = "127.0.0.1";  ///< bind address (loopback)
    std::uint16_t port = 0;          ///< 0 = kernel-assigned port

    /** Workers per sweep and per suite build; 0 = resolveJobs default. */
    unsigned jobs = 0;

    /** Persistent store shared by every request; null = memory only. */
    ResultStore *store = nullptr;

    /** Suite cache to keep warm; null = the process-wide instance. */
    SuiteCache *cache = nullptr;

    /** Server-side JSON-lines event log (serve_* records plus every
     *  executed sweep's own events); null = off. */
    std::ostream *eventLog = nullptr;

    /** Human-readable log lines ("[lbpserved] ..."); null = quiet. */
    std::FILE *log = nullptr;

    std::size_t maxQueue = 8;  ///< max requests queued or running
    std::uint64_t maxCells = 131072;  ///< max cells queued or running
    double queueTimeoutSeconds = 600.0;  ///< max wait in the queue

    /**
     * Plain-text Prometheus exposition endpoint (--metrics-port);
     * -1 = off, 0 = kernel-assigned (read back via
     * Server::metricsPort()). Bound on `host` next to the protocol
     * port; every HTTP request receives one scrape of all four
     * registries plus the service histograms, then the connection
     * closes.
     */
    int metricsPort = -1;

    /** Heartbeat record interval in the event log; 0 = off. */
    double heartbeatSeconds = 0.0;

    /** Store GC policy applied during idle time; zeroed = off. */
    StoreGcPolicy storeGc;
    /** Seconds between idle-time GC passes (with storeGc set). */
    double gcIntervalSeconds = 60.0;

    /** Chrome-trace sink for per-request service spans (queue wait /
     *  dedup join / simulate / assemble), written at drain;
     *  null = off. */
    std::ostream *traceOut = nullptr;
};

/**
 * The daemon: bind with start(), serve with run() (blocks until a
 * drain completes), stop with requestDrain() — which is
 * async-signal-safe, so SIGTERM handlers may call it directly.
 */
class Server
{
  public:
    explicit Server(const ServeOptions &opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind and listen. False with @p error set on failure. */
    bool start(std::string &error);

    /** Port actually bound (resolves port-0 binds); valid after
     *  start(). */
    std::uint16_t port() const;

    /** Metrics endpoint port actually bound; 0 when the endpoint is
     *  off. Valid after start(). */
    std::uint16_t metricsPort() const;

    /**
     * Serve until a drain (requestDrain(), SIGTERM via a handler
     * calling it, or a client `drain` frame) completes. Returns 0 on
     * a clean drain, 1 on an internal failure.
     */
    int run();

    /**
     * Begin draining: finish accepted work, reject new submits, make
     * run() return. Async-signal-safe (one pipe write); callable from
     * any thread, idempotent.
     */
    void requestDrain();

    /**
     * Counter snapshot. Not synchronized with a running run() loop:
     * read it from the run() thread or after run() returned (tests
     * join the server task first).
     */
    ServeStats stats() const;

    /**
     * Service-latency histogram snapshot, same synchronization caveat
     * as stats().
     */
    ServeHistograms histograms() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace lbp

#endif // LBP_SERVE_SERVER_HH
