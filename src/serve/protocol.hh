/**
 * @file
 * lbp-serve-v1 protocol constants and the daemon's counter surface.
 *
 * The wire format itself — every frame, field, error code and the
 * connection/server lifecycle — is specified in docs/SERVER.md; that
 * document is normative and this header follows it, not the other way
 * around. What lives here is the part other layers need to name:
 * the protocol identifier, the closed set of error codes, and
 * ServeStats, whose fields are exported one-to-one by the
 * serveMetrics() table (obs/metrics.hh) the same way SweepStats maps
 * onto sweepMetrics().
 */

#ifndef LBP_SERVE_PROTOCOL_HH
#define LBP_SERVE_PROTOCOL_HH

#include <cstdint>

#include "obs/metrics.hh"

namespace lbp {

/** Protocol identifier exchanged in both hello frames. */
inline constexpr const char *kServeProtocol = "lbp-serve-v1";

/**
 * The closed set of protocol error codes (`rejected` and `error`
 * frames carry exactly these in their "code" field; docs/SERVER.md
 * defines when each is sent).
 */
enum class ServeError
{
    BadJson,       ///< line was not a JSON object
    BadProtocol,   ///< hello named an unsupported protocol
    NeedHello,     ///< request before the hello exchange
    BadRequest,    ///< malformed frame (unknown type, missing id...)
    BadSpec,       ///< submit spec text failed to parse
    QueueFull,     ///< admission: request queue at capacity
    TooManyCells,  ///< admission: pending-cell budget exceeded
    Draining,      ///< server is draining; no new submits
    Timeout,       ///< queued request exceeded the queue timeout
    Internal,      ///< accepted request failed while executing
};

/** Wire name of @p e ("bad_json", "queue_full", ...). */
const char *serveErrorCode(ServeError e);

/**
 * Aggregate daemon counters since startup, exported via
 * serveMetrics() (obs/metrics.hh) — the third metric registry next to
 * runMetrics() and sweepMetrics(). The `stats` protocol frame and the
 * daemon's exit summary both render this table; docs/METRICS.md
 * documents every row. Cell-outcome counters aggregate the executed
 * sweeps' own SweepStats, so a warm daemon shows its dedup and cache
 * leverage directly.
 */
struct ServeStats
{
    std::uint64_t clientsConnected = 0;   ///< connections accepted
    std::uint64_t clientsDisconnected = 0;  ///< connections closed
    std::uint64_t requestsReceived = 0;   ///< submit frames parsed
    std::uint64_t requestsAccepted = 0;   ///< accepted replies sent
    std::uint64_t requestsDeduped = 0;    ///< accepted by coalescing
    std::uint64_t requestsRejected = 0;   ///< rejected at submit time
    std::uint64_t requestsTimedOut = 0;   ///< expired while queued
    std::uint64_t requestsCancelled = 0;  ///< dropped (clients gone)
    std::uint64_t requestsCompleted = 0;  ///< result frames delivered
    std::uint64_t sweepsExecuted = 0;     ///< runSweep() invocations
    std::uint64_t eventsStreamed = 0;     ///< event frames sent
    std::uint64_t queueHighWater = 0;     ///< max queued+running depth
    std::uint64_t cellsServed = 0;        ///< cells in delivered results
    std::uint64_t cellsSimulated = 0;     ///< freshly simulated cells
    std::uint64_t cellsStoreHit = 0;      ///< cells from the store
    std::uint64_t cellsCacheHit = 0;      ///< cells from the SuiteCache
    double drainSeconds = 0.0;  ///< drain request -> clean exit
    std::uint64_t scrapesServed = 0;    ///< metrics frames + HTTP scrapes
    std::uint64_t heartbeatsEmitted = 0;  ///< heartbeat event records
    std::uint64_t gcPasses = 0;  ///< idle-time store gc() invocations
    std::uint64_t suiteBuilds = 0;  ///< suites built for submits
};

/**
 * The daemon's service-latency and queue-depth distributions, scraped
 * next to the counters (Prometheus histogram families in the
 * exposition; docs/METRICS.md tables them). Sampled on the request
 * path — microsecond-cheap FixedHistogram updates — and never fed back
 * into scheduling, so serving behavior is identical with or without a
 * scraper attached.
 */
struct ServeHistograms
{
    FixedHistogram queueWaitMs;      ///< submit accept -> dispatch
    FixedHistogram executeMs;        ///< runSweep() wall per sweep
    FixedHistogram requestTotalMs;   ///< submit accept -> result sent
    FixedHistogram queueDepth;       ///< queued+running depth at submit
};

} // namespace lbp

#endif // LBP_SERVE_PROTOCOL_HH
