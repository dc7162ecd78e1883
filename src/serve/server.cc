#include "serve/server.hh"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <utility>
#include <vector>

#include "common/jsonl.hh"
#include "common/socket.hh"
#include "common/telemetry.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/result_store.hh"
#include "sim/suite_cache.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"

namespace lbp {

namespace {

const char *
outcomeName(SweepCell::Outcome o)
{
    switch (o) {
      case SweepCell::Outcome::Simulated:
        return "simulated";
      case SweepCell::Outcome::StoreHit:
        return "store_hit";
      case SweepCell::Outcome::CacheHit:
        return "cache_hit";
    }
    return "unknown";
}

/**
 * std::streambuf that hands every completed '\n'-terminated line to a
 * sink callback — the bridge from runSweep()'s eventLog ostream to the
 * daemon's per-subscriber event fan-out. The sweep serializes its own
 * event writes, so the sink runs on one thread at a time.
 */
class LineSinkBuf : public std::streambuf
{
  public:
    explicit LineSinkBuf(std::function<void(std::string)> sink)
        : sink_(std::move(sink))
    {}

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (ch != traits_type::eof()) {
            const char c = traits_type::to_char_type(ch);
            xsputn(&c, 1);
        }
        return ch;
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        // Hand over every completed line; keep the unterminated tail.
        const char *end = s + n;
        while (const char *nl = static_cast<const char *>(std::memchr(
                   s, '\n', static_cast<std::size_t>(end - s)))) {
            line_.append(s, nl);
            sink_(std::move(line_));
            line_.clear();
            s = nl + 1;
        }
        line_.append(s, end);
        return n;
    }

  private:
    std::function<void(std::string)> sink_;
    std::string line_;
};

/** Render the scalars of @p reg as a flat {"name":value,...} object. */
std::string
flatCounters(const MetricsRegistry &reg)
{
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const Metric &m : reg.scalars()) {
        if (!first)
            os << ',';
        first = false;
        jsonEscape(os, m.name);
        os << ':';
        if (m.integral)
            os << static_cast<std::uint64_t>(m.value);
        else
            os << jsonNumber(m.value);
    }
    os << '}';
    return os.str();
}

} // namespace

struct Server::Impl
{
    explicit Impl(const ServeOptions &o) : opts(o)
    {
        int fds[2] = {-1, -1};
        if (::pipe(fds) == 0) {
            ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
            ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
            wakeRead = fds[0];
            wakeWrite = fds[1];
        }
    }

    ~Impl()
    {
        if (wakeRead >= 0)
            ::close(wakeRead);
        if (wakeWrite >= 0)
            ::close(wakeWrite);
    }

    // ----- wiring -------------------------------------------------

    struct ClientState
    {
        TcpConn conn;
        bool helloed = false;
        bool dead = false;
    };

    /** A built suite, shared by the resident slot and requests. */
    using SuitePtr = std::shared_ptr<const std::vector<Program>>;

    struct Request
    {
        std::string key;      ///< sweepRequestKey() identity
        SweepSpec spec;
        SuitePtr suite;       ///< read only by this request's sweep
        std::uint64_t cells = 0;
        /** Subscribers as (client fd, request id) pairs. */
        std::vector<std::pair<int, std::string>> subs;
        Stopwatch age;        ///< time since acceptance

        std::string traceId;       ///< request-scoped trace id
        std::uint64_t seq = 0;     ///< request sequence (span tid)
        std::uint64_t acceptUs = 0;    ///< accepted, daemon-relative
        std::uint64_t dispatchUs = 0;  ///< handed to the executor
        /** Accept times of dedup joins (spans end at delivery). */
        std::vector<std::uint64_t> dedupJoinUs;
    };
    using ReqPtr = std::shared_ptr<Request>;

    struct ResultPayload
    {
        SweepStats stats;
        std::string body;   ///< result-frame tail after the id field
        /** Per-config results (cache-owned) for the run aggregate. */
        std::vector<const SuiteResult *> configResults;
        bool failed = false;
        std::string error;
    };

    ServeOptions opts;
    TcpListener listener;
    TcpListener metricsListener;  ///< HTTP scrape endpoint (optional)
    int wakeRead = -1;
    int wakeWrite = -1;

    std::map<int, ClientState> clients;  ///< keyed by descriptor
    std::deque<ReqPtr> queue;
    ReqPtr running;

    /**
     * The most recently built suite and the options that built it.
     * Repeat submits of one selection reuse it; another selection
     * replaces it. A request holds its own pointer, so replacing the
     * slot never pulls a suite from under a running sweep.
     */
    SuitePtr residentSuite;
    SuiteOptions residentOpts;

    bool draining = false;
    Stopwatch drainSw;
    ServeStats st;

    ServeHistograms hist;          ///< service-latency distributions
    SweepStats sweepTotals;        ///< lifetime fold of executed sweeps
    RunAggregate runAgg;           ///< lifetime fold of served runs
    std::vector<ServiceSpan> spans;  ///< per-request Chrome-trace spans
    std::uint64_t reqSeq = 0;      ///< request counter (trace minting)
    Stopwatch upSw;                ///< daemon uptime / span clock
    Stopwatch hbSw;                ///< time since the last heartbeat
    Stopwatch gcSw;                ///< time since the last GC pass

    // Executor -> main-loop channel (guarded by chMu; the wake pipe
    // makes poll() notice).
    std::mutex chMu;
    std::vector<std::string> chLines;
    bool chDone = false;
    ResultPayload chPayload;

    // Declared last so its destructor joins the worker while the
    // channel and options above are still alive.
    ThreadPool exec{1};

    // ----- helpers ------------------------------------------------

    void
    log(const std::string &msg)
    {
        if (opts.log) {
            std::fprintf(opts.log, "[lbpserved] %s\n", msg.c_str());
            std::fflush(opts.log);
        }
    }

    void
    serveEvent(const std::string &line)
    {
        if (opts.eventLog) {
            *opts.eventLog << line << '\n';
            opts.eventLog->flush();
        }
    }

    std::size_t
    pendingDepth() const
    {
        return queue.size() + (running ? 1 : 0);
    }

    /** Daemon-relative microseconds (the service-span clock). */
    std::uint64_t
    nowUs() const
    {
        return static_cast<std::uint64_t>(upSw.seconds() * 1e6);
    }

    static std::uint64_t
    msBetween(std::uint64_t begin_us, std::uint64_t end_us)
    {
        return end_us > begin_us ? (end_us - begin_us) / 1000 : 0;
    }

    static void
    foldSweepStats(SweepStats &into, const SweepStats &s)
    {
        into.cellsTotal += s.cellsTotal;
        into.cellsSimulated += s.cellsSimulated;
        into.cellsStoreHit += s.cellsStoreHit;
        into.cellsCacheHit += s.cellsCacheHit;
        into.storeHits += s.storeHits;
        into.storeMisses += s.storeMisses;
        into.storeStale += s.storeStale;
        into.storeWrites += s.storeWrites;
        into.simInstrs += s.simInstrs;
        into.wallSeconds += s.wallSeconds;
        into.cellWallSeconds += s.cellWallSeconds;
    }

    bool
    gcEnabled() const
    {
        return opts.store && (opts.storeGc.maxAgeSeconds > 0.0 ||
                              opts.storeGc.maxBytes > 0);
    }

    void
    sendTo(ClientState &c, const std::string &frame)
    {
        if (c.dead)
            return;
        if (!c.conn.sendAll(frame))
            c.dead = true;
    }

    void
    sendError(ClientState &c, ServeError e, const std::string &msg)
    {
        std::ostringstream os;
        os << "{\"type\":\"error\",\"code\":\"" << serveErrorCode(e)
           << "\",\"message\":";
        jsonEscape(os, msg);
        os << "}\n";
        sendTo(c, os.str());
    }

    void
    sendRejected(ClientState &c, const std::string &id, ServeError e,
                 const std::string &msg)
    {
        std::ostringstream os;
        os << "{\"type\":\"rejected\",\"id\":";
        jsonEscape(os, id);
        os << ",\"code\":\"" << serveErrorCode(e)
           << "\",\"message\":";
        jsonEscape(os, msg);
        os << "}\n";
        sendTo(c, os.str());
    }

    void
    wake()
    {
        if (wakeWrite >= 0) {
            const char b = 'W';
            [[maybe_unused]] const ssize_t n =
                ::write(wakeWrite, &b, 1);
        }
    }

    // ----- executor side ------------------------------------------

    void
    postLine(std::string line)
    {
        {
            std::lock_guard<std::mutex> lk(chMu);
            chLines.push_back(std::move(line));
        }
        wake();
    }

    void
    execute(const Request &req)
    {
        ResultPayload p;
        try {
            LineSinkBuf buf(
                [this](std::string l) { postLine(std::move(l)); });
            std::ostream events(&buf);
            SweepOptions so;
            so.jobs = opts.jobs;
            so.store = opts.store;
            so.cache = opts.cache;
            so.eventLog = &events;
            so.traceId = req.traceId;
            const SweepResult res =
                runSweep(*req.suite, req.spec.configs, so);
            p.stats = res.stats;
            p.configResults = res.configResults;
            p.body = renderResultBody(res, req.spec.configs);
        } catch (const std::exception &e) {
            p.failed = true;
            p.error = e.what();
        }
        {
            std::lock_guard<std::mutex> lk(chMu);
            chPayload = std::move(p);
            chDone = true;
        }
        wake();
    }

    static std::string
    renderResultBody(const SweepResult &res,
                     const std::vector<SweepConfig> &configs)
    {
        const std::size_t nc = configs.size();
        const std::size_t nw = nc ? res.cells.size() / nc : 0;
        std::ostringstream os;
        os << ",\"cells\":" << res.stats.cellsTotal
           << ",\"counters\":";
        MetricsRegistry reg;
        registerMetrics(reg, sweepMetrics(), res.stats);
        os << flatCounters(reg);
        os << ",\"configs\":[";
        for (std::size_t c = 0; c < nc; ++c) {
            double wall = 0.0;
            for (std::size_t w = 0; w < nw; ++w)
                wall += res.cells[c * nw + w].wallSeconds;
            const SweepCell::Outcome outcome =
                nw ? res.cells[c * nw].outcome
                   : SweepCell::Outcome::Simulated;
            os << (c ? "," : "") << "{\"name\":";
            jsonEscape(os, configs[c].name);
            os << ",\"label\":";
            jsonEscape(os, configLabel(configs[c].cfg));
            os << ",\"key\":";
            jsonEscape(os, res.configKeys[c]);
            os << ",\"outcome\":\"" << outcomeName(outcome)
               << "\",\"wall_s\":" << jsonNumber(wall) << '}';
        }
        os << "],\"csv\":";
        std::ostringstream csv;
        writeSweepCsv(csv, res, configs);
        jsonEscape(os, csv.view());
        os << ",\"manifest\":";
        std::ostringstream man;
        writeSweepManifest(man, res, configs);
        jsonEscape(os, man.view());
        os << '}';
        return std::move(os).str();
    }

    // ----- main-loop side -----------------------------------------

    void
    beginDrain()
    {
        if (draining)
            return;
        draining = true;
        drainSw.reset();
        std::ostringstream msg;
        msg << "draining (" << pendingDepth() << " pending request"
            << (pendingDepth() == 1 ? "" : "s") << ")";
        log(msg.str());
        serveEvent("{\"event\":\"drain_begin\",\"pending\":" +
                   std::to_string(pendingDepth()) + "}");
    }

    void
    drainWakePipe()
    {
        char buf[64];
        while (true) {
            const ssize_t n = ::read(wakeRead, buf, sizeof(buf));
            if (n <= 0)
                break;
            for (ssize_t i = 0; i < n; ++i)
                if (buf[i] == 'D')
                    beginDrain();
        }
    }

    void
    acceptClient()
    {
        TcpConn conn = listener.acceptConn();
        if (!conn.valid())
            return;
        const int fd = conn.fd();
        ClientState cs;
        cs.conn = std::move(conn);
        clients.emplace(fd, std::move(cs));
        ++st.clientsConnected;
        serveEvent("{\"event\":\"client_connect\",\"fd\":" +
                   std::to_string(fd) + "}");
    }

    void
    dropSubscriptions(int fd)
    {
        const auto without = [fd](ReqPtr &req) {
            auto &subs = req->subs;
            subs.erase(std::remove_if(subs.begin(), subs.end(),
                                      [fd](const auto &s) {
                                          return s.first == fd;
                                      }),
                       subs.end());
        };
        if (running)
            without(running);
        for (auto it = queue.begin(); it != queue.end();) {
            without(*it);
            if ((*it)->subs.empty()) {
                ++st.requestsCancelled;
                serveEvent("{\"event\":\"request_cancelled\","
                           "\"cells\":" +
                           std::to_string((*it)->cells) + "}");
                it = queue.erase(it);
            } else {
                ++it;
            }
        }
    }

    void
    reapClients()
    {
        for (auto it = clients.begin(); it != clients.end();) {
            if (!it->second.dead) {
                ++it;
                continue;
            }
            const int fd = it->first;
            dropSubscriptions(fd);
            it = clients.erase(it);
            ++st.clientsDisconnected;
            serveEvent("{\"event\":\"client_disconnect\",\"fd\":" +
                       std::to_string(fd) + "}");
        }
    }

    void
    expireQueued()
    {
        for (auto it = queue.begin(); it != queue.end();) {
            ReqPtr req = *it;
            if (req->age.seconds() <= opts.queueTimeoutSeconds) {
                ++it;
                continue;
            }
            for (const auto &sub : req->subs) {
                auto cit = clients.find(sub.first);
                if (cit != clients.end())
                    sendRejected(cit->second, sub.second,
                                 ServeError::Timeout,
                                 "request timed out in the queue");
            }
            ++st.requestsTimedOut;
            serveEvent("{\"event\":\"request_timeout\",\"cells\":" +
                       std::to_string(req->cells) + "}");
            it = queue.erase(it);
        }
    }

    void
    maybeDispatch()
    {
        if (running || queue.empty())
            return;
        running = queue.front();
        queue.pop_front();
        running->dispatchUs = nowUs();
        hist.queueWaitMs.sample(
            msBetween(running->acceptUs, running->dispatchUs));
        spans.push_back({running->traceId, "queue", running->seq,
                         running->acceptUs, running->dispatchUs});
        ++st.sweepsExecuted;
        serveEvent("{\"event\":\"sweep_begin\",\"trace\":" +
                   jsonQuote(running->traceId) + ",\"cells\":" +
                   std::to_string(running->cells) +
                   ",\"subscribers\":" +
                   std::to_string(running->subs.size()) + "}");
        ReqPtr req = running;
        exec.submit([this, req] { execute(*req); });
    }

    void
    deliverEventLine(const std::string &line)
    {
        serveEvent(line);
        if (!running)
            return;
        for (const auto &sub : running->subs) {
            auto it = clients.find(sub.first);
            if (it == clients.end())
                continue;
            std::ostringstream os;
            os << "{\"type\":\"event\",\"id\":";
            jsonEscape(os, sub.second);
            os << ",\"data\":" << line << "}\n";
            sendTo(it->second, os.str());
            ++st.eventsStreamed;
        }
    }

    void
    completeRunning(ResultPayload &payload)
    {
        ReqPtr req = running;
        running.reset();
        if (!req)
            return;
        const std::uint64_t execDoneUs = nowUs();
        st.cellsSimulated += payload.stats.cellsSimulated;
        st.cellsStoreHit += payload.stats.cellsStoreHit;
        st.cellsCacheHit += payload.stats.cellsCacheHit;
        if (!payload.failed) {
            foldSweepStats(sweepTotals, payload.stats);
            for (const SuiteResult *sr : payload.configResults) {
                if (!sr)
                    continue;
                for (const RunResult &r : sr->runs)
                    runAgg.add(r);
            }
        }
        for (const auto &sub : req->subs) {
            auto it = clients.find(sub.first);
            if (it == clients.end())
                continue;
            if (payload.failed) {
                ++st.requestsRejected;
                sendRejected(it->second, sub.second,
                             ServeError::Internal, payload.error);
                continue;
            }
            std::string frame = "{\"type\":\"result\",\"id\":" +
                                jsonQuote(sub.second) + payload.body +
                                "\n";
            sendTo(it->second, frame);
            ++st.requestsCompleted;
            st.cellsServed += payload.stats.cellsTotal;
        }
        const std::uint64_t deliveredUs = nowUs();
        hist.executeMs.sample(msBetween(req->dispatchUs, execDoneUs));
        hist.requestTotalMs.sample(
            msBetween(req->acceptUs, deliveredUs));
        spans.push_back({req->traceId, "simulate", req->seq,
                         req->dispatchUs, execDoneUs});
        spans.push_back({req->traceId, "assemble", req->seq,
                         execDoneUs, deliveredUs});
        for (const std::uint64_t joinUs : req->dedupJoinUs)
            spans.push_back({req->traceId, "dedup", req->seq, joinUs,
                             deliveredUs});
        serveEvent("{\"event\":\"sweep_end\",\"trace\":" +
                   jsonQuote(req->traceId) + ",\"cells\":" +
                   std::to_string(req->cells) + ",\"simulated\":" +
                   std::to_string(payload.stats.cellsSimulated) +
                   ",\"store_hit\":" +
                   std::to_string(payload.stats.cellsStoreHit) +
                   ",\"cache_hit\":" +
                   std::to_string(payload.stats.cellsCacheHit) + "}");
    }

    void
    drainChannel()
    {
        std::vector<std::string> lines;
        bool done = false;
        ResultPayload payload;
        {
            std::lock_guard<std::mutex> lk(chMu);
            lines.swap(chLines);
            done = chDone;
            chDone = false;
            if (done)
                payload = std::move(chPayload);
        }
        for (const std::string &l : lines)
            deliverEventLine(l);
        if (done)
            completeRunning(payload);
    }

    // ----- message handling ---------------------------------------

    void
    handleHello(ClientState &c, const JsonValue &msg)
    {
        const JsonValue *proto = msg.member("protocol");
        if (!proto || proto->str() != kServeProtocol) {
            sendError(c, ServeError::BadProtocol,
                      std::string("this server speaks ") +
                          kServeProtocol);
            c.dead = true;
            return;
        }
        c.helloed = true;
        std::ostringstream os;
        os << "{\"type\":\"hello\",\"protocol\":\"" << kServeProtocol
           << "\",\"server\":\"lbpserved\",\"fingerprint\":";
        jsonEscape(os, buildFingerprint());
        os << ",\"git_sha\":";
        jsonEscape(os, gitShaString());
        os << ",\"jobs\":" << resolveJobs(opts.jobs) << "}\n";
        sendTo(c, os.str());
    }

    void
    handleSubmit(int fd, ClientState &c, const JsonValue &msg)
    {
        ++st.requestsReceived;
        const JsonValue *idv = msg.member("id");
        if (!idv || idv->kind() != JsonValue::Kind::String ||
            idv->str().empty()) {
            sendError(c, ServeError::BadRequest,
                      "submit needs a non-empty string id");
            return;
        }
        const std::string id = idv->str();
        if (draining) {
            ++st.requestsRejected;
            sendRejected(c, id, ServeError::Draining,
                         "server is draining; no new submits");
            return;
        }
        std::string trace;
        if (const JsonValue *v = msg.member("trace")) {
            if (v->kind() != JsonValue::Kind::String) {
                ++st.requestsRejected;
                sendRejected(c, id, ServeError::BadRequest,
                             "trace must be a string");
                return;
            }
            trace = v->str();
        }

        // `suite` (or "all"), `warmup` and `instr` go through the spec
        // grammar's strict count parser; anything else is a bad
        // request.
        const auto count = [&](const char *key, std::uint64_t &out,
                               std::uint64_t max, const char *alt) {
            const JsonValue *v = msg.member(key);
            if (!v || (v->kind() == JsonValue::Kind::Number &&
                       parseSpecCount(v->number(), out, max)))
                return true;
            ++st.requestsRejected;
            sendRejected(c, id, ServeError::BadRequest,
                         std::string(key) + " must be an integer in [0, " +
                             std::to_string(max) + "]" + alt);
            return false;
        };
        constexpr std::uint64_t u64Max =
            std::numeric_limits<std::uint64_t>::max();
        SweepSpec spec;
        std::uint64_t cap = spec.suite;
        const JsonValue *sv = msg.member("suite");
        spec.fullSuite = sv && sv->kind() == JsonValue::Kind::String &&
                         sv->str() == "all";
        if ((!spec.fullSuite &&
             !count("suite", cap, std::numeric_limits<unsigned>::max(),
                    " or \"all\"")) ||
            !count("warmup", spec.warmupInstrs, u64Max, "") ||
            !count("instr", spec.measureInstrs, u64Max, ""))
            return;
        spec.suite = spec.fullSuite ? 0 : static_cast<unsigned>(cap);
        std::string specText;
        if (const JsonValue *v = msg.member("spec")) {
            if (v->kind() != JsonValue::Kind::String) {
                ++st.requestsRejected;
                sendRejected(c, id, ServeError::BadRequest,
                             "spec must be a string");
                return;
            }
            specText = v->str();
        }
        std::string err;
        if (!parseSweepSpecText(specText, spec, err)) {
            ++st.requestsRejected;
            sendRejected(c, id, ServeError::BadSpec, err);
            return;
        }
        finalizeSweepSpec(spec);
        const SuitePtr suite = suiteFor(spec);
        const std::uint64_t cells =
            static_cast<std::uint64_t>(suite->size()) *
            spec.configs.size();
        if (cells == 0) {
            ++st.requestsRejected;
            sendRejected(c, id, ServeError::BadRequest,
                         "empty sweep (no configs or no workloads)");
            return;
        }
        const std::string key = sweepRequestKey(*suite, spec.configs);

        // Cross-client dedup: an identical request that is queued or
        // in flight gains a subscriber instead of a new simulation.
        ReqPtr joined;
        if (running && running->key == key)
            joined = running;
        if (!joined) {
            for (const ReqPtr &q : queue) {
                if (q->key == key) {
                    joined = q;
                    break;
                }
            }
        }
        if (joined) {
            joined->subs.emplace_back(fd, id);
            joined->dedupJoinUs.push_back(nowUs());
            ++st.requestsDeduped;
            ++st.requestsAccepted;
            sendAccepted(c, id, cells, true, joined->traceId);
            serveEvent("{\"event\":\"submit\",\"outcome\":\"dedup\","
                       "\"trace\":" +
                       jsonQuote(joined->traceId) + ",\"cells\":" +
                       std::to_string(cells) + "}");
            return;
        }

        // Admission control: bounded queue, bounded pending cells.
        const std::size_t depth = pendingDepth();
        if (depth >= opts.maxQueue) {
            ++st.requestsRejected;
            sendRejected(c, id, ServeError::QueueFull,
                         "request queue is full (" +
                             std::to_string(opts.maxQueue) + ")");
            serveEvent("{\"event\":\"submit\",\"outcome\":"
                       "\"queue_full\"}");
            return;
        }
        std::uint64_t pendingCells = running ? running->cells : 0;
        for (const ReqPtr &q : queue)
            pendingCells += q->cells;
        if (pendingCells + cells > opts.maxCells) {
            ++st.requestsRejected;
            sendRejected(c, id, ServeError::TooManyCells,
                         "pending cell budget exceeded (" +
                             std::to_string(pendingCells) + " + " +
                             std::to_string(cells) + " > " +
                             std::to_string(opts.maxCells) + ")");
            serveEvent("{\"event\":\"submit\",\"outcome\":"
                       "\"too_many_cells\"}");
            return;
        }

        ReqPtr req = std::make_shared<Request>();
        req->key = key;
        req->spec = std::move(spec);
        req->suite = suite;
        req->cells = cells;
        req->subs.emplace_back(fd, id);
        ++reqSeq;
        req->seq = reqSeq;
        req->traceId =
            trace.empty() ? "srv-" + std::to_string(reqSeq) : trace;
        req->acceptUs = nowUs();
        queue.push_back(req);
        ++st.requestsAccepted;
        hist.queueDepth.sample(pendingDepth());
        if (depth + 1 > st.queueHighWater)
            st.queueHighWater = depth + 1;
        sendAccepted(c, id, cells, false, req->traceId);
        serveEvent("{\"event\":\"submit\",\"outcome\":\"accepted\","
                   "\"trace\":" +
                   jsonQuote(req->traceId) + ",\"cells\":" +
                   std::to_string(cells) + ",\"queue_depth\":" +
                   std::to_string(pendingDepth()) + "}");
    }

    /** The resident suite for @p spec's selection, built on
     *  opts.jobs workers (the event loop waits) and made resident
     *  when the selection changed. */
    SuitePtr
    suiteFor(const SweepSpec &spec)
    {
        const SuiteOptions want = specSuiteOptions(spec);
        // Every SuiteOptions field: equal options build equal suites.
        if (!residentSuite || want.seed != residentOpts.seed ||
            want.maxWorkloads != residentOpts.maxWorkloads) {
            residentSuite = std::make_shared<const std::vector<Program>>(
                buildSpecSuite(spec, opts.jobs));
            residentOpts = want;
            ++st.suiteBuilds;
        }
        return residentSuite;
    }

    void
    sendAccepted(ClientState &c, const std::string &id,
                 std::uint64_t cells, bool dedup,
                 const std::string &trace)
    {
        std::ostringstream os;
        os << "{\"type\":\"accepted\",\"id\":";
        jsonEscape(os, id);
        os << ",\"trace_id\":";
        jsonEscape(os, trace);
        os << ",\"cells\":" << cells << ",\"dedup\":"
           << (dedup ? "true" : "false")
           << ",\"queue_depth\":" << pendingDepth() << "}\n";
        sendTo(c, os.str());
    }

    void
    handleStats(ClientState &c)
    {
        MetricsRegistry reg;
        registerMetrics(reg, serveMetrics(), st);
        sendTo(c, "{\"type\":\"stats\",\"counters\":" +
                      flatCounters(reg) + "}\n");
    }

    /**
     * One Prometheus scrape of the whole service: all four descriptor
     * tables (run aggregate, lifetime sweep totals, daemon counters,
     * store counters), the service-latency histograms, and the
     * per-fingerprint store series. Shared by the `metrics` frame and
     * the HTTP endpoint, so both expose identical bytes.
     */
    std::string
    renderExposition()
    {
        ++st.scrapesServed;
        MetricsRegistry reg;
        runAgg.addTo(reg);
        registerMetrics(reg, sweepMetrics(), sweepTotals);
        registerMetrics(reg, serveMetrics(), st);
        if (opts.store)
            registerMetrics(reg, storeMetrics(), opts.store->stats());
        reg.histogram("serve_queue_wait_ms", "ms",
                      "submit accept to dispatch wait per request",
                      hist.queueWaitMs);
        reg.histogram("serve_execute_ms", "ms",
                      "sweep execution wall time per executed sweep",
                      hist.executeMs);
        reg.histogram("serve_request_total_ms", "ms",
                      "submit accept to result delivery per request",
                      hist.requestTotalMs);
        reg.histogram("serve_queue_depth", "requests",
                      "queued+running depth sampled at each accept",
                      hist.queueDepth);
        std::ostringstream os;
        writePrometheus(os, reg);
        if (opts.store) {
            const std::map<std::string, FingerprintStats> fps =
                opts.store->fingerprintStats();
            std::vector<std::pair<std::string, std::uint64_t>> hits,
                misses, stale, bytes;
            for (const auto &kv : fps) {
                hits.emplace_back(kv.first, kv.second.hits);
                misses.emplace_back(kv.first, kv.second.misses);
                stale.emplace_back(kv.first, kv.second.stale);
                bytes.emplace_back(kv.first, kv.second.bytes);
            }
            writePrometheusLabeled(
                os, "result_store_fingerprint_hits",
                "Store hits by build fingerprint.", "fingerprint",
                hits);
            writePrometheusLabeled(
                os, "result_store_fingerprint_misses",
                "Store misses by build fingerprint.", "fingerprint",
                misses);
            writePrometheusLabeled(
                os, "result_store_fingerprint_stale",
                "Stale evictions by the evicted entry's recorded "
                "fingerprint.",
                "fingerprint", stale);
            writePrometheusLabeled(
                os, "result_store_fingerprint_bytes",
                "Bytes loaded plus persisted by build fingerprint.",
                "fingerprint", bytes);
        }
        return os.str();
    }

    void
    handleMetrics(ClientState &c)
    {
        std::ostringstream os;
        os << "{\"type\":\"metrics\",\"exposition\":";
        jsonEscape(os, renderExposition());
        os << "}\n";
        sendTo(c, os.str());
    }

    void
    handleScrape()
    {
        TcpConn conn = metricsListener.acceptConn();
        if (!conn.valid())
            return;
        // The response is the same whatever the request line says, but
        // replying before the request arrives would close the socket
        // with bytes in flight — the resulting RST can discard the
        // response on the client side. Wait (briefly) for the request
        // line, drain the rest, then answer (HTTP/1.0 with
        // Connection: close — no keep-alive state to track).
        std::string requestLine;
        conn.readLine(requestLine, 1000);
        conn.fillAvailable();
        conn.sendAll("HTTP/1.0 200 OK\r\n"
                     "Content-Type: text/plain; version=0.0.4\r\n"
                     "Connection: close\r\n\r\n" +
                     renderExposition());
        conn.closeConn();
    }

    void
    maybeHeartbeat()
    {
        if (opts.heartbeatSeconds <= 0.0 ||
            hbSw.seconds() < opts.heartbeatSeconds)
            return;
        hbSw.reset();
        ++st.heartbeatsEmitted;
        std::ostringstream os;
        os << "{\"event\":\"heartbeat\",\"uptime_s\":"
           << jsonNumber(upSw.seconds())
           << ",\"queue_depth\":" << queue.size()
           << ",\"in_flight\":" << (running ? 1 : 0)
           << ",\"clients\":" << clients.size()
           << ",\"requests_completed\":" << st.requestsCompleted;
        if (opts.store) {
            const StoreStats ss = opts.store->stats();
            const std::uint64_t looks = ss.hits + ss.misses;
            os << ",\"store_hits\":" << ss.hits
               << ",\"store_misses\":" << ss.misses
               << ",\"store_hit_ratio\":"
               << jsonNumber(looks ? static_cast<double>(ss.hits) /
                                         static_cast<double>(looks)
                                   : 0.0)
               << ",\"store_written_bytes\":" << ss.bytesWritten;
        }
        os << '}';
        serveEvent(os.str());
    }

    void
    maybeGc()
    {
        if (!gcEnabled() || running || !queue.empty() ||
            gcSw.seconds() < opts.gcIntervalSeconds)
            return;
        gcSw.reset();
        ++st.gcPasses;
        const std::vector<StoreAuditRecord> evicted =
            opts.store->gc(opts.storeGc);
        // The GC ran between sweeps, so its audit records belong to
        // the daemon's event log, not to the next request's manifest —
        // drain the store-side trail we just produced.
        opts.store->takeAudit();
        std::uint64_t bytes = 0;
        for (const StoreAuditRecord &rec : evicted) {
            bytes += rec.bytes;
            std::ostringstream os;
            os << "{\"event\":\"store_evict\",\"file\":";
            jsonEscape(os, rec.file);
            os << ",\"reason\":\"" << rec.reason
               << "\",\"fingerprint\":";
            jsonEscape(os, rec.fingerprint);
            os << ",\"bytes\":" << rec.bytes
               << ",\"age_s\":" << jsonNumber(rec.ageSeconds) << '}';
            serveEvent(os.str());
        }
        serveEvent("{\"event\":\"store_gc\",\"evicted\":" +
                   std::to_string(evicted.size()) + ",\"bytes\":" +
                   std::to_string(bytes) + "}");
        if (!evicted.empty()) {
            std::ostringstream msg;
            msg << "store gc evicted " << evicted.size()
                << " entries (" << bytes << " bytes)";
            log(msg.str());
        }
    }

    void
    handleLine(int fd, ClientState &c, const std::string &line)
    {
        JsonValue msg;
        std::string perr;
        if (!JsonValue::parse(line, msg, &perr) ||
            msg.kind() != JsonValue::Kind::Object) {
            sendError(c, ServeError::BadJson,
                      perr.empty() ? "frame is not a JSON object"
                                   : perr);
            return;
        }
        const JsonValue *tv = msg.member("type");
        const std::string type = tv ? tv->str() : "";
        if (type == "hello") {
            handleHello(c, msg);
            return;
        }
        if (!c.helloed) {
            sendError(c, ServeError::NeedHello,
                      "say hello before anything else");
            return;
        }
        if (type == "submit") {
            handleSubmit(fd, c, msg);
        } else if (type == "stats") {
            handleStats(c);
        } else if (type == "metrics") {
            handleMetrics(c);
        } else if (type == "drain") {
            beginDrain();
            sendTo(c, "{\"type\":\"draining\",\"pending\":" +
                          std::to_string(pendingDepth()) + "}\n");
        } else if (type == "bye") {
            sendTo(c, "{\"type\":\"bye\"}\n");
            c.dead = true;
        } else {
            sendError(c, ServeError::BadRequest,
                      "unknown frame type '" + type + "'");
        }
    }

    void
    serviceClient(int fd)
    {
        auto it = clients.find(fd);
        if (it == clients.end())
            return;
        ClientState &c = it->second;
        const int got = c.conn.fillAvailable();
        std::string line;
        while (!c.dead && c.conn.nextLine(line))
            handleLine(fd, c, line);
        if (got < 0)
            c.dead = true;
    }

    // ----- top level ----------------------------------------------

    bool
    start(std::string &error)
    {
        if (wakeRead < 0 || wakeWrite < 0) {
            error = "cannot create wake pipe";
            return false;
        }
        if (!listener.listenOn(opts.host, opts.port, error))
            return false;
        if (opts.metricsPort >= 0 &&
            !metricsListener.listenOn(
                opts.host,
                static_cast<std::uint16_t>(opts.metricsPort), error))
            return false;
        return true;
    }

    int
    run()
    {
        if (listener.fd() < 0)
            return 1;
        {
            std::ostringstream msg;
            msg << "serving on " << opts.host << ':'
                << listener.boundPort() << " (jobs="
                << resolveJobs(opts.jobs) << ", store="
                << (opts.store ? opts.store->dir() : "none") << ")";
            log(msg.str());
        }
        serveEvent("{\"event\":\"serve_start\",\"fingerprint\":" +
                   jsonQuote(buildFingerprint()) + ",\"port\":" +
                   std::to_string(listener.boundPort()) + "}");

        const bool haveMetrics = metricsListener.fd() >= 0;
        while (true) {
            std::vector<pollfd> fds;
            std::vector<int> cfds;
            fds.push_back(
                pollfd{listener.fd(),
                       static_cast<short>(POLLIN), 0});
            fds.push_back(
                pollfd{wakeRead, static_cast<short>(POLLIN), 0});
            const std::size_t mIdx = fds.size();
            if (haveMetrics)
                fds.push_back(pollfd{metricsListener.fd(),
                                     static_cast<short>(POLLIN), 0});
            const std::size_t cBase = fds.size();
            for (const auto &kv : clients) {
                fds.push_back(
                    pollfd{kv.first, static_cast<short>(POLLIN), 0});
                cfds.push_back(kv.first);
            }
            const int rc = ::poll(fds.data(),
                                  static_cast<nfds_t>(fds.size()),
                                  pollTimeoutMs());
            if (rc < 0 && errno != EINTR) {
                log(std::string("poll failed: ") +
                    std::strerror(errno));
                return 1;
            }
            if (rc > 0 && (fds[1].revents & POLLIN))
                drainWakePipe();
            drainChannel();
            if (rc > 0 && (fds[0].revents & POLLIN))
                acceptClient();
            if (rc > 0 && haveMetrics && (fds[mIdx].revents & POLLIN))
                handleScrape();
            if (rc > 0) {
                for (std::size_t i = 0; i < cfds.size(); ++i) {
                    const short ev = fds[i + cBase].revents;
                    if (ev & (POLLIN | POLLHUP | POLLERR))
                        serviceClient(cfds[i]);
                }
            }
            reapClients();
            expireQueued();
            maybeHeartbeat();
            maybeGc();
            maybeDispatch();
            if (draining && !running && queue.empty())
                break;
        }

        st.drainSeconds = drainSw.seconds();
        serveEvent("{\"event\":\"serve_exit\",\"drain_s\":" +
                   jsonNumber(st.drainSeconds) + "}");
        {
            std::ostringstream msg;
            msg << "drained in " << jsonNumber(st.drainSeconds)
                << "s; served " << st.requestsCompleted
                << " results (" << st.requestsDeduped
                << " deduped) over " << st.sweepsExecuted
                << " sweeps";
            log(msg.str());
        }
        if (opts.traceOut) {
            writeServiceTrace(*opts.traceOut, spans);
            opts.traceOut->flush();
        }
        for (auto &kv : clients)
            kv.second.conn.closeConn();
        clients.clear();
        listener.closeListener();
        metricsListener.closeListener();
        return 0;
    }

    int
    pollTimeoutMs() const
    {
        // Nearest deadline of the three timers (queue expiry,
        // heartbeat, idle GC); -1 = sleep until a descriptor fires.
        double best = -1.0;
        const auto consider = [&best](double remain_s) {
            double ms = remain_s * 1000.0 + 1.0;
            if (ms < 0.0)
                ms = 0.0;
            if (best < 0.0 || ms < best)
                best = ms;
        };
        if (!queue.empty()) {
            double oldest = 0.0;
            for (const ReqPtr &q : queue) {
                const double a = q->age.seconds();
                if (a > oldest)
                    oldest = a;
            }
            consider(opts.queueTimeoutSeconds - oldest);
        }
        if (opts.heartbeatSeconds > 0.0)
            consider(opts.heartbeatSeconds - hbSw.seconds());
        if (gcEnabled() && !running && queue.empty())
            consider(opts.gcIntervalSeconds - gcSw.seconds());
        if (best < 0.0)
            return -1;
        if (best > 60000.0)
            best = 60000.0;
        return static_cast<int>(best);
    }
};

Server::Server(const ServeOptions &opts)
    : impl_(std::make_unique<Impl>(opts))
{}

Server::~Server() = default;

bool
Server::start(std::string &error)
{
    return impl_->start(error);
}

std::uint16_t
Server::port() const
{
    return impl_->listener.boundPort();
}

std::uint16_t
Server::metricsPort() const
{
    return impl_->metricsListener.fd() >= 0
               ? impl_->metricsListener.boundPort()
               : 0;
}

int
Server::run()
{
    return impl_->run();
}

void
Server::requestDrain()
{
    if (impl_->wakeWrite >= 0) {
        const char b = 'D';
        [[maybe_unused]] const ssize_t n =
            ::write(impl_->wakeWrite, &b, 1);
    }
}

ServeStats
Server::stats() const
{
    return impl_->st;
}

ServeHistograms
Server::histograms() const
{
    return impl_->hist;
}

} // namespace lbp
