#include "sim/result_store.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string_view>

#include <unistd.h>

#include "common/logging.hh"

namespace lbp {

namespace {

constexpr const char *kMagic = "lbp-result-store 1";

/** FNV-1a 64-bit over @p s. */
std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), " %" PRIu64, v);
    out += buf;
}

/** Hex-float rendering: exact round trip, no locale dependence. */
void
appendF64(std::string &out, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %a", v);
    out += buf;
}

/**
 * Cursor over one serialized entry held in memory: hands out lines as
 * views, so parsing copies nothing but the workload names.
 */
class EntryLines
{
  public:
    explicit EntryLines(std::string_view text) : rest_(text) {}

    /** Next line without its '\n'; false once the text is used up. */
    bool
    next(std::string_view &line)
    {
        if (rest_.empty())
            return false;
        const std::size_t nl = rest_.find('\n');
        line = rest_.substr(0, nl);
        rest_.remove_prefix(nl == std::string_view::npos ? rest_.size()
                                                         : nl + 1);
        return true;
    }

    /** Next line, which must be @p tag then one space then the rest
     *  (returned in @p rest). */
    bool
    tagged(std::string_view tag, std::string_view &rest)
    {
        std::string_view line;
        if (!next(line) || line.size() <= tag.size() ||
            !line.starts_with(tag) || line[tag.size()] != ' ')
            return false;
        rest = line.substr(tag.size() + 1);
        return true;
    }

    bool atEnd() const { return rest_.empty(); }

  private:
    std::string_view rest_;
};

/** Split the next space-delimited token off the front of @p fields;
 *  false when no non-empty token is left. */
bool
takeToken(std::string_view &fields, std::string_view &tok)
{
    const std::size_t sp = fields.find(' ');
    tok = fields.substr(0, sp);
    fields.remove_prefix(sp == std::string_view::npos ? fields.size()
                                                      : sp + 1);
    return !tok.empty();
}

/** @p tok as plain decimal digits; no sign, no overflow. */
bool
parseU64(std::string_view tok, std::uint64_t &v)
{
    const char *end = tok.data() + tok.size();
    const std::from_chars_result r = std::from_chars(tok.data(), end, v);
    return !tok.empty() && r.ec == std::errc() && r.ptr == end;
}

/**
 * @p tok as printf("%a") writes it: an optional '-', then "inf",
 * "nan", or "0x" and a hex significand with a binary exponent. The
 * prefix is stripped here because std::from_chars' hex format rejects
 * it; inf and nan are mapped by hand so a NaN keeps the exact bits
 * strtod gave it.
 */
bool
parseF64(std::string_view tok, double &v)
{
    const bool neg = tok.starts_with('-');
    if (neg)
        tok.remove_prefix(1);
    if (tok == "inf") {
        v = std::numeric_limits<double>::infinity();
    } else if (tok == "nan") {
        v = std::numeric_limits<double>::quiet_NaN();
    } else {
        if (!tok.starts_with("0x"))
            return false;
        tok.remove_prefix(2);
        // from_chars would take a second sign or an "inf" here.
        if (tok.empty() || !std::isxdigit(static_cast<unsigned char>(
                               tok.front())))
            return false;
        const char *end = tok.data() + tok.size();
        const std::from_chars_result r = std::from_chars(
            tok.data(), end, v, std::chars_format::hex);
        if (r.ec != std::errc() || r.ptr != end)
            return false;
    }
    if (neg)
        v = -v;
    return true;
}

/** Parse exactly the fields of @p line, in order, into @p out. */
bool
parseU64s(std::string_view line,
          std::initializer_list<std::uint64_t *> out)
{
    std::string_view tok;
    for (std::uint64_t *v : out)
        if (!takeToken(line, tok) || !parseU64(tok, *v))
            return false;
    return line.empty();
}

bool
parseF64s(std::string_view line, std::initializer_list<double *> out)
{
    std::string_view tok;
    for (double *v : out)
        if (!takeToken(line, tok) || !parseF64(tok, *v))
            return false;
    return line.empty();
}

/** Workload count a suite key records in its leading "n=<N>;" field. */
bool
suiteKeyRuns(std::string_view suite_key, std::uint64_t &n)
{
    if (!suite_key.starts_with("n="))
        return false;
    suite_key.remove_prefix(2);
    return parseU64(suite_key.substr(0, suite_key.find(';')), n);
}

/** Whole file at @p path into @p text; false when it cannot be read. */
bool
readFile(const std::filesystem::path &path, std::string &text)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return false;
    const std::streamoff size = in.tellg();
    if (size < 0)
        return false;
    text.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    return static_cast<bool>(
        in.read(text.data(), static_cast<std::streamsize>(size)));
}

/** Fingerprint an entry records ("unreadable" when its header cannot
 *  be parsed) — attribution for eviction audits. */
std::string
entryFingerprint(std::string_view text)
{
    EntryLines lines(text);
    std::string_view line, rest;
    if (lines.next(line) && line == kMagic &&
        lines.tagged("fingerprint", rest))
        return std::string(rest);
    return "unreadable";
}

std::string
readEntryFingerprint(const std::filesystem::path &path)
{
    std::string text;
    return readFile(path, text) ? entryFingerprint(text) : "unreadable";
}

/** File size with errors collapsed to zero. */
std::uint64_t
fileBytes(const std::filesystem::path &path)
{
    std::error_code ec;
    const std::uintmax_t sz = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(sz);
}

} // namespace

const std::string &
buildFingerprint()
{
    static const std::string fp = [] {
        std::string f = "store-v1;golden=";
#ifdef LBP_GOLDEN_FIXTURE_HASH
        f += LBP_GOLDEN_FIXTURE_HASH;
#else
        f += "unknown";
#endif
        f += ";compiler=";
        f += __VERSION__;
#ifdef NDEBUG
        f += ";ndebug";
#endif
        return f;
    }();
    return fp;
}

void
serializeSuiteResult(std::ostream &os, const std::string &fingerprint,
                     const std::string &suite_key,
                     const std::string &config_key,
                     const SuiteResult &res)
{
    os << kMagic << '\n'
       << "fingerprint " << fingerprint << '\n'
       << "suite " << suite_key << '\n'
       << "config " << config_key << '\n';
    std::string tel = "telemetry";
    appendU64(tel, res.telemetry.simInstrs);
    tel += ' ';
    tel += res.telemetry.label;
    os << tel << '\n';
    os << "runs " << res.runs.size() << '\n';
    for (const RunResult &r : res.runs) {
        // Workload/category names are space-free by construction
        // (suite.cc "Category:N"); '|' keeps the pair one token each.
        os << "run " << r.workload << '|' << r.category << '\n';
        std::string line = "cs";
        appendU64(line, r.stats.cycles);
        appendU64(line, r.stats.retiredInstrs);
        appendU64(line, r.stats.retiredCond);
        appendU64(line, r.stats.mispredicts);
        appendU64(line, r.stats.earlyResteers);
        appendU64(line, r.stats.wrongPathFetched);
        appendU64(line, r.stats.btbMisses);
        appendU64(line, r.stats.fetchedInstrs);
        os << line << '\n';
        line = "rc";
        appendU64(line, r.overrides);
        appendU64(line, r.overridesCorrect);
        appendU64(line, r.repairs);
        appendU64(line, r.repairWrites);
        appendU64(line, r.earlyResteers);
        appendU64(line, r.earlyResteersWrong);
        appendU64(line, r.uncheckpointedMispredicts);
        appendU64(line, r.deniedPredictions);
        appendU64(line, r.skippedSpecUpdates);
        appendU64(line, r.maxRepairsNeeded);
        os << line << '\n';
        line = "au";
        appendU64(line, r.auditChecks);
        appendU64(line, r.auditViolations);
        appendU64(line, r.auditResyncs);
        appendU64(line, r.auditSkipped);
        appendU64(line, r.auditUncovered);
        os << line << '\n';
        line = "ca";
        appendU64(line, r.cacheAccesses);
        appendU64(line, r.cacheMisses);
        appendU64(line, r.cachePrefetchFills);
        os << line << '\n';
        line = "fp";
        appendF64(line, r.ipc);
        appendF64(line, r.mpki);
        appendF64(line, r.avgRepairsNeeded);
        appendF64(line, r.avgWalkLength);
        appendF64(line, r.avgRepairWrites);
        appendF64(line, r.avgRepairCycles);
        appendF64(line, r.tageKB);
        appendF64(line, r.localKB);
        appendF64(line, r.repairKB);
        os << line << '\n';
    }
    os << "end\n";
}

std::unique_ptr<SuiteResult>
deserializeSuiteResult(std::string_view entry,
                       const std::string &fingerprint,
                       const std::string &suite_key,
                       const std::string &config_key)
{
    EntryLines lines(entry);
    std::string_view line, rest;
    if (!lines.next(line) || line != kMagic)
        return nullptr;
    if (!lines.tagged("fingerprint", rest) || rest != fingerprint)
        return nullptr;
    if (!lines.tagged("suite", rest) || rest != suite_key)
        return nullptr;
    if (!lines.tagged("config", rest) || rest != config_key)
        return nullptr;

    auto res = std::make_unique<SuiteResult>();
    std::string_view tok;
    std::uint64_t simInstrs = 0;
    // The label is the rest of the line and may itself hold spaces.
    if (!lines.tagged("telemetry", rest) || !takeToken(rest, tok) ||
        !parseU64(tok, simInstrs))
        return nullptr;
    res->telemetry.label = std::string(rest);
    // A loaded entry performed no simulation in this process.
    res->telemetry.wallSeconds = 0.0;
    res->telemetry.simInstrs = 0;

    // The run count must be the one the (already matched) suite key
    // records, so a corrupt count can neither pass nor size the
    // allocation below.
    std::uint64_t n = 0, expected = 0;
    if (!lines.tagged("runs", rest) || !parseU64(rest, n) ||
        !suiteKeyRuns(suite_key, expected) || n != expected)
        return nullptr;
    res->runs.resize(n);
    res->telemetry.workloads = n;
    for (RunResult &r : res->runs) {
        if (!lines.tagged("run", rest))
            return nullptr;
        const std::size_t bar = rest.find('|');
        if (bar == std::string_view::npos)
            return nullptr;
        r.workload = std::string(rest.substr(0, bar));
        r.category = std::string(rest.substr(bar + 1));

        if (!lines.tagged("cs", rest) ||
            !parseU64s(rest, {&r.stats.cycles, &r.stats.retiredInstrs,
                              &r.stats.retiredCond, &r.stats.mispredicts,
                              &r.stats.earlyResteers,
                              &r.stats.wrongPathFetched,
                              &r.stats.btbMisses,
                              &r.stats.fetchedInstrs}))
            return nullptr;
        if (!lines.tagged("rc", rest) ||
            !parseU64s(rest, {&r.overrides, &r.overridesCorrect,
                              &r.repairs, &r.repairWrites,
                              &r.earlyResteers, &r.earlyResteersWrong,
                              &r.uncheckpointedMispredicts,
                              &r.deniedPredictions,
                              &r.skippedSpecUpdates,
                              &r.maxRepairsNeeded}))
            return nullptr;
        if (!lines.tagged("au", rest) ||
            !parseU64s(rest, {&r.auditChecks, &r.auditViolations,
                              &r.auditResyncs, &r.auditSkipped,
                              &r.auditUncovered}))
            return nullptr;
        if (!lines.tagged("ca", rest) ||
            !parseU64s(rest, {&r.cacheAccesses, &r.cacheMisses,
                              &r.cachePrefetchFills}))
            return nullptr;
        if (!lines.tagged("fp", rest) ||
            !parseF64s(rest, {&r.ipc, &r.mpki, &r.avgRepairsNeeded,
                              &r.avgWalkLength, &r.avgRepairWrites,
                              &r.avgRepairCycles, &r.tageKB,
                              &r.localKB, &r.repairKB}))
            return nullptr;
    }
    if (!lines.next(line) || line != "end" || !lines.atEnd())
        return nullptr;
    return res;
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {}

std::string
ResultStore::entryFileName(const std::string &fingerprint,
                           const std::string &suite_key,
                           const std::string &config_key)
{
    const std::uint64_t h =
        fnv1a64(fingerprint + '\n' + suite_key + '\n' + config_key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64 ".result", h);
    return buf;
}

std::unique_ptr<SuiteResult>
ResultStore::load(const std::string &suite_key,
                  const std::string &config_key)
{
    const std::string &fp = buildFingerprint();
    const std::filesystem::path path =
        std::filesystem::path(dir_) /
        entryFileName(fp, suite_key, config_key);

    std::lock_guard<std::mutex> lk(mu_);
    std::string text;
    if (!readFile(path, text)) {
        ++stats_.misses;
        ++fps_[fp].misses;
        return nullptr;
    }
    auto res = deserializeSuiteResult(text, fp, suite_key, config_key);
    if (!res) {
        // Stale (old fingerprint / collision / truncation / corrupt
        // field): the entry can never be used again under this build,
        // so remove it — counted, attributed to the fingerprint it
        // recorded, and logged on the audit trail (no more silent
        // unlinks).
        StoreAuditRecord rec;
        rec.file = path.filename().string();
        rec.reason = "stale";
        rec.fingerprint = entryFingerprint(text);
        rec.bytes = text.size();
        ++stats_.stale;
        ++stats_.misses;
        ++fps_[fp].misses;
        ++fps_[rec.fingerprint].stale;
        audit_.push_back(std::move(rec));
        std::error_code ec;
        std::filesystem::remove(path, ec);
        return nullptr;
    }
    ++stats_.hits;
    stats_.bytesRead += text.size();
    FingerprintStats &fstat = fps_[fp];
    ++fstat.hits;
    fstat.bytes += text.size();
    return res;
}

bool
ResultStore::save(const std::string &suite_key,
                  const std::string &config_key, const SuiteResult &res)
{
    const std::string &fp = buildFingerprint();
    const std::filesystem::path dir(dir_);
    const std::filesystem::path path =
        dir / entryFileName(fp, suite_key, config_key);
    // One temp file per save (pid plus a process-wide counter): writers
    // saving the same entry, in this process or another, never share
    // one. The .tmp ending keeps GC away from it.
    static std::atomic<std::uint64_t> saveSeq{0};
    const std::filesystem::path tmp =
        path.string() + "." + std::to_string(::getpid()) + "-" +
        std::to_string(saveSeq.fetch_add(1, std::memory_order_relaxed)) +
        ".tmp";

    std::lock_guard<std::mutex> lk(mu_);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::ostringstream body;
    serializeSuiteResult(body, fp, suite_key, config_key, res);
    const std::string bytes = body.str();
    {
        std::ofstream out(tmp);
        if (!out) {
            warnImpl(("result store: cannot write " + tmp.string())
                         .c_str());
            return false;
        }
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out) {
            warnImpl(("result store: short write to " + tmp.string())
                         .c_str());
            out.close();
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    // Rename-into-place keeps concurrent readers from seeing a torn
    // entry (they either miss or read a complete file).
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warnImpl(("result store: cannot install " + path.string())
                     .c_str());
        std::filesystem::remove(tmp, ec);
        return false;
    }
    ++stats_.writes;
    stats_.bytesWritten += bytes.size();
    fps_[fp].bytes += bytes.size();
    return true;
}

ResultStore::StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

std::map<std::string, FingerprintStats>
ResultStore::fingerprintStats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return fps_;
}

std::vector<StoreAuditRecord>
ResultStore::takeAudit()
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<StoreAuditRecord> out;
    out.swap(audit_);
    return out;
}

std::vector<StoreAuditRecord>
ResultStore::gc(const StoreGcPolicy &policy)
{
    namespace fs = std::filesystem;
    struct Entry
    {
        std::string name;
        std::uint64_t bytes = 0;
        double age = 0.0;
    };
    std::vector<Entry> entries;
    std::error_code ec;
    // Ages come from the filesystem's own clock so a mounted shared
    // store is judged by its server's mtimes, not a local stopwatch.
    const fs::file_time_type now = fs::file_time_type::clock::now();
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        std::error_code fec;
        if (!de.is_regular_file(fec) || fec)
            continue;
        const fs::path &p = de.path();
        if (p.extension() != ".result")
            continue;
        Entry e;
        e.name = p.filename().string();
        e.bytes = fileBytes(p);
        const fs::file_time_type mtime = fs::last_write_time(p, fec);
        if (!fec)
            e.age = std::chrono::duration<double>(now - mtime).count();
        entries.push_back(std::move(e));
    }
    // Deterministic eviction order: oldest first, file name breaking
    // ties — two gc passes over the same tree pick the same victims.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.age != b.age)
                      return a.age > b.age;
                  return a.name < b.name;
              });

    std::uint64_t total = 0;
    for (const Entry &e : entries)
        total += e.bytes;

    std::vector<StoreAuditRecord> evicted;
    std::lock_guard<std::mutex> lk(mu_);
    for (const Entry &e : entries) {
        const char *reason = nullptr;
        if (policy.maxAgeSeconds > 0.0 && e.age > policy.maxAgeSeconds)
            reason = "age";
        else if (policy.maxBytes > 0 && total > policy.maxBytes)
            reason = "size";
        if (!reason)
            continue;
        const fs::path p = fs::path(dir_) / e.name;
        StoreAuditRecord rec;
        rec.file = e.name;
        rec.reason = reason;
        rec.fingerprint = readEntryFingerprint(p);
        rec.bytes = e.bytes;
        rec.ageSeconds = e.age;
        fs::remove(p, ec);
        if (ec) {
            ec.clear();
            continue;
        }
        total -= e.bytes;
        ++stats_.gcEvicted;
        stats_.gcEvictedBytes += e.bytes;
        audit_.push_back(rec);
        evicted.push_back(std::move(rec));
    }
    return evicted;
}

} // namespace lbp
