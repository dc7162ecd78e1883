#include "bench_core.hh"

#include "common/jsonl.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace perfbench {

Quantile
quantile(std::vector<double> samples, double q)
{
    Quantile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    q = std::clamp(q, 1e-12, 1.0);
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    // Rank counted from 1; the tiny slack keeps q*n exact for
    // products like 0.9*100 that land a hair above an integer.
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    out.value = samples[rank - 1];
    out.beyond = samples.size() - rank;
    return out;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<double>
roundSums(const std::vector<std::vector<double>> &perKind)
{
    if (perKind.empty())
        return {};
    std::size_t rounds = SIZE_MAX;
    for (const std::vector<double> &k : perKind)
        rounds = std::min(rounds, k.size());
    std::vector<double> out(rounds, 0.0);
    for (const std::vector<double> &k : perKind)
        for (std::size_t r = 0; r < rounds; ++r)
            out[r] += k[r];
    return out;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
SpanRecorder::begin(std::string name, std::uint64_t op)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = std::move(name);
    s.op = op;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startUs = nowUs();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].endUs = nowUs();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
SpanRecorder::writeChromeTrace(std::ostream &os,
                               const std::string &processName) const
{
    const std::vector<double> self = selfTimesUs(spans_);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
          "\"args\":{\"name\":";
    lbp::jsonEscape(os, processName);
    os << "}}";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::size_t dot = s.name.find('.');
        os << ",\n{\"name\":";
        lbp::jsonEscape(os, s.name);
        os << ",\"cat\":";
        lbp::jsonEscape(os, s.name.substr(0, dot));
        std::snprintf(buf, sizeof buf,
                      ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"op\":%llu,\"parent\":%d,"
                      "\"self_us\":%.3f}}",
                      s.startUs, s.durUs(),
                      static_cast<unsigned long long>(s.op), s.parent,
                      self[i]);
        os << buf;
    }
    os << "\n]}\n";
}

double
coveredUs(std::vector<std::pair<double, double>> intervals, double lo,
          double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0;
    double reach = lo;  // everything below reach is already counted
    for (const auto &[a, b] : intervals) {
        const double from = std::max(a, reach);
        const double to = std::min(b, hi);
        if (to > from) {
            total += to - from;
            reach = to;
        }
    }
    return total;
}

namespace {

std::vector<std::vector<int>>
childrenOf(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> kids(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            kids[static_cast<std::size_t>(p)].push_back(
                static_cast<int>(i));
    }
    return kids;
}

double
childCoveredUs(const std::vector<Span> &spans,
               const std::vector<int> &kids, const Span &parent)
{
    std::vector<std::pair<double, double>> iv;
    iv.reserve(kids.size());
    for (const int k : kids)
        iv.emplace_back(spans[static_cast<std::size_t>(k)].startUs,
                        spans[static_cast<std::size_t>(k)].endUs);
    return coveredUs(std::move(iv), parent.startUs, parent.endUs);
}

} // namespace

std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    const auto kids = childrenOf(spans);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].durUs() -
                  childCoveredUs(spans, kids[i], spans[i]);
    return self;
}

double
childCoverage(const std::vector<Span> &spans, int id)
{
    const Span &s = spans.at(static_cast<std::size_t>(id));
    std::vector<int> kids;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent == id)
            kids.push_back(static_cast<int>(i));
    const double dur = s.durUs();
    return dur > 0.0 ? childCoveredUs(spans, kids, s) / dur : 1.0;
}

std::map<std::string, SpanSummary>
summarizeSpans(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimesUs(spans);
    std::map<std::string, SpanSummary> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanSummary &row = out[spans[i].name];
        ++row.calls;
        row.totalUs += spans[i].durUs();
        row.selfUs += self[i];
    }
    return out;
}

std::string
digestHex(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

CheckResult
checkOps(const std::vector<OpOutput> &ops,
         const std::map<std::string, OpExpectation> &expect)
{
    CheckResult res;
    std::map<std::string, const Counters *> firstCounters;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const OpOutput &op = ops[i];
        ++res.attempted;
        std::string why;
        const auto ex = expect.find(op.kind);
        if (!op.error.empty()) {
            why = op.error;
        } else if (ex == expect.end()) {
            why = "no expectation for op kind '" + op.kind + "'";
        } else if (op.digest != ex->second.digest) {
            why = "output digest " + op.digest + " != reference " +
                  ex->second.digest;
        } else {
            for (const auto &[name, value] : ex->second.required) {
                const auto it = std::find_if(
                    op.counters.begin(), op.counters.end(),
                    [&](const auto &c) { return c.first == name; });
                if (it == op.counters.end() || it->second != value) {
                    why = "count " + name + " is " +
                          (it == op.counters.end()
                               ? std::string("missing")
                               : std::to_string(it->second)) +
                          ", must be " + std::to_string(value);
                    break;
                }
            }
            const auto first = firstCounters.find(op.kind);
            if (why.empty() && first == firstCounters.end()) {
                firstCounters[op.kind] = &op.counters;
            } else if (why.empty() && *first->second != op.counters) {
                why = "work counts differ from the first " + op.kind +
                      " op";
            }
        }
        if (!why.empty()) {
            ++res.failed;
            res.problems.push_back("op " + std::to_string(i) + " (" +
                                   op.kind + "): " + why);
        }
    }
    return res;
}

std::string
formatNumber(double value, bool integral)
{
    char buf[64];
    if (integral && value >= 0.0 && value < 1.8e19)
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(value));
    else
        std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
resultLine(bool correct, std::size_t attempted, std::size_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (i)
            os << ", ";
        lbp::jsonEscape(os, m.name);
        os << ": {\"value\": " << formatNumber(m.value, m.integral)
           << ", \"unit\": ";
        lbp::jsonEscape(os, m.unit);
        os << '}';
    }
    os << "}}";
    return os.str();
}

} // namespace perfbench
