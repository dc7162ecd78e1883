#include "sim/suite_cache.hh"

#include <cstdio>

namespace lbp {

namespace {

void
appendField(std::string &out, const char *name, std::uint64_t v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s=%llu;", name,
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
appendCache(std::string &out, const char *name, const CacheConfig &c)
{
    out += name;
    out += '{';
    appendField(out, "kb", c.sizeKB);
    appendField(out, "ways", c.ways);
    appendField(out, "line", c.lineBytes);
    appendField(out, "lat", c.latency);
    appendField(out, "pf", c.nextLinePrefetch ? 1 : 0);
    out += '}';
}

} // namespace

std::string
configKey(const SimConfig &cfg)
{
    std::string k;
    k.reserve(512);

    appendField(k, "warm", cfg.warmupInstrs);
    appendField(k, "meas", cfg.measureInstrs);
    // Of cfg.obs only the audit switch is keyed, because it fills the
    // audit_* columns; its marker appears only when on, so unaudited
    // keys are unchanged. The tracing switches are not keyed (trace-on
    // results are bit-identical to trace-off); a memoized hit therefore
    // carries no ObsRun — callers wanting traces use runSuite directly.
    if (cfg.obs.audit)
        k += "audit;";

    const CoreConfig &c = cfg.core;
    k += "core{";
    appendField(k, "fw", c.fetchWidth);
    appendField(k, "aw", c.allocWidth);
    appendField(k, "rw", c.retireWidth);
    appendField(k, "iw", c.issueWidth);
    appendField(k, "rob", c.robEntries);
    appendField(k, "fq", c.fetchQueueEntries);
    appendField(k, "lq", c.loadQueue);
    appendField(k, "sq", c.storeQueue);
    appendField(k, "fed", c.frontEndDepth);
    appendField(k, "dd", c.deferDepth);
    appendField(k, "btb", c.btbEntries);
    appendField(k, "btbw", c.btbWays);
    appendField(k, "btbp", c.btbMissPenalty);
    appendField(k, "mlpc", c.maxLoadsPerCycle);
    appendField(k, "mspc", c.maxStoresPerCycle);
    appendField(k, "mul", c.mulLatency);
    appendField(k, "fp", c.fpLatency);
    appendCache(k, "l1i", c.mem.l1i);
    appendCache(k, "l1d", c.mem.l1d);
    appendCache(k, "l2", c.mem.l2);
    appendCache(k, "llc", c.mem.llc);
    appendField(k, "memlat", c.mem.memLatency);
    k += '}';

    const TageConfig &t = cfg.tage;
    k += "tage{";
    appendField(k, "bim", t.bimodalLog);
    appendField(k, "ctr", t.ctrBits);
    appendField(k, "u", t.uBits);
    appendField(k, "ph", t.phistBits);
    for (const TageTableConfig &tt : t.tables) {
        appendField(k, "sz", tt.sizeLog);
        appendField(k, "tag", tt.tagBits);
        appendField(k, "h", tt.histLen);
    }
    k += '}';

    appendField(k, "local", cfg.useLocal ? 1 : 0);
    if (cfg.useLocal) {
        // The repair config only exists in simulation when useLocal is
        // set (OooCore builds no scheme otherwise), so baseline runs
        // share one entry regardless of leftover repair fields.
        const RepairConfig &r = cfg.repair;
        k += "repair{";
        appendField(k, "kind", static_cast<std::uint64_t>(r.kind));
        appendField(k, "lk", static_cast<std::uint64_t>(r.localKind));
        appendField(k, "m", r.ports.entries);
        appendField(k, "n", r.ports.readPorts);
        appendField(k, "p", r.ports.bhtWritePorts);
        appendField(k, "coal", r.coalesce ? 1 : 0);
        appendField(k, "lm", r.limitedM);
        appendField(k, "linv", r.limitedInvalidate ? 1 : 0);
        appendField(k, "mspt", r.msSplitPt ? 1 : 0);
        appendField(k, "ffw", r.ffWindow);
        appendField(k, "ch", r.useChooser ? 1 : 0);
        k += "loop{";
        appendField(k, "bht", r.loop.bhtEntries);
        appendField(k, "bhtw", r.loop.bhtWays);
        appendField(k, "pt", r.loop.ptEntries);
        appendField(k, "ptw", r.loop.ptWays);
        appendField(k, "cb", r.loop.ptConfBits);
        appendField(k, "ct", r.loop.ptConfThreshold);
        appendField(k, "cp", r.loop.ptConfPenalty);
        appendField(k, "btag", r.loop.bhtTagBits);
        appendField(k, "ptag", r.loop.ptTagBits);
        k += '}';
        k += "2lvl{";
        appendField(k, "bht", r.twoLevel.bhtEntries);
        appendField(k, "bhtw", r.twoLevel.bhtWays);
        appendField(k, "hist", r.twoLevel.histBits);
        appendField(k, "ctr", r.twoLevel.ctrBits);
        appendField(k, "tag", r.twoLevel.bhtTagBits);
        appendField(k, "conf", r.twoLevel.confMargin);
        k += "}}";
    }
    return k;
}

std::string
suiteKey(const std::vector<Program> &suite)
{
    std::string k;
    k.reserve(suite.size() * 32 + 16);
    appendField(k, "n", suite.size());
    for (const Program &p : suite) {
        k += p.name;
        k += '|';
        appendField(k, "b", p.blocks.size());
        appendField(k, "br", p.branches.size());
        appendField(k, "si", p.staticInstCount());
    }
    return k;
}

const SuiteResult *
SuiteCache::find(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : it->second.get();
}

const SuiteResult &
SuiteCache::insert(const std::string &key, SuiteResult res)
{
    auto owned = std::make_unique<SuiteResult>(std::move(res));
    std::lock_guard<std::mutex> lk(mu_);
    auto [it, inserted] = map_.emplace(key, std::move(owned));
    (void)inserted;
    return *it->second;
}

std::size_t
SuiteCache::entries() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return map_.size();
}

SuiteCache &
SuiteCache::process()
{
    static SuiteCache cache;
    return cache;
}

} // namespace lbp
