// Companion to bad_counters.hh / nested_stats.hh / runner.hh /
// protocol.hh / result_store.hh: the write sites and the one report
// that keep their live counters alive for stats-counter-dead.
// FixtureStats::fixUnread is written here and read nowhere.
#include "bad_counters.hh"
#include "nested_stats.hh"
#include "protocol.hh"
#include "result_store.hh"
#include "runner.hh"

void touchCounters(FixtureStats &st, FixtureCache::FooStats &fs,
                   CoreStats &cs, ServeStats &ss, StoreStats &ts)
{
    st.fixLive += 1;
    ++st.fixUnread;
    fs.fooLookups += 1;
    cs.cycles += 1;
    ss.fixClients += 1;
    ss.fixOrphanServe += 1;
    ts.fixStoreHits += 1;
    ts.fixOrphanStore += 1;
}

unsigned long long reportCounters(const FixtureStats &st,
                                  const FixtureCache::FooStats &fs,
                                  const ServeStats &ss,
                                  const StoreStats &ts)
{
    return st.fixLive + fs.fooLookups + ss.fixOrphanServe +
           ts.fixOrphanStore;
}
