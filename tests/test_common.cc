/**
 * @file
 * Unit tests for the common substrate: saturating counters, RNG,
 * set-associative table, statistics helpers, the environment count
 * reader, JSON number and string output, and line reassembly over
 * loopback TCP.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/count.hh"
#include "common/jsonl.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/set_assoc.hh"
#include "common/socket.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"

using namespace lbp;

// ---------------------------------------------------------------------
// SatCounter
// ---------------------------------------------------------------------

class SatCounterWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SatCounterWidth, SaturatesAtBounds)
{
    const unsigned bits = GetParam();
    SatCounter c(bits);
    for (unsigned i = 0; i < (2u << bits); ++i)
        c.increment();
    EXPECT_EQ(c.value(), c.max());
    EXPECT_TRUE(c.saturated());
    for (unsigned i = 0; i < (2u << bits); ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_TRUE(c.saturated());
}

TEST_P(SatCounterWidth, TakenThresholdIsMidpoint)
{
    const unsigned bits = GetParam();
    SatCounter c(bits, 0);
    EXPECT_FALSE(c.taken());
    c.set((1u << (bits - 1)) - 1);
    EXPECT_FALSE(c.taken());
    c.set(1u << (bits - 1));
    EXPECT_TRUE(c.taken());
    c.set(c.max());
    EXPECT_TRUE(c.taken());
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 11u));

TEST(SatCounter, UpdateMovesTowardDirection)
{
    SatCounter c(2, 1);
    c.update(true);
    EXPECT_EQ(c.value(), 2u);
    c.update(false);
    c.update(false);
    EXPECT_EQ(c.value(), 0u);
}

// ---------------------------------------------------------------------
// SignedSatCounter
// ---------------------------------------------------------------------

class SignedWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SignedWidth, RangeAndSaturation)
{
    const unsigned bits = GetParam();
    SignedSatCounter c(bits, 0);
    EXPECT_EQ(c.min(), -(1 << (bits - 1)));
    EXPECT_EQ(c.max(), (1 << (bits - 1)) - 1);
    for (int i = 0; i < (2 << bits); ++i)
        c.update(true);
    EXPECT_EQ(c.value(), c.max());
    for (int i = 0; i < (2 << bits); ++i)
        c.update(false);
    EXPECT_EQ(c.value(), c.min());
}

INSTANTIATE_TEST_SUITE_P(Widths, SignedWidth,
                         ::testing::Values(2u, 3u, 7u, 8u));

TEST(SignedSatCounter, NonNegativeReadsTaken)
{
    SignedSatCounter c(4, -1);
    EXPECT_FALSE(c.taken());
    c.update(true);
    EXPECT_TRUE(c.taken());
    EXPECT_EQ(c.magnitude(), 0u);
    c.set(-3);
    EXPECT_EQ(c.magnitude(), 2u);
}

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

TEST(Random, SplitMixIsDeterministic)
{
    EXPECT_EQ(splitmix64(42), splitmix64(42));
    EXPECT_NE(splitmix64(42), splitmix64(43));
}

TEST(Random, XoshiroReproducibleAcrossReseed)
{
    Xoshiro256ss a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    a.reseed(7);
    Xoshiro256ss c(7);
    EXPECT_EQ(a.next(), c.next());
}

TEST(Random, BelowStaysInRange)
{
    Xoshiro256ss rng(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Random, RangeInclusive)
{
    Xoshiro256ss rng(5);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u) << "all values in [3,6] must appear";
}

TEST(Random, ChanceMatchesProbability)
{
    Xoshiro256ss rng(11);
    unsigned hits = 0;
    const unsigned n = 20000;
    for (unsigned i = 0; i < n; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Random, LfsrNeverSticksAtZero)
{
    std::uint64_t state = 0;
    const std::uint16_t first = Lfsr16::step(state);
    EXPECT_NE(first, 0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_NE(Lfsr16::step(state), 0);
}

// ---------------------------------------------------------------------
// SetAssocTable
// ---------------------------------------------------------------------

struct Payload
{
    int v = 0;
};

TEST(SetAssoc, InsertLookupRoundTrip)
{
    SetAssocTable<Payload> t(16, 4);
    auto &way = t.insert(0x1234);
    way.data.v = 99;
    const auto *hit = t.lookup(0x1234);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->data.v, 99);
    EXPECT_EQ(t.lookup(0x9999), nullptr);
}

TEST(SetAssoc, LruEvictsLeastRecentlyUsed)
{
    SetAssocTable<Payload> t(1, 2);  // one set, two ways
    t.insert(0).data.v = 1;
    t.insert(1).data.v = 2;
    // Touch key 0 so key 1 becomes LRU.
    ASSERT_NE(t.lookup(0), nullptr);
    bool victimized = false;
    t.insert(2, &victimized);
    EXPECT_TRUE(victimized);
    EXPECT_NE(t.lookup(0), nullptr) << "recently used entry must stay";
    EXPECT_EQ(t.lookup(1), nullptr) << "LRU entry must be evicted";
}

TEST(SetAssoc, InvalidateRemovesEntry)
{
    SetAssocTable<Payload> t(8, 2);
    t.insert(5);
    EXPECT_NE(t.lookup(5), nullptr);
    t.invalidate(5);
    EXPECT_EQ(t.lookup(5), nullptr);
    t.invalidate(5);  // double-invalidate is a no-op
}

TEST(SetAssoc, KeysMapToDistinctSets)
{
    SetAssocTable<Payload> t(4, 1);
    // Keys 0..3 land in different sets, so all coexist with 1 way.
    for (std::uint64_t k = 0; k < 4; ++k)
        t.insert(k);
    for (std::uint64_t k = 0; k < 4; ++k)
        EXPECT_NE(t.lookup(k), nullptr);
}

TEST(SetAssoc, TagDisambiguatesAliases)
{
    SetAssocTable<Payload> t(4, 2);
    // Keys 1 and 5 share set index 1 but differ in tag.
    t.insert(1).data.v = 10;
    t.insert(5).data.v = 50;
    EXPECT_EQ(t.lookup(1)->data.v, 10);
    EXPECT_EQ(t.lookup(5)->data.v, 50);
}

TEST(SetAssoc, HelpersPowerOf2)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(9), 3u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

TEST(Stats, GeomeanOfRatios)
{
    EXPECT_NEAR(geomean({2.0, 0.5}), 1.0, 1e-12);
    EXPECT_NEAR(geomean({1.1, 1.1, 1.1}), 1.1, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Stats, MeanAndFormatting)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPercent(0.0312, 1), "3.1%");
}

TEST(Stats, TextTableAlignsColumns)
{
    TextTable t({"a", "bbbb"});
    t.addRow({"xxxx", "y"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a     bbbb"), std::string::npos);
    EXPECT_NE(out.find("xxxx  y"), std::string::npos);
}

// ---------------------------------------------------------------------
// envCount: how the REPRO_* counts are read (a malformed value exits 1;
// the cli.* ctest cases pin that message per tool)
// ---------------------------------------------------------------------

TEST(EnvCount, DefaultsWhenUnset)
{
    const char *var = "REPRO_WARMUP";
    unsetenv(var);
    EXPECT_EQ(envCount(var, 40000, 100000), 40000u);
    ASSERT_EQ(setenv(var, "", 1), 0);
    EXPECT_EQ(envCount(var, 40000, 100000), 40000u);
    unsetenv(var);
}

TEST(EnvCount, ReadsOverrides)
{
    const char *var = "REPRO_WARMUP";
    ASSERT_EQ(setenv(var, "12345", 1), 0);
    EXPECT_EQ(envCount(var, 40000, 100000), 12345u);
    ASSERT_EQ(setenv(var, "0", 1), 0);
    EXPECT_EQ(envCount(var, 40000, 100000), 0u);
    ASSERT_EQ(setenv(var, "100000", 1), 0);
    EXPECT_EQ(envCount(var, 40000, 100000), 100000u);
    unsetenv(var);
}

// ---------------------------------------------------------------------
// JSON number and string output
// ---------------------------------------------------------------------

namespace {

/** The printf rendering jsonNumber() must reproduce byte for byte. */
std::string
printfNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The byte-at-a-time stream escaper jsonEscape() replaced; the
 *  run-based one must produce identical bytes. */
std::string
bytewiseEscape(const std::string &s)
{
    std::ostringstream os;
    os << '"';
    for (const char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\b':
            os << "\\b";
            break;
          case '\f':
            os << "\\f";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\r':
            os << "\\r";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (u < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
    return os.str();
}

/** jsonEscape() output, through both of its entry points. */
std::string
escaped(const std::string &s)
{
    std::ostringstream os;
    jsonEscape(os, s);
    EXPECT_EQ(os.str(), jsonQuote(s));
    return os.str();
}

/** Escape, then parse back as a JSON document: must give @p s. */
void
expectParsesBack(const std::string &s)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(escaped(s), v, &err)) << err;
    ASSERT_EQ(v.kind(), JsonValue::Kind::String);
    EXPECT_EQ(v.str(), s);
}

} // namespace

TEST(JsonNumber, MatchesPrintfOnEdgeValues)
{
    const double edges[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        // The largest subnormal.
        DBL_MIN - std::numeric_limits<double>::denorm_min(),
        DBL_MIN,
        -DBL_MIN,
        DBL_MAX,
        -DBL_MAX,
        DBL_EPSILON,
        1.0,
        0.1,
        1.0 / 3.0,
        9007199254740992.0,   // 2^53
        9007199254740994.0,   // 2^53 + 2
        123456789012345678.0,
        18446744073709551616.0,  // 2^64
        1e300,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
    };
    for (const double v : edges)
        EXPECT_EQ(jsonNumber(v), printfNumber(v)) << printfNumber(v);
}

TEST(JsonNumber, MatchesPrintfOnRandomBitPatterns)
{
    Xoshiro256ss rng(0x15C0DE);
    for (int i = 0; i < 100000; ++i) {
        const double v = std::bit_cast<double>(rng.next());
        const std::string want = printfNumber(v);
        ASSERT_EQ(jsonNumber(v), want) << "bits " << std::hex
                                       << std::bit_cast<std::uint64_t>(v);
        // appendJsonNumber appends; it never clears what is there.
        std::string appended(1, 'x');
        appendJsonNumber(appended, v);
        ASSERT_EQ(appended.front(), 'x');
        ASSERT_EQ(appended.substr(1), want);
    }
}

TEST(JsonEscape, EveryByteMatchesBytewiseEscaper)
{
    std::string all;
    for (int b = 0; b < 256; ++b) {
        const std::string one(1, static_cast<char>(b));
        EXPECT_EQ(escaped(one), bytewiseEscape(one)) << "byte " << b;
        expectParsesBack(one);
        all += one;
    }
    EXPECT_EQ(escaped(all), bytewiseEscape(all));
    expectParsesBack(all);
    EXPECT_EQ(escaped(""), "\"\"");
}

TEST(JsonEscape, LongMixedStringsMatchBytewiseEscaper)
{
    // Long runs of plain bytes broken by escapes at random points,
    // escapes back to back, and strings that start or end with one.
    Xoshiro256ss rng(0xE5CA9E);
    for (int round = 0; round < 200; ++round) {
        std::string s;
        const std::uint64_t len = rng.below(4096);
        for (std::uint64_t i = 0; i < len; ++i) {
            const std::uint64_t pick = rng.below(8);
            s += pick == 0 ? static_cast<char>(rng.below(0x20))
                 : pick == 1 ? "\"\\"[rng.below(2)]
                 : pick == 2 ? static_cast<char>(0x80 + rng.below(0x80))
                             : static_cast<char>(0x20 + rng.below(0x5f));
        }
        ASSERT_EQ(escaped(s), bytewiseEscape(s)) << "round " << round;
        expectParsesBack(s);
    }
    // A CSV-sized payload, as the result frame carries.
    std::string csv;
    while (csv.size() < (1u << 20))
        csv += "forward-walk,ISPEC-00,ISPEC,1.2345678901234567,42\n";
    EXPECT_EQ(escaped(csv), bytewiseEscape(csv));
    expectParsesBack(csv);
}

// ---------------------------------------------------------------------
// TcpConn line reassembly
// ---------------------------------------------------------------------

namespace {

/** A connected loopback pair: (client side, server side). */
void
loopbackPair(TcpListener &listener, TcpConn &client, TcpConn &server)
{
    std::string err;
    ASSERT_TRUE(listener.listenOn("127.0.0.1", 0, err)) << err;
    client = tcpConnect("127.0.0.1", listener.boundPort(), err);
    ASSERT_TRUE(client.valid()) << err;
    server = listener.acceptConn();
    ASSERT_TRUE(server.valid());
}

} // namespace

TEST(TcpConn, MegabyteLineInSmallChunksArrivesIntact)
{
    TcpListener listener;
    TcpConn writer, reader;
    loopbackPair(listener, writer, reader);

    std::string big;
    for (std::size_t i = 0; big.size() < (1u << 20) + 17; ++i)
        big += static_cast<char>('a' + i % 26);
    ThreadPool pool(1);
    bool sent = true;
    pool.submit([&] {
        // 1000-byte writes: the reader sees the line grow across
        // many receives before its terminator arrives.
        const std::string_view view(big);
        for (std::size_t off = 0; off < view.size(); off += 1000)
            sent = writer.sendAll(view.substr(off, 1000)) && sent;
        sent = writer.sendAll("\ntail\n") && sent;
    });
    std::string line;
    ASSERT_EQ(reader.readLine(line, 30000), 1);
    EXPECT_EQ(line.size(), big.size());
    EXPECT_TRUE(line == big);
    ASSERT_EQ(reader.readLine(line, 30000), 1);
    EXPECT_EQ(line, "tail");
    pool.wait();
    EXPECT_TRUE(sent);
}

TEST(TcpConn, LinesFromOneWriteComeOutInOrder)
{
    TcpListener listener;
    TcpConn writer, reader;
    loopbackPair(listener, writer, reader);

    ASSERT_TRUE(writer.sendAll("first\nsecond\r\nthird\n"));
    std::string line;
    ASSERT_EQ(reader.readLine(line, 30000), 1);
    EXPECT_EQ(line, "first");
    // The other two are already buffered: no further read is needed.
    ASSERT_TRUE(reader.nextLine(line));
    EXPECT_EQ(line, "second");
    ASSERT_EQ(reader.readLine(line, 30000), 1);
    EXPECT_EQ(line, "third");
    EXPECT_FALSE(reader.nextLine(line));

    // A line split across writes and a poll-driven fill completes.
    ASSERT_TRUE(writer.sendAll("four"));
    ASSERT_EQ(reader.readLine(line, 50), 0);  // no terminator yet
    ASSERT_TRUE(writer.sendAll("th\n"));
    ASSERT_EQ(reader.readLine(line, 30000), 1);
    EXPECT_EQ(line, "fourth");
}
