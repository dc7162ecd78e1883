/**
 * @file
 * The benchmark's own arithmetic on hand-built inputs: quantiles and
 * their sample counts, self time and coverage over nested spans, and
 * the per-op consistency checks (a single flipped output byte must
 * count as a failed op). Run with `python3 perfbench/run.py
 * --self-test`.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bench_core.hh"

namespace pb = perfbench;

namespace {

std::vector<double>
oneTo(unsigned n)
{
    std::vector<double> v;
    for (unsigned i = n; i >= 1; --i)  // unsorted on purpose
        v.push_back(i);
    return v;
}

pb::Span
span(const char *name, double start, double end, int parent,
     std::uint64_t op = 0)
{
    pb::Span s;
    s.name = name;
    s.startUs = start;
    s.endUs = end;
    s.parent = parent;
    s.op = op;
    return s;
}

} // namespace

TEST(Quantile, NearestRankWithSampleCounts)
{
    const pb::Quantile p90 = pb::quantile(oneTo(100), 0.9);
    EXPECT_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.samples, 100u);
    EXPECT_EQ(p90.beyond, 10u);  // enough tail to report a p90

    const pb::Quantile p50 = pb::quantile(oneTo(100), 0.5);
    EXPECT_EQ(p50.value, 50.0);
    EXPECT_EQ(p50.beyond, 50u);

    const pb::Quantile small = pb::quantile(oneTo(20), 0.9);
    EXPECT_EQ(small.value, 18.0);
    EXPECT_EQ(small.beyond, 2u);  // too few beyond it to trust

    EXPECT_EQ(pb::quantile(oneTo(7), 1.0).value, 7.0);
    EXPECT_EQ(pb::quantile({}, 0.5).samples, 0u);
}

TEST(Quantile, MedianUsesMidpointForEvenCounts)
{
    EXPECT_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(pb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(pb::median({}), 0.0);
}

TEST(Quantile, RoundSumsPairOpsOfEveryKind)
{
    // local, served, local, served, local: the third round is
    // incomplete and must not count.
    const std::vector<double> r =
        pb::roundSums({{0.070, 0.072, 0.071}, {0.080, 0.090}});
    ASSERT_EQ(r.size(), 2u);
    EXPECT_DOUBLE_EQ(r[0], 0.150);
    EXPECT_DOUBLE_EQ(r[1], 0.162);
    EXPECT_EQ(pb::roundSums({{1.0, 2.0, 3.0}}),
              (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_TRUE(pb::roundSums({}).empty());
    EXPECT_TRUE(pb::roundSums({{1.0}, {}}).empty());
}

TEST(Spans, CoveredUnionClipsAndMergesOverlaps)
{
    EXPECT_EQ(pb::coveredUs({{0, 10}, {5, 15}, {20, 30}}, 0, 100), 25.0);
    EXPECT_EQ(pb::coveredUs({{0, 10}, {2, 3}}, 0, 100), 10.0);
    EXPECT_EQ(pb::coveredUs({{-5, 5}, {95, 120}}, 0, 100), 10.0);
    EXPECT_EQ(pb::coveredUs({}, 0, 100), 0.0);
}

TEST(Spans, SelfTimeSubtractsOnlyDirectChildren)
{
    // op [0,100) > runSweep [10,80) > grandchild [20,30);
    //           > csv [70,90) overlaps runSweep by 10.
    std::vector<pb::Span> s = {
        span("op.x", 0, 100, -1),
        span("sim.runSweep", 10, 80, 0),
        span("core.run", 20, 30, 1),
        span("sim.csv", 70, 90, 0),
    };
    const std::vector<double> self = pb::selfTimesUs(s);
    EXPECT_DOUBLE_EQ(self[0], 100.0 - 80.0);  // union [10,90)
    EXPECT_DOUBLE_EQ(self[1], 70.0 - 10.0);
    EXPECT_DOUBLE_EQ(self[2], 10.0);
    EXPECT_DOUBLE_EQ(self[3], 20.0);
    EXPECT_DOUBLE_EQ(pb::childCoverage(s, 0), 0.8);
    EXPECT_DOUBLE_EQ(pb::childCoverage(s, 1), 10.0 / 70.0);
    EXPECT_DOUBLE_EQ(pb::childCoverage(s, 2), 0.0);  // a leaf

    const auto sum = pb::summarizeSpans(s);
    EXPECT_EQ(sum.at("sim.runSweep").calls, 1u);
    EXPECT_DOUBLE_EQ(sum.at("op.x").selfUs, 20.0);
}

TEST(Spans, RecorderNestsByCallOrderAndIsInertWhenOff)
{
    pb::SpanRecorder off(false);
    EXPECT_EQ(off.begin("a.b", 1), -1);
    off.end(-1);
    EXPECT_TRUE(off.spans().empty());

    pb::SpanRecorder rec(true);
    {
        pb::ScopedSpan outer(rec, "op.a", 7);
        pb::ScopedSpan inner(rec, "sim.b", 7);
    }
    { pb::ScopedSpan next(rec, "op.c", 8); }
    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[2].parent, -1);
    EXPECT_GE(rec.spans()[1].startUs, rec.spans()[0].startUs);
    EXPECT_LE(rec.spans()[1].endUs, rec.spans()[0].endUs);

    std::ostringstream os;
    rec.writeChromeTrace(os, "test");
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"sim.b\",\"cat\":\"sim\""),
              std::string::npos);
}

TEST(Checks, IdenticalOpsPass)
{
    const std::string bytes = "config,workload\nbaseline,Server:0\n";
    pb::OpOutput op{"sweep", pb::digestHex(bytes), {{"cells", 88}}, ""};
    pb::OpExpectation ex{pb::digestHex(bytes), {{"cells", 88}}};
    const pb::CheckResult r = pb::checkOps({op, op, op}, {{"sweep", ex}});
    EXPECT_EQ(r.attempted, 3u);
    EXPECT_EQ(r.failed, 0u);
}

TEST(Checks, OneFlippedByteIsAFailedOp)
{
    const std::string bytes = "config,workload\nbaseline,Server:0\n";
    std::string flipped = bytes;
    flipped[17] ^= 0x01;
    const pb::OpOutput good{"sweep", pb::digestHex(bytes), {}, ""};
    const pb::OpOutput bad{"sweep", pb::digestHex(flipped), {}, ""};
    ASSERT_NE(good.digest, bad.digest);
    const pb::CheckResult r = pb::checkOps(
        {good, bad, good}, {{"sweep", {pb::digestHex(bytes), {}}}});
    EXPECT_EQ(r.attempted, 3u);
    EXPECT_EQ(r.failed, 1u);
    ASSERT_EQ(r.problems.size(), 1u);
    EXPECT_EQ(r.problems[0].rfind("op 1 ", 0), 0u);
}

TEST(Checks, CountsMustRepeatAndMatchRequirements)
{
    const std::string d = pb::digestHex("x");
    const pb::OpOutput a{"local", d, {{"cells_simulated", 0}, {"b", 5}},
                         ""};
    const pb::OpOutput drift{"local", d,
                             {{"cells_simulated", 0}, {"b", 6}}, ""};
    const pb::OpOutput simulated{"local", d,
                                 {{"cells_simulated", 3}, {"b", 5}}, ""};
    const pb::OpOutput errored{"local", "", {}, "rejected: queue_full"};
    const pb::OpOutput stranger{"served", d, {}, ""};
    const pb::CheckResult r = pb::checkOps(
        {a, drift, simulated, errored, stranger},
        {{"local", {d, {{"cells_simulated", 0}}}}});
    EXPECT_EQ(r.attempted, 5u);
    EXPECT_EQ(r.failed, 4u);  // all but the first
}

TEST(Result, LineHasExactlyTheFourKeys)
{
    const std::string line = pb::resultLine(
        true, 12, 0,
        {{"setup_s", 0.8127, "s", 3, false},
         {"sim.cells_simulated", 88, "count", 1, true}});
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
              "\"metrics\": {\"setup_s\": {\"value\": "
              "0.81269999999999998, \"unit\": \"s\"}, "
              "\"sim.cells_simulated\": {\"value\": 88, \"unit\": "
              "\"count\"}}}");
}
