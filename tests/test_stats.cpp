/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "sim/stats.hpp"

namespace {

using namespace quest::sim;

TEST(Stats, ScalarAccumulates)
{
    StatGroup g("g");
    Scalar &s = g.scalar("count", "a counter");
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, VectorTracksBucketsAndTotal)
{
    StatGroup g("g");
    Vector &v = g.vector("lanes", "per-lane counts", 3);
    v[0] = 1;
    v[1] = 2;
    v[2] = 4;
    EXPECT_DOUBLE_EQ(v.total(), 7.0);
    EXPECT_DOUBLE_EQ(v.at(1), 2.0);
}

TEST(Stats, HistogramMeanAndStddev)
{
    StatGroup g("g");
    Histogram &h = g.histogram("lat", "latency", 0, 100, 10);
    for (double v : { 10.0, 20.0, 30.0 })
        h.sample(v);
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_NEAR(h.mean(), 20.0, 1e-9);
    EXPECT_NEAR(h.stddev(), 8.1649, 1e-3);
    EXPECT_DOUBLE_EQ(h.minSample(), 10.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 30.0);
}

TEST(Stats, HistogramStddevStableForLargeOffsets)
{
    // Regression for the naive E[x^2] - E[x]^2 formulation: with a
    // mean of 1e9 and unit spread, the two terms agree to ~18
    // significant digits and their difference is pure cancellation
    // noise (the old code returned 0, or NaN from a negative
    // variance). The Welford running moments must recover stddev 1.
    StatGroup g("g");
    Histogram &h = g.histogram("lat", "latency", 0, 2e9, 10);
    for (int i = 0; i < 1000; ++i)
        h.sample(1e9 + ((i % 2 == 0) ? 1.0 : -1.0));
    EXPECT_NEAR(h.mean(), 1e9, 1e-3);
    EXPECT_NEAR(h.stddev(), 1.0, 1e-6);
}

TEST(Stats, HistogramWeightedSamplesMatchRepeated)
{
    // sample(v, count) must produce the same moments as count
    // individual sample(v) calls.
    StatGroup g("g");
    Histogram &a = g.histogram("a", "", 0, 100, 10);
    Histogram &b = g.histogram("b", "", 0, 100, 10);
    for (int i = 0; i < 7; ++i)
        a.sample(12.5);
    for (int i = 0; i < 3; ++i)
        a.sample(87.5);
    b.sample(12.5, 7);
    b.sample(87.5, 3);
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_DOUBLE_EQ(a.mean(), b.mean());
    EXPECT_NEAR(a.stddev(), b.stddev(), 1e-12);
}

TEST(Stats, HistogramClampsOutOfRangeSamples)
{
    StatGroup g("g");
    Histogram &h = g.histogram("h", "x", 0, 10, 5);
    h.sample(-5);
    h.sample(100);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    StatGroup g("g");
    Scalar &a = g.scalar("a", "");
    Scalar &b = g.scalar("b", "");
    Formula &ratio = g.formula("ratio", "a per b", [&] {
        return b.value() > 0 ? a.value() / b.value() : 0.0;
    });
    a += 10;
    b += 4;
    EXPECT_DOUBLE_EQ(ratio.value(), 2.5);
    a += 10;
    EXPECT_DOUBLE_EQ(ratio.value(), 5.0);
}

TEST(Stats, GroupDumpContainsAllStats)
{
    StatGroup g("mce0");
    g.scalar("uops", "uops issued") += 7;
    StatGroup child("mce0.icache");
    child.scalar("hits", "cache hits") += 3;
    g.addChild(child);

    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("mce0.uops"), std::string::npos);
    EXPECT_NE(out.find("mce0.icache.hits"), std::string::npos);
}

TEST(Stats, ResetAllResetsChildren)
{
    StatGroup g("g");
    Scalar &a = g.scalar("a", "");
    StatGroup child("g.c");
    Scalar &b = child.scalar("b", "");
    g.addChild(child);
    a += 5;
    b += 5;
    g.resetAll();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    EXPECT_DOUBLE_EQ(b.value(), 0.0);
}

TEST(Stats, FindLocatesStatByName)
{
    StatGroup g("g");
    g.scalar("x", "");
    EXPECT_NE(g.find("x"), nullptr);
    EXPECT_NE(g.find("g.x"), nullptr);
    EXPECT_EQ(g.find("y"), nullptr);
}

TEST(Stats, HistogramPercentileEmptyReturnsSentinel)
{
    StatGroup g("g");
    Histogram &h = g.histogram("h", "", 0, 100, 10);
    // The UB this guards: the old percentile walked the bucket
    // array unconditionally; on an empty histogram it must instead
    // return the documented sentinel without touching any bucket.
    EXPECT_TRUE(std::isnan(h.percentile(0.0)));
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
    EXPECT_TRUE(std::isnan(h.percentile(1.0)));
    EXPECT_TRUE(std::isnan(Histogram::emptySentinel()));
}

TEST(Stats, HistogramPercentileSingleSampleIsThatSample)
{
    StatGroup g("g");
    Histogram &h = g.histogram("h", "", 0, 100, 10);
    h.sample(42.0);
    for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.percentile(q), 42.0) << "q=" << q;
}

TEST(Stats, HistogramPercentileIsMonotoneAndClamped)
{
    StatGroup g("g");
    Histogram &h = g.histogram("h", "", 0, 100, 10);
    for (int v = 10; v <= 90; v += 10)
        h.sample(double(v));
    double prev = h.percentile(0.0);
    for (double q = 0.1; q <= 1.0; q += 0.1) {
        const double cur = h.percentile(q);
        EXPECT_GE(cur, prev) << "q=" << q;
        prev = cur;
    }
    // Clamped to the observed sample range, not the bucket range.
    EXPECT_GE(h.percentile(0.0), 10.0);
    EXPECT_LE(h.percentile(1.0), 90.0);
    // Out-of-range q clamps instead of misbehaving.
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(Stats, HistogramPercentileResetReturnsToSentinel)
{
    StatGroup g("g");
    Histogram &h = g.histogram("h", "", 0, 100, 10);
    h.sample(50.0);
    EXPECT_FALSE(std::isnan(h.percentile(0.5)));
    h.reset();
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
}

TEST(Stats, VisitValuesCoversScalarsVectorsAndChildren)
{
    StatGroup g("g");
    Scalar &s = g.scalar("s", "");
    s += 3;
    Vector &v = g.vector("v", "", 2);
    v.subnames({"a", "b"});
    v[0] += 1;
    v[1] += 2;
    StatGroup child("g.c");
    Scalar &cs = child.scalar("cs", "");
    cs += 7;
    g.addChild(child);

    std::map<std::string, double> seen;
    g.visitValues([&](const std::string &name, double value) {
        seen[name] = value;
    });
    EXPECT_DOUBLE_EQ(seen.at("g.s"), 3.0);
    EXPECT_DOUBLE_EQ(seen.at("g.v::a"), 1.0);
    EXPECT_DOUBLE_EQ(seen.at("g.v::b"), 2.0);
    EXPECT_DOUBLE_EQ(seen.at("g.v::total"), 3.0);
    EXPECT_DOUBLE_EQ(seen.at("g.c.cs"), 7.0);
}

TEST(Stats, WilsonIntervalBracketsTheRate)
{
    // 10 / 100 at z = 1.96: the textbook interval [0.0552, 0.1744].
    const Interval ci = wilsonInterval(10, 100);
    EXPECT_NEAR(ci.lo, 0.0552, 1e-4);
    EXPECT_NEAR(ci.hi, 0.1744, 1e-4);
    // Zero hits keep a nonzero upper end; all hits reach 1.
    const Interval none = wilsonInterval(0, 50);
    EXPECT_EQ(none.lo, 0.0);
    EXPECT_GT(none.hi, 0.0);
    EXPECT_DOUBLE_EQ(wilsonInterval(50, 50).hi, 1.0);
    const Interval empty = wilsonInterval(0, 0);
    EXPECT_EQ(empty.lo, 0.0);
    EXPECT_EQ(empty.hi, 1.0);
}

} // namespace
