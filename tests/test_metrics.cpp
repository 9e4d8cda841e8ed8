/**
 * @file
 * Unit tests of the observability metrics registry: instrument
 * semantics (counter, gauge, histogram, timer), name validation,
 * concurrent updates, export formats, and reset behavior.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

using namespace aw;
using namespace aw::obs;

namespace {

TEST(MetricName, Validation)
{
    EXPECT_TRUE(validMetricName("sim.sm.issue_stalls"));
    EXPECT_TRUE(validMetricName("a"));
    EXPECT_TRUE(validMetricName("tuner.qp.iterations"));
    EXPECT_TRUE(validMetricName("hw.nvml_2.samples"));

    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("."));
    EXPECT_FALSE(validMetricName("sim."));
    EXPECT_FALSE(validMetricName(".sim"));
    EXPECT_FALSE(validMetricName("sim..sm"));
    EXPECT_FALSE(validMetricName("Sim.sm"));      // no upper case
    EXPECT_FALSE(validMetricName("sim.sm-stall")); // no dashes
    EXPECT_FALSE(validMetricName("sim.sm stall"));
}

TEST(MetricName, BadNamePanics)
{
    Registry reg;
    EXPECT_DEATH(reg.counter("Bad.Name"), "bad metric name");
}

TEST(MetricName, KindMismatchPanics)
{
    Registry reg;
    reg.counter("x.y");
    EXPECT_DEATH(reg.gauge("x.y"), "is a counter, requested as gauge");
}

TEST(CounterTest, AddAndValue)
{
    Registry reg;
    Counter &c = reg.counter("test.counter");
    EXPECT_EQ(c.value(), 0.0);
    c.add();
    c.add(2.5);
    EXPECT_DOUBLE_EQ(c.value(), 3.5);

    // Find-or-create returns the same instrument.
    EXPECT_EQ(&reg.counter("test.counter"), &c);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(CounterTest, ConcurrentAddsLoseNothing)
{
    Registry reg;
    Counter &c = reg.counter("test.concurrent");
    constexpr int kThreads = 4;
    constexpr int kAddsPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < kAddsPerThread; ++i)
                c.add(1.0);
        });
    for (auto &t : threads)
        t.join();
    EXPECT_DOUBLE_EQ(c.value(), kThreads * kAddsPerThread);
}

TEST(GaugeTest, LastWriteWins)
{
    Registry reg;
    Gauge &g = reg.gauge("test.gauge");
    g.set(4.25);
    g.set(-1.5);
    EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST(HistogramTest, EmptyStatsAreZero)
{
    Histogram h;
    HistogramStats s = h.stats();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.min, 0.0);
    EXPECT_EQ(s.max, 0.0);
    EXPECT_EQ(s.sum, 0.0);
    EXPECT_EQ(h.percentile(50), 0.0);
}

TEST(HistogramTest, ExactCountSumMinMax)
{
    Histogram h;
    for (double v : {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0})
        h.record(v);
    HistogramStats s = h.stats();
    EXPECT_EQ(s.count, 8u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 9.0);
    EXPECT_DOUBLE_EQ(s.sum, 31.0);
    EXPECT_DOUBLE_EQ(s.mean, 31.0 / 8.0);
}

TEST(HistogramTest, PercentilesApproximateWithinBucketWidth)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    // Geometric buckets are ~33% wide; interpolation keeps the error
    // well under one bucket.
    EXPECT_NEAR(h.percentile(50), 500.0, 500.0 * 0.35);
    EXPECT_NEAR(h.percentile(90), 900.0, 900.0 * 0.35);
    EXPECT_NEAR(h.percentile(99), 990.0, 990.0 * 0.35);
    // Percentiles never escape the observed range.
    EXPECT_GE(h.percentile(0), 1.0);
    EXPECT_LE(h.percentile(100), 1000.0);
}

/**
 * The documented quantile error bound (metrics.hpp): the reported
 * p-th percentile and the exact p-th sample quantile always share a
 * geometric bucket, so the relative error is strictly below
 * 10^(1/8) - 1 for any in-span positive sample set. Checked against
 * exact quantiles on a uniform and a lognormal sample (deterministic
 * generators — no std:: distributions, whose output is
 * implementation-defined).
 */
TEST(HistogramTest, HistogramQuantileErrorBound)
{
    const double bound = std::pow(10.0, 1.0 / 8.0) - 1.0; // ~33.4%
    Rng rng(0x9b5);
    auto checkAgainstExact = [&](std::vector<double> samples) {
        Histogram h;
        for (double v : samples)
            h.record(v);
        std::sort(samples.begin(), samples.end());
        for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
            // Exact nearest-rank quantile of the recorded samples.
            const size_t rank = std::min(
                samples.size() - 1,
                static_cast<size_t>(
                    p / 100.0 * static_cast<double>(samples.size())));
            const double exact = samples[rank];
            const double reported = h.percentile(p);
            EXPECT_LT(std::abs(reported - exact) / exact, bound)
                << "p" << p << ": reported " << reported << " vs exact "
                << exact;
        }
    };

    std::vector<double> uniform(5000);
    for (double &v : uniform)
        v = rng.uniform() * 100.0 + 1e-3; // (0, 100], in span
    checkAgainstExact(std::move(uniform));

    // Lognormal via Box-Muller on the deterministic uniform stream:
    // a heavy right tail exercises many decades of buckets.
    std::vector<double> lognormal(5000);
    for (double &v : lognormal) {
        const double u1 = std::max(rng.uniform(), 1e-12);
        const double u2 = rng.uniform();
        const double gauss = std::sqrt(-2.0 * std::log(u1)) *
                             std::cos(2.0 * M_PI * u2);
        v = std::exp(1.5 * gauss); // sigma 1.5: ~6 decades of spread
    }
    checkAgainstExact(std::move(lognormal));
}

TEST(HistogramTest, OutOfRangeValuesClampButStayExactInStats)
{
    Histogram h;
    h.record(1e-15); // below 1e-9 span
    h.record(1e14);  // above 1e12 span
    HistogramStats s = h.stats();
    EXPECT_EQ(s.count, 2u);
    EXPECT_DOUBLE_EQ(s.min, 1e-15);
    EXPECT_DOUBLE_EQ(s.max, 1e14);
}

TEST(HistogramTest, ConcurrentRecords)
{
    Histogram h;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(1.0 + t);
        });
    for (auto &t : threads)
        t.join();
    HistogramStats s = h.stats();
    EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(TimerTest, ScopeRecordsPositiveDuration)
{
    Registry reg;
    Timer &t = reg.timer("test.timer");
    {
        auto scope = t.scope();
        (void)scope;
    }
    EXPECT_EQ(t.count(), 1u);
    EXPECT_GE(t.totalSec(), 0.0);

    auto scope = t.scope();
    scope.stop();
    scope.stop(); // idempotent
    EXPECT_EQ(t.count(), 2u);
}

TEST(RegistryTest, SnapshotIsNameOrdered)
{
    Registry reg;
    reg.counter("z.last");
    reg.gauge("a.first");
    reg.histogram("m.middle");
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a.first");
    EXPECT_EQ(snap[1].name, "m.middle");
    EXPECT_EQ(snap[2].name, "z.last");
    EXPECT_EQ(snap[0].kind, MetricKind::Gauge);
    EXPECT_EQ(snap[1].kind, MetricKind::Histogram);
    EXPECT_EQ(snap[2].kind, MetricKind::Counter);
}

TEST(RegistryTest, JsonExportRoundTrips)
{
    Registry reg;
    reg.counter("sim.kernels").add(3);
    reg.gauge("tuner.training_mape_pct").set(7.25);
    Histogram &h = reg.histogram("hw.nvml.power_w");
    h.record(100.0);
    h.record(200.0);

    JsonValue doc = parseJson(reg.toJson());
    ASSERT_TRUE(doc.isObject());
    EXPECT_DOUBLE_EQ(doc.at("sim.kernels").at("value").asNumber(), 3.0);
    EXPECT_EQ(doc.at("sim.kernels").at("type").asString(), "counter");
    EXPECT_DOUBLE_EQ(
        doc.at("tuner.training_mape_pct").at("value").asNumber(), 7.25);
    const JsonValue &hist = doc.at("hw.nvml.power_w");
    EXPECT_EQ(hist.at("type").asString(), "histogram");
    EXPECT_DOUBLE_EQ(hist.at("count").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(hist.at("min").asNumber(), 100.0);
    EXPECT_DOUBLE_EQ(hist.at("max").asNumber(), 200.0);
    EXPECT_DOUBLE_EQ(hist.at("sum").asNumber(), 300.0);
}

TEST(RegistryTest, CsvExportHasHeaderAndAllRows)
{
    Registry reg;
    reg.counter("a.count").add(2);
    reg.timer("b.time").record(0.5);
    std::string csv = reg.toCsv();
    EXPECT_NE(csv.find("name,kind,count,value,mean,p50,p90,p99,min,max"),
              std::string::npos);
    EXPECT_NE(csv.find("a.count,counter"), std::string::npos);
    EXPECT_NE(csv.find("b.time,timer"), std::string::npos);
}

TEST(RegistryTest, ResetKeepsReferencesValid)
{
    Registry reg;
    Counter &c = reg.counter("x.count");
    Histogram &h = reg.histogram("x.hist");
    c.add(5);
    h.record(2.0);
    reg.resetAll();
    EXPECT_EQ(c.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
    c.add(1); // still usable after reset
    EXPECT_DOUBLE_EQ(c.value(), 1.0);
    EXPECT_EQ(&reg.counter("x.count"), &c);
}

TEST(RegistryTest, GlobalRegistryIsSingleInstance)
{
    EXPECT_EQ(&metrics(), &metrics());
}

TEST(JsonTest, ParserHandlesEscapesAndNesting)
{
    JsonValue v = parseJson(
        R"({"a": [1, 2.5, -3e2], "s": "q\"\\\nA", "b": true,)"
        R"( "n": null, "o": {"k": 7}})");
    EXPECT_DOUBLE_EQ(v.at("a").array[2].asNumber(), -300.0);
    EXPECT_EQ(v.at("s").asString(), "q\"\\\nA");
    EXPECT_TRUE(v.at("b").boolean);
    EXPECT_TRUE(v.at("n").isNull());
    EXPECT_DOUBLE_EQ(v.at("o").at("k").asNumber(), 7.0);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonTest, MalformedInputIsFatal)
{
    EXPECT_EXIT(parseJson("{\"a\": 1"), testing::ExitedWithCode(1),
                "JSON parse error");
    EXPECT_EXIT(parseJson("[1, 2] garbage"), testing::ExitedWithCode(1),
                "JSON parse error");
}

/** The snprintf/strtod spelling jsonNumber had before it moved to
 *  to_chars. Replies, content keys and result-cache keys are built from
 *  this spelling, so the two must agree byte for byte. */
std::string
printfJsonNumber(double v)
{
    char buf[40];
    for (int prec : {6, 12, 17}) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

TEST(JsonTest, NumberFormattingRoundTrips)
{
    for (double v : {0.0, 1.0, -2.5, 0.1, 1e-9, 6.02214076e23, 1.0 / 3.0}) {
        JsonValue parsed = parseJson(jsonNumber(v));
        EXPECT_DOUBLE_EQ(parsed.asNumber(), v) << jsonNumber(v);
    }
    // Non-finite values must still yield valid JSON.
    EXPECT_EQ(parseJson(jsonNumber(std::nan(""))).asNumber(), 0.0);

    std::vector<double> values = {
        0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::nextafter(std::numeric_limits<double>::min(), 0.0),
        9007199254740993.0, 0.1 + 0.2, 2.5e-5, 123456.5};
    Rng rng(0x6a736f6eULL);
    for (int i = 0; i < 20000; ++i) {
        // Random bit patterns cover every exponent, subnormals included.
        const uint64_t bits = rng.next();
        double v = 0;
        std::memcpy(&v, &bits, sizeof v);
        if (std::isfinite(v))
            values.push_back(v);
        const double scale = std::pow(10.0, rng.uniform() * 600 - 300);
        values.push_back(std::round(rng.uniform() * 1e6) * scale);
        values.push_back(static_cast<double>(rng.next() >> (i % 64)));
        values.push_back(std::round(rng.uniform() * 1e4) / 1e4);
        values.push_back((rng.uniform() - 0.5) * 1e-310);
    }
    for (double v : values) {
        const std::string s = jsonNumber(v);
        ASSERT_EQ(s, printfJsonNumber(v)) << std::hexfloat << v;
        const double back = parseJson(s).asNumber();
        ASSERT_EQ(back, v) << s;
        ASSERT_EQ(std::signbit(back), std::signbit(v)) << s;
    }
}

} // namespace
