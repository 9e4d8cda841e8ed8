/**
 * @file
 * Tests of the PowerScope analyzer and collector: window alignment of
 * the modeled trace against the measured stream, residual attribution
 * ranking, energy-conservation flagging, MAPE reconciliation, and the
 * JSON / Chrome-trace / HTML exporters (round-tripped through the
 * strict parser).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/powerscope.hpp"
#include "obs/trace.hpp"

using namespace aw;
using namespace aw::obs;

namespace {

/** Four 1-second intervals over three synthetic tracks. The "mem" track
 *  ramps, so a residual proportional to it is attributable. */
PowerScopeRun
syntheticRun(const std::string &name = "k")
{
    PowerScopeRun run;
    run.name = name;
    run.phase = "test";
    run.components = {"const", "alu", "mem"};
    double memW[] = {10, 20, 30, 40};
    for (int i = 0; i < 4; ++i) {
        ScopeInterval iv;
        iv.startSec = i;
        iv.durSec = 1;
        iv.freqGhz = 1.4;
        iv.voltage = 1.0;
        iv.activeSms = 80;
        iv.componentW = {50, 25, memW[i]};
        iv.totalW = 75 + memW[i];
        run.intervals.push_back(iv);
    }
    run.modeledEnergyJ = 4 * 75 + 10 + 20 + 30 + 40; // 400 J
    run.componentEnergyJ = run.modeledEnergyJ;
    return run;
}

class PowerScopeFixture : public testing::Test
{
  protected:
    void SetUp() override
    {
        PowerScope::instance().clear();
        PowerScope::instance().setEnabled(true);
    }
    void TearDown() override
    {
        PowerScope::instance().setEnabled(false);
        PowerScope::instance().clear();
    }
};

} // namespace

TEST(PowerScopeAlign, EmptyRunYieldsNoWindows)
{
    PowerScopeRun run;
    EXPECT_TRUE(alignRun(run).empty());
    EXPECT_DOUBLE_EQ(run.elapsedSec(), 0.0);
}

TEST(PowerScopeAlign, WindowsTileTheTimeline)
{
    PowerScopeRun run = syntheticRun();
    auto windows = alignRun(run); // default: min(64, 4 intervals)
    ASSERT_EQ(windows.size(), 4u);
    EXPECT_DOUBLE_EQ(windows.front().t0, 0.0);
    EXPECT_DOUBLE_EQ(windows.back().t1, 4.0);
    for (size_t w = 1; w < windows.size(); ++w)
        EXPECT_DOUBLE_EQ(windows[w].t0, windows[w - 1].t1);
    // Window grid matches the interval grid here: exact reproduction.
    for (size_t w = 0; w < windows.size(); ++w) {
        EXPECT_NEAR(windows[w].modeledW, run.intervals[w].totalW, 1e-12);
        ASSERT_EQ(windows[w].componentW.size(), 3u);
        EXPECT_NEAR(windows[w].componentW[2],
                    run.intervals[w].componentW[2], 1e-12);
        EXPECT_FALSE(windows[w].hasMeasured); // no measured side at all
        EXPECT_DOUBLE_EQ(windows[w].residualW, 0.0);
    }
}

TEST(PowerScopeAlign, ResamplingIsEnergyPreserving)
{
    PowerScopeRun run = syntheticRun();
    // A coarser grid than the intervals: 3 windows over 4 intervals.
    auto windows = alignRun(run, 3);
    ASSERT_EQ(windows.size(), 3u);
    double energy = 0;
    for (const auto &w : windows)
        energy += w.modeledW * (w.t1 - w.t0);
    EXPECT_NEAR(energy, run.modeledEnergyJ, 1e-9 * run.modeledEnergyJ);
}

TEST(PowerScopeAlign, MeasuredSamplesAverageWithinWindows)
{
    PowerScopeRun run = syntheticRun();
    // Two samples in window 0, a NaN-poisoned one in window 1, none in
    // window 2 (bridged by interpolation), one in window 3.
    run.measured = {{0.25, 80}, {0.75, 90}, {1.5, std::nan("")},
                    {3.5, 120}};
    auto windows = alignRun(run, 4);
    ASSERT_EQ(windows.size(), 4u);
    EXPECT_TRUE(windows[0].hasMeasured);
    EXPECT_DOUBLE_EQ(windows[0].measuredW, 85.0);
    EXPECT_DOUBLE_EQ(windows[0].residualW, 85.0 - windows[0].modeledW);
    // NaN is absent data, so windows 1 and 2 interpolate between the
    // valid neighbours at t=0.75 (90 W) and t=3.5 (120 W).
    for (int w : {1, 2}) {
        EXPECT_TRUE(windows[w].hasMeasured);
        double mid = 0.5 * (windows[w].t0 + windows[w].t1);
        double expect = 90 + (120 - 90) * (mid - 0.75) / (3.5 - 0.75);
        EXPECT_NEAR(windows[w].measuredW, expect, 1e-12);
    }
    EXPECT_DOUBLE_EQ(windows[3].measuredW, 120.0);
}

TEST(PowerScopeAlign, CampaignAverageGivesFlatMeasuredSeries)
{
    PowerScopeRun run = syntheticRun();
    run.measuredAvgW = 100;
    auto windows = alignRun(run, 4);
    for (const auto &w : windows) {
        EXPECT_TRUE(w.hasMeasured);
        EXPECT_DOUBLE_EQ(w.measuredW, 100.0);
    }
}

TEST(PowerScopeAnalyze, ApeAndMapeReconcileWithAverages)
{
    PowerScopeRun a = syntheticRun("a"); // modeled avg = 100 W
    a.measuredAvgW = 110;                // APE ~ 9.0909%
    PowerScopeRun b = syntheticRun("b");
    b.measuredAvgW = 80; // APE = 25%
    PowerScopeRun c = syntheticRun("c"); // no measurement
    ScopeReport report = analyze({a, b, c});

    ASSERT_EQ(report.runs.size(), 3u);
    EXPECT_EQ(report.runsWithMeasured, 2u);
    EXPECT_NEAR(report.runs[0].modeledAvgW, 100.0, 1e-12);
    EXPECT_NEAR(report.runs[0].apePct, 100.0 / 11.0, 1e-9);
    EXPECT_NEAR(report.runs[1].apePct, 25.0, 1e-9);
    EXPECT_DOUBLE_EQ(report.runs[2].apePct, 0.0);
    EXPECT_NEAR(report.mapePct, 0.5 * (100.0 / 11.0 + 25.0), 1e-9);
    // Mean residual of a flat 110 W line against the 85..115 W model.
    EXPECT_NEAR(report.runs[0].residualMeanW, 10.0, 1e-9);
}

TEST(PowerScopeAnalyze, EnergyConservationViolationFlagged)
{
    PowerScopeRun good = syntheticRun("good");
    PowerScopeRun bad = syntheticRun("bad");
    bad.componentEnergyJ = bad.modeledEnergyJ * 1.01; // a leaked term
    ScopeReport report = analyze({good, bad});
    EXPECT_TRUE(report.runs[0].energyConserved);
    EXPECT_LE(report.runs[0].conservationRelErr, 1e-9);
    EXPECT_FALSE(report.runs[1].energyConserved);
    EXPECT_NEAR(report.runs[1].conservationRelErr, 0.01 / 1.01, 1e-9);
    EXPECT_EQ(report.energyViolations, 1u);
}

TEST(PowerScopeAnalyze, AttributionRanksTheGuiltyComponentFirst)
{
    PowerScopeRun run = syntheticRun();
    // Measured = modeled + 20% of the mem track: the residual is
    // perfectly correlated with "mem" and uncorrelated with the flat
    // const / alu tracks.
    for (int i = 0; i < 4; ++i) {
        double t = i + 0.5;
        run.measured.push_back(
            {t, run.intervals[i].totalW +
                    0.2 * run.intervals[i].componentW[2]});
    }
    ScopeReport report = analyze({run});
    ASSERT_EQ(report.attribution.size(), 3u);
    EXPECT_EQ(report.attribution[0].component, "mem");
    EXPECT_NEAR(report.attribution[0].residualCorr, 1.0, 1e-9);
    EXPECT_EQ(report.attribution[0].windows, 4u);
    // Flat tracks have zero variance: correlation must be 0, not NaN.
    EXPECT_DOUBLE_EQ(report.attribution[1].residualCorr, 0.0);
    EXPECT_DOUBLE_EQ(report.attribution[2].residualCorr, 0.0);
    // Energy bookkeeping: mem integrates to 100 J over the run.
    for (const auto &attr : report.attribution)
        if (attr.component == "mem") {
            EXPECT_NEAR(attr.energyJ, 100.0, 1e-9);
        }
}

TEST(PowerScopeAnalyze, UnionTrackListAcrossHeterogeneousRuns)
{
    PowerScopeRun a = syntheticRun("a");
    PowerScopeRun b;
    b.name = "b";
    b.phase = "test";
    b.components = {"const", "tensor"};
    ScopeInterval iv;
    iv.startSec = 0;
    iv.durSec = 1;
    iv.totalW = 60;
    iv.componentW = {50, 10};
    b.intervals.push_back(iv);
    ScopeReport report = analyze({a, b});
    std::vector<std::string> want = {"const", "alu", "mem", "tensor"};
    EXPECT_EQ(report.components, want);
}

TEST_F(PowerScopeFixture, DisabledRecordIsANoOp)
{
    PowerScope::instance().setEnabled(false);
    PowerScope::instance().record(syntheticRun());
    EXPECT_TRUE(PowerScope::instance().runs().empty());
    PowerScope::instance().setEnabled(true);
    PowerScope::instance().record(syntheticRun());
    EXPECT_EQ(PowerScope::instance().runs().size(), 1u);
}

TEST_F(PowerScopeFixture, ClearKeepsEnabledState)
{
    PowerScope::instance().record(syntheticRun());
    PowerScope::instance().clear();
    EXPECT_TRUE(PowerScope::instance().runs().empty());
    EXPECT_TRUE(PowerScope::instance().enabled());
}

TEST_F(PowerScopeFixture, ReportJsonRoundTripsAndReconciles)
{
    PowerScopeRun run = syntheticRun();
    run.measuredAvgW = 110;
    run.marks.push_back({1.5, "stale"});
    PowerScope::instance().record(run);

    JsonValue doc = parseJson(PowerScope::instance().reportJson());
    EXPECT_EQ(doc.at("schema").asString(), "aw.powerscope.v1");
    EXPECT_DOUBLE_EQ(doc.at("summary").at("runs").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(
        doc.at("summary").at("energy_violations").asNumber(), 0.0);
    EXPECT_NEAR(doc.at("summary").at("mape_pct").asNumber(), 100.0 / 11.0,
                1e-6);

    const JsonValue &rr = doc.at("runs").array.at(0);
    EXPECT_EQ(rr.at("name").asString(), "k");
    EXPECT_DOUBLE_EQ(rr.at("marks").asNumber(), 1.0);
    EXPECT_EQ(rr.at("energy_conserved").kind, JsonValue::Kind::Bool);
    EXPECT_TRUE(rr.at("energy_conserved").boolean);
    // Per-window residuals must reconcile with the run-level APE: the
    // time-weighted mean residual of a flat measured line equals
    // measured - modeled averages.
    double residSec = 0, sec = 0;
    for (const JsonValue &w : rr.at("windows").array) {
        double dt = w.at("t1").asNumber() - w.at("t0").asNumber();
        residSec += w.at("residual_w").asNumber() * dt;
        sec += dt;
    }
    double modeledAvg = rr.at("modeled_avg_w").asNumber();
    double measuredAvg = rr.at("measured_avg_w").asNumber();
    EXPECT_NEAR(residSec / sec, measuredAvg - modeledAvg, 1e-9);

    ASSERT_EQ(doc.at("attribution").array.size(), 3u);
}

TEST_F(PowerScopeFixture, ChromeTraceMergesProfilerAndCounters)
{
    Profiler::instance().clear();
    Profiler::instance().setEnabled(true);
    {
        AW_PROF_SCOPE("scope/zone");
    }
    PowerScopeRun run = syntheticRun();
    run.measured = {{0.5, 90}, {2.5, std::nan("")}};
    run.marks.push_back({2.5, "nan"});
    PowerScope::instance().record(run);

    JsonValue doc = parseJson(PowerScope::instance().chromeTraceJson());
    Profiler::instance().setEnabled(false);
    Profiler::instance().clear();

    size_t zones = 0, counters = 0, instants = 0, meta = 0;
    bool sawMeasured = false, sawMem = false, sawFault = false;
    for (const JsonValue &e : doc.at("traceEvents").array) {
        const std::string ph = e.at("ph").asString();
        if (ph == "X") {
            ++zones;
            EXPECT_EQ(e.at("pid").asNumber(), 1.0);
        } else if (ph == "C") {
            ++counters;
            EXPECT_EQ(e.at("pid").asNumber(), 2.0);
            ASSERT_TRUE(e.at("args").at("value").isNumber());
            if (e.at("name").asString() == "measured_w")
                sawMeasured = true;
            if (e.at("name").asString() == "mem")
                sawMem = true;
        } else if (ph == "i") {
            ++instants;
            if (e.at("name").asString() == "fault:nan")
                sawFault = true;
        } else if (ph == "M") {
            ++meta;
        }
    }
    EXPECT_EQ(zones, 1u);
    EXPECT_EQ(meta, 2u);
    EXPECT_GE(instants, 2u); // run boundary + fault mark
    EXPECT_TRUE(sawMeasured);
    EXPECT_TRUE(sawMem);
    EXPECT_TRUE(sawFault);
    // 4 intervals x (4 fixed + 3 component) + 4 closing + 1 finite
    // measured sample (the NaN one is dropped).
    EXPECT_EQ(counters, 4u * 7u + 4u + 1u);
}

TEST_F(PowerScopeFixture, DashboardHtmlIsSelfContained)
{
    PowerScopeRun run = syntheticRun();
    run.measuredAvgW = 110;
    PowerScope::instance().record(run);
    std::string html = PowerScope::instance().dashboardHtml();
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("</html>"), std::string::npos);
    EXPECT_NE(html.find("aw-report"), std::string::npos);
    EXPECT_NE(html.find("aw.powerscope.v1"), std::string::npos);
    // The embedded report is real JSON: extract and parse it.
    size_t open = html.find("<script type=\"application/json\"");
    ASSERT_NE(open, std::string::npos);
    open = html.find('>', open) + 1;
    size_t close = html.find("</script>", open);
    ASSERT_NE(close, std::string::npos);
    JsonValue doc = parseJson(html.substr(open, close - open));
    EXPECT_EQ(doc.at("schema").asString(), "aw.powerscope.v1");
    // No external fetches: a single-file artifact.
    EXPECT_EQ(html.find("<script src"), std::string::npos);
    EXPECT_EQ(html.find("<link"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
}
