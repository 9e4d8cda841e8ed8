/**
 * @file
 * PerfLab harness unit tests: Welford statistics against closed-form
 * results, exact medians, the aw.bench.v1 artifact round-tripping
 * through the strict mini-JSON parser, the perf gate's pass and fail
 * paths (via the synthetic slowdown), and the PhaseTimer layer's
 * exclusive-time nesting plus its disabled-mode bit-identity contract.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/phase_timer.hpp"
#include "perflab/perflab.hpp"
#include "sim/gpusim.hpp"
#include "trace/workload.hpp"

using namespace aw;
namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------ StatAccumulator

TEST(StatAccumulator, WelfordMatchesClosedForm)
{
    Rng rng(42);
    perflab::StatAccumulator acc;
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i) {
        // Nanosecond-ish magnitudes with a large offset: the regime
        // where naive sum-of-squares cancels catastrophically.
        double x = 1.0 + 1e-9 * rng.uniform();
        xs.push_back(x);
        acc.add(x);
    }

    double sum = 0;
    for (double x : xs)
        sum += x;
    double mean = sum / xs.size();
    double ss = 0;
    for (double x : xs)
        ss += (x - mean) * (x - mean);
    double stddev = std::sqrt(ss / (xs.size() - 1));

    EXPECT_EQ(acc.count(), xs.size());
    EXPECT_NEAR(acc.mean(), mean, 1e-12);
    EXPECT_NEAR(acc.stddev(), stddev, stddev * 1e-6);
    EXPECT_NEAR(acc.sum(), sum, 1e-9);
    EXPECT_GT(acc.stddev(), 0);
}

TEST(StatAccumulator, MedianOddAndEven)
{
    perflab::StatAccumulator odd;
    for (double x : {5.0, 1.0, 3.0})
        odd.add(x);
    EXPECT_DOUBLE_EQ(odd.median(), 3.0);

    perflab::StatAccumulator even;
    for (double x : {4.0, 1.0, 3.0, 2.0})
        even.add(x);
    EXPECT_DOUBLE_EQ(even.median(), 2.5);

    perflab::StatAccumulator one;
    one.add(7.5);
    EXPECT_DOUBLE_EQ(one.median(), 7.5);
    EXPECT_DOUBLE_EQ(one.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(one.cv(), 0.0);
}

TEST(StatAccumulator, MinMaxAndCv)
{
    perflab::StatAccumulator acc;
    for (double x : {2.0, 8.0, 4.0, 6.0})
        acc.add(x);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 8.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_NEAR(acc.cv(), acc.stddev() / 5.0, 1e-15);
}

// ------------------------------------------------------------- filtering

TEST(Filter, CommaSeparatedSubstrings)
{
    EXPECT_TRUE(perflab::matchesFilter("solver_qp", ""));
    EXPECT_TRUE(perflab::matchesFilter("solver_qp", "qp"));
    EXPECT_TRUE(perflab::matchesFilter("solver_qp", "sim,solver"));
    EXPECT_FALSE(perflab::matchesFilter("solver_qp", "sim,cache"));
}

// --------------------------------------------- artifact + gate round-trip

// A cheap deterministic bench registered only in this test binary.
int g_rounds = 0;

[[maybe_unused]] const bool regTestBench = perflab::registerBench({
    .name = "unit_spin",
    .description = "test-only spin bench",
    .defaultRounds = 4,
    .defaultWarmup = 1,
    .tolerancePct = 40.0,
    .round =
        [](perflab::BenchContext &) {
            ++g_rounds;
            volatile double sink = 0;
            for (int i = 0; i < 20000; ++i)
                sink = sink + 1.0 / (1.0 + i);
        },
    .fini =
        [](perflab::BenchContext &ctx) {
            ctx.setExtra("spin_iters", 20000);
            ctx.setExtraString("flavor", "unit \"quoted\"");
        },
});

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Artifact, RoundTripsThroughStrictParser)
{
    fs::path dir = fs::temp_directory_path() / "aw_perflab_test_art";
    fs::remove_all(dir);

    perflab::RunOptions opts;
    opts.filter = "unit_spin";
    opts.outDir = dir.string();
    g_rounds = 0;
    EXPECT_EQ(perflab::runBenches(opts), 0);
    EXPECT_EQ(g_rounds, 5); // 4 timed + 1 warmup

    std::string text = readFileText((dir / "BENCH_unit_spin.json").string());
    ASSERT_FALSE(text.empty());
    obs::JsonValue doc = obs::parseJson(text); // fatal()s on bad JSON

    EXPECT_EQ(doc.at("schema").asString(), "aw.bench.v1");
    EXPECT_EQ(doc.at("bench").asString(), "unit_spin");
    EXPECT_EQ(doc.at("unit").asString(), "sec_per_round");
    EXPECT_DOUBLE_EQ(doc.at("rounds").asNumber(), 4);
    EXPECT_DOUBLE_EQ(doc.at("warmup_rounds").asNumber(), 1);
    EXPECT_DOUBLE_EQ(doc.at("tolerance_pct").asNumber(), 40.0);

    const obs::JsonValue &stats = doc.at("stats");
    double mn = stats.at("min").asNumber();
    double md = stats.at("median").asNumber();
    double mx = stats.at("max").asNumber();
    EXPECT_GT(mn, 0);
    EXPECT_LE(mn, md);
    EXPECT_LE(md, mx);

    EXPECT_GT(doc.at("machine").at("cpus").asNumber(), 0);
    EXPECT_FALSE(doc.at("git_rev").asString().empty());
    EXPECT_DOUBLE_EQ(doc.at("extra").at("spin_iters").asNumber(), 20000);
    EXPECT_EQ(doc.at("extra").at("flavor").asString(), "unit \"quoted\"");

    fs::remove_all(dir);
}

TEST(Gate, PassesAtParityAndFailsOnSyntheticSlowdown)
{
    fs::path dir = fs::temp_directory_path() / "aw_perflab_test_gate";
    fs::remove_all(dir);
    std::string baseDir = (dir / "baselines").string();

    perflab::RunOptions rec;
    rec.filter = "unit_spin";
    rec.outDir = (dir / "out").string();
    rec.baselineDir = baseDir;
    rec.updateBaselines = true;
    ASSERT_EQ(perflab::runBenches(rec), 0);
    ASSERT_TRUE(fs::exists(baseDir + "/BENCH_unit_spin.json"));

    perflab::RunOptions gate = rec;
    gate.updateBaselines = false;
    EXPECT_EQ(perflab::runBenches(gate), 0);

    // 3x synthetic slowdown (+200%) must breach the 40% tolerance.
    gate.slowdown = 3.0;
    EXPECT_EQ(perflab::runBenches(gate), 1);

    fs::remove_all(dir);
}

// ------------------------------------------------------------ PhaseTimer

void
spinFor(double sec)
{
    auto t0 = std::chrono::steady_clock::now();
    volatile double sink = 0;
    while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count() < sec)
        sink = sink + 1.0;
}

TEST(PhaseTimer, NestedScopesAttributeExclusiveTime)
{
    auto &timers = obs::PhaseTimers::instance();
    bool was = timers.enabled();
    timers.setEnabled(true);
    timers.reset();

    using Clock = std::chrono::steady_clock;
    const Clock::time_point outerStart = Clock::now();
    {
        obs::PhaseScope issue(obs::SimPhase::Issue);
        spinFor(0.02);
        {
            obs::PhaseScope memory(obs::SimPhase::Memory);
            spinFor(0.02);
        }
        spinFor(0.02);
    }
    const double outer =
        std::chrono::duration<double>(Clock::now() - outerStart).count();

    auto snap = timers.snapshot();
    auto at = [&](obs::SimPhase p) {
        return snap[static_cast<size_t>(p)];
    };
    EXPECT_EQ(at(obs::SimPhase::Issue).count, 1u);
    EXPECT_EQ(at(obs::SimPhase::Memory).count, 1u);
    // Exclusive attribution: the parent keeps its own wall time minus
    // the child's, however long a loaded host stretches either. The
    // outer clock reads bracket the scope's own, so they differ only by
    // the scope's bookkeeping.
    const double issueSec = at(obs::SimPhase::Issue).sec;
    const double memorySec = at(obs::SimPhase::Memory).sec;
    EXPECT_GE(memorySec, 0.02); // the child spun for at least 20 ms
    // The parent's own two spins lie inside its scope and outside the
    // child's, so no charge of parent time to the child can pass this.
    EXPECT_GE(issueSec, 0.04);
    EXPECT_NEAR(issueSec, outer - memorySec, 1e-3);
    EXPECT_GE(outer - issueSec, 0.02) << "the child was not subtracted";
    EXPECT_NEAR(timers.totalSec(),
                at(obs::SimPhase::Issue).sec +
                    at(obs::SimPhase::Memory).sec,
                1e-12);

    timers.reset();
    timers.setEnabled(was);
}

TEST(PhaseTimer, DisabledScopesRecordNothing)
{
    auto &timers = obs::PhaseTimers::instance();
    bool was = timers.enabled();
    timers.setEnabled(false);
    timers.reset();
    {
        obs::PhaseScope scope(obs::SimPhase::Evaluate);
        spinFor(0.001);
    }
    EXPECT_EQ(timers.totalSec(), 0.0);
    for (const auto &s : timers.snapshot())
        EXPECT_EQ(s.count, 0u);
    timers.setEnabled(was);
}

TEST(PhaseTimer, SimulatorOutputBitIdenticalWithLayerToggled)
{
    KernelDescriptor k = makeKernel("phase_identity",
                                    {{OpClass::FpFma, 0.5},
                                     {OpClass::LdGlobal, 0.5}},
                                    16, 4);
    k.memFootprintKb = 256;

    auto &timers = obs::PhaseTimers::instance();
    bool was = timers.enabled();

    timers.setEnabled(false);
    GpuSimulator simOff(voltaGV100());
    KernelActivity off = simOff.runSass(k);

    timers.setEnabled(true);
    GpuSimulator simOn(voltaGV100());
    KernelActivity on = simOn.runSass(k);
    timers.reset();
    timers.setEnabled(was);

    ASSERT_EQ(off.samples.size(), on.samples.size());
    EXPECT_EQ(off.totalCycles, on.totalCycles);
    EXPECT_EQ(off.elapsedSec, on.elapsedSec);
    auto aggOff = off.aggregate();
    auto aggOn = on.aggregate();
    EXPECT_EQ(aggOff.cycles, aggOn.cycles);
    for (size_t c = 0; c < aggOff.accesses.size(); ++c)
        EXPECT_EQ(aggOff.accesses[c], aggOn.accesses[c]);
}

TEST(PhaseTimer, PhaseNamesAreStable)
{
    EXPECT_STREQ(obs::simPhaseName(obs::SimPhase::Tracegen), "tracegen");
    EXPECT_STREQ(obs::simPhaseName(obs::SimPhase::Issue), "issue");
    EXPECT_STREQ(obs::simPhaseName(obs::SimPhase::Memory), "memory");
    EXPECT_STREQ(obs::simPhaseName(obs::SimPhase::Tune), "tune");
}

} // namespace
