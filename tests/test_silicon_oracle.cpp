/**
 * @file
 * White-box tests for the silicon oracle (the hardware substitute):
 * power gating hierarchy, DVFS behaviour, temperature dependence,
 * half-warp mechanism, hidden deviations, and concurrent execution.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "core/calibration.hpp"
#include "hw/silicon_model.hpp"
#include "obs/metrics.hpp"
#include "ubench/microbench.hpp"

using namespace aw;

namespace {

/** The kernels the execution-memo tests cover: compute-bound,
 *  memory-bound, and an idle-SM probe that leaves most SMs gated. */
std::vector<KernelDescriptor>
memoKernels()
{
    auto compute = makeKernel(
        "memo_compute", {{OpClass::FpFma, 0.5}, {OpClass::IntMad, 0.5}},
        160, 8);
    auto memory = makeKernel(
        "memo_memory", {{OpClass::LdGlobal, 0.4}, {OpClass::IntAdd, 0.6}},
        160, 8);
    memory.memFootprintKb = 4096;
    return {compute, memory, occupancyKernel(16, 0)};
}

/** Default conditions, a locked clock, and a hot chip. */
std::vector<MeasurementConditions>
memoConditions()
{
    MeasurementConditions locked, hot;
    locked.freqGhz = 1.0;
    hot.tempC = 80;
    return {{}, locked, hot};
}

// ActivitySample holds only doubles, so it has no padding and memcmp
// compares exactly its fields.
static_assert(sizeof(ActivitySample) ==
              sizeof(double) * (5 + kNumPowerComponents + kNumUnitKinds + 2));

bool
sameBits(const ActivitySample &a, const ActivitySample &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

double
executions()
{
    return obs::metrics().counter("hw.oracle.executions").value();
}

double
reused()
{
    return obs::metrics().counter("hw.oracle.reused").value();
}

} // namespace

TEST(Oracle, GatingHierarchyMatchesFigure3)
{
    const SiliconOracle &card = sharedVoltaCard();
    double inactive = card.truth().constPowerW;
    double p1x1 = card.execute(gatingKernel(1, 1)).avgPowerW;
    double p1x80 = card.execute(gatingKernel(1, 80)).avgPowerW;
    double p8x80 = card.execute(gatingKernel(8, 80)).avgPowerW;

    // First SM >> subsequent SMs (paper: 47x).
    double firstSm = p1x1 - inactive;
    double addlSm = (p1x80 - p1x1) / 79.0;
    EXPECT_GT(firstSm / addlSm, 15.0);
    // 1L x 80SM ~ +70% over 1L x 1SM despite 79x more SMs.
    double smRatio = p1x80 / p1x1;
    EXPECT_GT(smRatio, 1.3);
    EXPECT_LT(smRatio, 2.2);
    // 8L x 80SM ~ +10% over 1L x 80SM despite 7x more lanes.
    double laneRatio = p8x80 / p1x80;
    EXPECT_GT(laneRatio, 1.02);
    EXPECT_LT(laneRatio, 1.30);
}

TEST(Oracle, PowerIncreasesWithFrequency)
{
    const SiliconOracle &card = sharedVoltaCard();
    auto k = occupancyKernel(80, 0);
    double prev = 0;
    for (double f : {0.4, 0.8, 1.2, 1.6}) {
        MeasurementConditions cond;
        cond.freqGhz = f;
        double p = card.execute(k, cond).avgPowerW;
        EXPECT_GT(p, prev);
        prev = p;
    }
}

TEST(Oracle, DvfsCurveIsSuperlinear)
{
    // Dynamic power ~ V^2 f with V ~ k f: doubling f should more than
    // double dynamic power.
    const SiliconOracle &card = sharedVoltaCard();
    auto k = occupancyKernel(80, 0);
    MeasurementConditions lo, hi;
    lo.freqGhz = 0.7;
    hi.freqGhz = 1.4;
    OracleRun rl = card.execute(k, lo);
    OracleRun rh = card.execute(k, hi);
    EXPECT_GT(rh.dynamicW, 2.2 * rl.dynamicW);
}

TEST(Oracle, TemperatureScalesLeakageOnly)
{
    const SiliconOracle &card = sharedVoltaCard();
    auto k = occupancyKernel(80, 0);
    MeasurementConditions cold, hot;
    cold.tempC = 65;
    hot.tempC = 93; // one leakage doubling above 65C
    OracleRun rc = card.execute(k, cold);
    OracleRun rh = card.execute(k, hot);
    EXPECT_NEAR(rh.staticW / rc.staticW, 2.0, 0.1);
    EXPECT_DOUBLE_EQ(rh.dynamicW, rc.dynamicW);
    EXPECT_DOUBLE_EQ(rh.constW, rc.constW);
}

TEST(Oracle, IdleChipConsumesConstantOnly)
{
    const SiliconOracle &card = sharedVoltaCard();
    ActivitySample idle;
    idle.cycles = 1000;
    idle.freqGhz = 1.417;
    idle.avgActiveSms = 0;
    double p = card.truePower(idle, {});
    // No SM active: constant power plus the gated-SM residual leak.
    EXPECT_NEAR(p,
                card.truth().constPowerW +
                    80 * card.truth().idleSmLeakW,
                1.0);
}

TEST(Oracle, MeanPoweredLanesMechanism)
{
    // Pure half-warp behaviour (w = 1).
    EXPECT_DOUBLE_EQ(meanPoweredLanes(8, 1.0), 8.0);
    EXPECT_DOUBLE_EQ(meanPoweredLanes(16, 1.0), 16.0);
    EXPECT_DOUBLE_EQ(meanPoweredLanes(20, 1.0), 10.0); // (16+4)/2
    EXPECT_DOUBLE_EQ(meanPoweredLanes(32, 1.0), 16.0); // back to max
    // Pure linear (w = 0): every active lane stays powered.
    EXPECT_DOUBLE_EQ(meanPoweredLanes(20, 0.0), 20.0);
    // Weights interpolate.
    EXPECT_DOUBLE_EQ(meanPoweredLanes(20, 0.5), 15.0);
}

TEST(Oracle, HalfWarpWeightDecaysWithUnitDiversity)
{
    EXPECT_DOUBLE_EQ(halfWarpMechanismWeight(1), 1.0);
    EXPECT_GT(halfWarpMechanismWeight(1), halfWarpMechanismWeight(2));
    EXPECT_GT(halfWarpMechanismWeight(2), halfWarpMechanismWeight(3));
    EXPECT_EQ(halfWarpMechanismWeight(3), halfWarpMechanismWeight(5));
}

TEST(Oracle, DataToggleFactorDeterministicAndBounded)
{
    const SiliconOracle &card = sharedVoltaCard();
    double f1 = card.dataToggleFactor("kernel_a");
    EXPECT_DOUBLE_EQ(f1, card.dataToggleFactor("kernel_a"));
    EXPECT_NE(f1, card.dataToggleFactor("kernel_b"));
    for (const char *n : {"a", "b", "c", "d", "e", "f"}) {
        double f = card.dataToggleFactor(n);
        EXPECT_GE(f, 1.0 - card.truth().dataWobble - 1e-12);
        EXPECT_LE(f, 1.0 + card.truth().dataWobble + 1e-12);
    }
}

TEST(Oracle, HiddenConfigDeviatesFromPublic)
{
    const SiliconOracle &card = sharedVoltaCard();
    // The shipped silicon never matches the documented model exactly;
    // that gap is what bounds simulator-driven accuracy.
    EXPECT_NE(card.hiddenConfig().l1d.latencyCycles,
              card.config().l1d.latencyCycles);
    EXPECT_NE(card.hiddenConfig().dramBandwidthGBs,
              card.config().dramBandwidthGBs);
    // But only modestly.
    EXPECT_NEAR(card.hiddenConfig().dramBandwidthGBs,
                card.config().dramBandwidthGBs,
                0.1 * card.config().dramBandwidthGBs);
}

TEST(Oracle, ExecutionDeterministic)
{
    const SiliconOracle &card = sharedVoltaCard();
    auto k = occupancyKernel(40, 0);
    EXPECT_DOUBLE_EQ(card.execute(k).avgPowerW,
                     card.execute(k).avgPowerW);
}

TEST(Oracle, ConcurrentBeatsSequentialPower)
{
    // Packing small kernels side by side raises average power (fewer
    // idle SMs per unit time) and shortens the makespan.
    const SiliconOracle &card = sharedVoltaCard();
    std::vector<KernelDescriptor> kernels;
    for (int i = 0; i < 12; ++i) {
        auto k = makeKernel("conc_" + std::to_string(i),
                            {{OpClass::IntMad, 1.0}}, 24, 8);
        k.smLimit = 12;
        kernels.push_back(k);
    }
    auto concurrent = card.executeConcurrent(kernels);
    double seqPowerSum = 0, seqTime = 0;
    for (const auto &k : kernels) {
        OracleRun r = card.execute(k);
        seqPowerSum += r.avgPowerW * r.activity.elapsedSec;
        seqTime += r.activity.elapsedSec;
    }
    double seqAvg = seqPowerSum / seqTime;
    EXPECT_LT(concurrent.elapsedSec, seqTime * 0.5);
    EXPECT_GT(concurrent.avgPowerW, seqAvg * 1.1);
}

TEST(Oracle, CaseStudyCardsDifferFromVolta)
{
    const auto &volta = sharedVoltaCard().truth();
    const auto &pascal = sharedPascalCard().truth();
    const auto &turing = sharedTuringCard().truth();
    EXPECT_GT(pascal.constPowerW, volta.constPowerW); // bigger board
    EXPECT_NEAR(turing.constPowerW, 1.7 * volta.constPowerW, 8.0);
    // 16 nm Pascal leaks and switches more per unit than 12 nm Volta.
    EXPECT_GT(pascal.smWideLeakW, volta.smWideLeakW);
    double pascalSum = 0, voltaSum = 0;
    for (size_t i = 0; i < kNumPowerComponents; ++i) {
        pascalSum += pascal.energyNj[i];
        voltaSum += volta.energyNj[i];
    }
    EXPECT_GT(pascalSum, voltaSum);
}

TEST(OracleMemo, SummaryIsExecuteBitForBit)
{
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    for (const auto &k : memoKernels()) {
        for (const auto &cond : memoConditions()) {
            const OracleRun run = card.execute(k, cond);
            const KernelActivity &act = run.activity;
            // First request (executes) and repeat (reuses) alike.
            for (int rep = 0; rep < 2; ++rep) {
                const OracleSummary view = card.summary(k, cond);
                EXPECT_TRUE(sameBits(view.aggregate, act.aggregate()))
                    << k.name << " rep " << rep;
                EXPECT_TRUE(sameBits(view.totalCycles, act.totalCycles));
                EXPECT_TRUE(sameBits(view.elapsedSec, act.elapsedSec));
                EXPECT_TRUE(sameBits(view.avgPowerW, run.avgPowerW));
                EXPECT_TRUE(sameBits(view.dynamicW, run.dynamicW));
            }
        }
    }
}

TEST(OracleMemo, RepeatRequestReusesTheExecution)
{
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    for (const auto &k : memoKernels()) {
        for (const auto &cond : memoConditions()) {
            const double exec0 = executions(), reused0 = reused();
            card.summary(k, cond);
            EXPECT_EQ(executions(), exec0 + 1) << k.name;
            EXPECT_EQ(reused(), reused0) << k.name;
            card.summary(k, cond);
            card.summary(k, cond);
            EXPECT_EQ(executions(), exec0 + 1) << k.name;
            EXPECT_EQ(reused(), reused0 + 2) << k.name;
        }
    }
}

TEST(OracleMemo, CopiedOracleStartsEmpty)
{
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    const auto k = memoKernels().front();
    const OracleSummary original = card.summary(k);
    SiliconOracle copy(card);
    const double exec0 = executions();
    const OracleSummary copied = copy.summary(k);
    EXPECT_EQ(executions(), exec0 + 1);
    EXPECT_TRUE(sameBits(copied.avgPowerW, original.avgPowerW));
    EXPECT_TRUE(sameBits(copied.aggregate, original.aggregate));
    // The original keeps its own entry.
    card.summary(k);
    EXPECT_EQ(executions(), exec0 + 1);
}

TEST(OracleMemo, ClockAndTemperatureAreSeparateEntries)
{
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    for (const auto &k : memoKernels()) {
        const double exec0 = executions();
        for (const auto &cond : memoConditions())
            card.summary(k, cond);
        EXPECT_EQ(executions(), exec0 + 3) << k.name;
        MeasurementConditions hot;
        hot.tempC = 80;
        // Same activity, different leakage: the hot entry is its own.
        EXPECT_GT(card.summary(k, hot).avgPowerW,
                  card.summary(k).avgPowerW)
            << k.name;
        EXPECT_EQ(executions(), exec0 + 3) << k.name;
    }
}

TEST(OracleMemo, ConcurrentFirstRequestsExecuteOnce)
{
    SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    const auto k = memoKernels()[1];
    const double exec0 = executions(), reused0 = reused();
    std::atomic<bool> go{false};
    std::vector<OracleSummary> views(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < views.size(); ++t)
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            views[t] = card.summary(k);
        });
    go.store(true);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(executions(), exec0 + 1);
    EXPECT_EQ(reused(), reused0 + 3);
    for (const auto &v : views)
        EXPECT_TRUE(sameBits(v.aggregate, views[0].aggregate));
}
