/**
 * @file
 * Tests for the Figure 1 calibration flow: constant power (Section 4.2),
 * static/divergence/idle calibration (4.3-4.6), and the orchestrator's
 * caching. Uses the shared Volta card so the (simulated) measurement
 * campaign runs once per process.
 */
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/calibration.hpp"
#include "core/result_cache.hpp"
#include "core/static_power.hpp"
#include "obs/metrics.hpp"
#include "ubench/microbench.hpp"

using namespace aw;

TEST(ConstantPower, RecoversTruthWithinTolerance)
{
    auto &cal = sharedVoltaCalibrator();
    const auto &result = cal.constantPower();
    double truth = sharedVoltaCard().truth().constPowerW;
    EXPECT_NEAR(result.constPowerW, truth, 0.2 * truth);
    // Every per-workload Eq. 3 fit correlates strongly (paper: 0.998).
    for (const auto &fit : result.fits)
        EXPECT_GT(fit.cubicFit.pearsonR, 0.99) << fit.name;
}

TEST(ConstantPower, LinearMethodologyFails)
{
    // Section 4.2: the GPUWattch-era linear extrapolation collapses on a
    // DVFS part — far below the real constant power.
    auto &cal = sharedVoltaCalibrator();
    const auto &result = cal.constantPower();
    double truth = sharedVoltaCard().truth().constPowerW;
    EXPECT_LT(result.linearInterceptW, truth - 10.0);
}

TEST(ConstantPower, SweepCoversWorkloadSpectrum)
{
    auto &cal = sharedVoltaCalibrator();
    const auto &fits = cal.constantPower().fits;
    ASSERT_EQ(fits.size(), 5u);
    // Heavy (INT_MEM) vs light (NANOSLEEP) workloads differ sharply at
    // the top clock yet share the intercept region.
    double heavyTop = fits[0].powersW.back();
    double lightTop = fits[4].powersW.back();
    EXPECT_GT(heavyTop, 1.6 * lightTop);
    EXPECT_NEAR(fits[0].cubicFit.constant, fits[4].cubicFit.constant,
                12.0);
}

TEST(StaticPower, DivergenceSelectionMatchesSection45)
{
    auto &cal = sharedVoltaCalibrator();
    const auto &result = cal.staticPower();
    for (const auto &d : result.details) {
        // Selection is data-driven. The tensor mix is borderline: the
        // tensor unit's wide initiation interval keeps it unit-bound, so
        // some sawtooth survives and either model can win the midpoints.
        if (d.category != MixCategory::IntFpTensor) {
            EXPECT_EQ(d.chosen.halfWarp, expectedHalfWarp(d.category))
                << mixCategoryName(d.category);
        }
        // The selected model fits the midpoints better than 15%.
        double chosenErr =
            d.chosen.halfWarp ? d.halfWarpErrPct : d.linearErrPct;
        EXPECT_LT(chosenErr, 15.0) << mixCategoryName(d.category);
    }
}

TEST(StaticPower, PositiveMonotoneParameters)
{
    auto &cal = sharedVoltaCalibrator();
    const auto &result = cal.staticPower();
    for (size_t c = 0; c < kNumMixCategories; ++c) {
        const auto &d = result.divergence[c];
        EXPECT_GT(d.firstLaneW, 0.0);
        EXPECT_GT(d.addLaneW, 0.0);
        // The first lane carries the SM-wide structures: far more than
        // any additional lane (Section 4.3).
        EXPECT_GT(d.firstLaneW, 5.0 * d.addLaneW);
    }
}

TEST(StaticPower, IdleSmSmallButPositive)
{
    auto &cal = sharedVoltaCalibrator();
    const auto &result = cal.staticPower();
    EXPECT_GT(result.idleSmW, 0.0);
    EXPECT_LT(result.idleSmW, 1.0); // a gated SM leaks very little
    EXPECT_FALSE(result.idleExperiments.empty());
}

TEST(StaticPower, IdleSmGeomeanExcludesNonPositiveEstimates)
{
    // Eq. 8 is a geomean, so an Eq. 7 estimate <= 0 cannot enter it: it
    // is dropped and counted. On Volta exactly one experiment, at 64
    // active SMs, is dropped.
    auto &cal = sharedVoltaCalibrator();
    const auto &result = cal.staticPower();
    std::vector<double> positive;
    std::vector<int> droppedAt;
    for (const auto &exp : result.idleExperiments) {
        if (exp.perIdleSmW > 0)
            positive.push_back(exp.perIdleSmW);
        else
            droppedAt.push_back(exp.activeSms);
    }
    ASSERT_FALSE(positive.empty());
    EXPECT_EQ(result.idleSmW, geomean(positive));
    EXPECT_EQ(droppedAt, std::vector<int>{64});
    // This process runs one static calibration, the shared one above.
    EXPECT_EQ(
        obs::metrics().counter("calibration.idle_sm_dropped").value(),
        1.0);
}

TEST(StaticPower, MeasureStaticSeparatesDynamic)
{
    // The tau*f static estimate of a compute kernel must be far below
    // its total power and above zero.
    NvmlEmu nvml(sharedVoltaCard());
    auto k = mixCategoryProbe(MixCategory::IntFp, 32);
    double staticW =
        measureStaticPowerW(nvml, k, {0.6, 0.8, 1.0, 1.2, 1.4});
    double totalW = nvml.measureAveragePowerW(k);
    EXPECT_GT(staticW, 5.0);
    EXPECT_LT(staticW, 0.7 * totalW);
}

TEST(Calibrator, PartialModelHasNoDynamicEnergy)
{
    auto &cal = sharedVoltaCalibrator();
    auto partial = cal.partialModel();
    for (double e : partial.energyNj)
        EXPECT_DOUBLE_EQ(e, 0.0);
    EXPECT_GT(partial.constPowerW, 0.0);
    EXPECT_EQ(partial.calibrationSms, 80);
}

TEST(Calibrator, TuningSuiteCachedAndMeasured)
{
    auto &cal = sharedVoltaCalibrator();
    EXPECT_EQ(cal.tuningSuite().size(), 102u);
    EXPECT_EQ(cal.tuningPowerW().size(), 102u);
    for (double w : cal.tuningPowerW()) {
        EXPECT_GT(w, 30.0);
        EXPECT_LT(w, cal.gpu().powerLimitW);
    }
}

TEST(Calibrator, VariantModelsCached)
{
    auto &cal = sharedVoltaCalibrator();
    const auto &a = cal.variant(Variant::SassSim);
    const auto &b = cal.variant(Variant::SassSim);
    EXPECT_EQ(&a, &b); // same cached object
    EXPECT_EQ(a.variant, Variant::SassSim);
}

TEST(Calibrator, TunedEnergiesPositiveAndPlausible)
{
    auto &cal = sharedVoltaCalibrator();
    const auto &model = cal.variant(Variant::SassSim).model;
    for (size_t i = 0; i < kNumPowerComponents; ++i) {
        EXPECT_GT(model.energyNj[i], 0.0);
        EXPECT_LT(model.energyNj[i], 100.0);
    }
    // DRAM access costs far more than an ALU op, in truth and in the
    // tuned model alike.
    EXPECT_GT(model.energyNj[componentIndex(PowerComponent::DramMc)],
              model.energyNj[componentIndex(PowerComponent::IntAdd)]);
}

TEST(Calibrator, FermiStartBeatsAllOnesOnTraining)
{
    auto &cal = sharedVoltaCalibrator();
    const auto &v = cal.variant(Variant::SassSim);
    EXPECT_LE(v.tuningFermi.trainingMapePct,
              v.tuningOnes.trainingMapePct + 0.5);
}

TEST(Calibrator, OwnsItsCardAndSharesExecutionsWithinACampaign)
{
    // The calibrator measures and profiles its own copy of the card, so
    // NVML and Nsight share one oracle execution per kernel within the
    // campaign, and a second calibrator of the same card starts cold.
    // (Only a measurement and a profile here: a fresh calibrator's
    // constantPower()/staticPower() would move the idle-SM counter that
    // IdleSmGeomeanExcludesNonPositiveEstimates pins.)
    auto &cache = ResultCache::instance();
    const bool wasEnabled = cache.enabled();
    cache.setEnabled(false); // every request reaches the oracle
    auto &executions = obs::metrics().counter("hw.oracle.executions");
    const KernelDescriptor k = occupancyKernel(40, 2);

    AccelWattchCalibrator cal(sharedVoltaCard());
    EXPECT_EQ(&cal.nvml().oracle(), &cal.oracle());
    EXPECT_EQ(&cal.nsight().oracle(), &cal.oracle());
    double before = executions.value();
    EXPECT_TRUE(tryMeasurePowerCached(cal.oracle(), k));
    cal.nsight().collectCounters(k);
    EXPECT_EQ(executions.value(), before + 1);

    AccelWattchCalibrator second(sharedVoltaCard());
    before = executions.value();
    EXPECT_TRUE(tryMeasurePowerCached(second.oracle(), k));
    second.nsight().collectCounters(k);
    EXPECT_EQ(executions.value(), before + 1);
    cache.setEnabled(wasEnabled);
}
