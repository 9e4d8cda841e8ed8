#include "core/calibration.hpp"

#include <cmath>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "core/power_trace.hpp"
#include "core/result_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/powerscope.hpp"
#include "obs/trace.hpp"
#include "ubench/microbench.hpp"

namespace aw {

AccelWattchCalibrator::AccelWattchCalibrator(const SiliconOracle &card)
    : card_(card), nvml_(card_), nsight_(card_), modelSim_(card_.config())
{}

const ConstantPowerResult &
AccelWattchCalibrator::constantPower()
{
    if (!constant_) {
        AW_PROF_SCOPE("calibrate/constant_power");
        constant_ = estimateConstantPower(nvml_, dvfsSuite());
    }
    return *constant_;
}

const StaticPowerResult &
AccelWattchCalibrator::staticPower()
{
    if (!static_) {
        double constW = constantPower().constPowerW;
        AW_PROF_SCOPE("calibrate/static_power");
        static_ = calibrateStaticPower(nvml_, constW);
    }
    return *static_;
}

AccelWattchModel
AccelWattchCalibrator::partialModel()
{
    AccelWattchModel m;
    m.gpu = card_.config();
    m.refVoltage = m.gpu.referenceVoltage();
    m.constPowerW = constantPower().constPowerW;
    m.divergence = staticPower().divergence;
    m.idleSmW = staticPower().idleSmW;
    m.calibrationSms = m.gpu.numSms;
    m.energyNj = {};
    return m;
}

const std::vector<Microbenchmark> &
AccelWattchCalibrator::tuningSuite()
{
    if (suite_.empty())
        suite_ = dynamicPowerSuite(card_.config());
    return suite_;
}

const std::vector<double> &
AccelWattchCalibrator::tuningPowerW()
{
    if (suitePowerW_.empty()) {
        AW_PROF_SCOPE("calibrate/tuning_power");
        const auto &suite = tuningSuite();
        suitePowerW_ = parallelMap<double>(suite.size(), [&](size_t i) {
            Result<double> r =
                tryMeasurePowerCached(card_, suite[i].kernel);
            if (r)
                return *r;
            // Skip-with-warning: the tuner runs on the reduced set
            // rather than the campaign dying on one bad data point.
            warn("skipping tuning microbenchmark %s: %s",
                 suite[i].kernel.name.c_str(),
                 r.error().message.c_str());
            obs::metrics().counter("calibration.ubench_skipped").add(1);
            return std::nan("");
        });
        suiteUsable_.assign(suitePowerW_.size(), 1);
        for (size_t i = 0; i < suitePowerW_.size(); ++i)
            if (!std::isfinite(suitePowerW_[i]))
                suiteUsable_[i] = 0;
    }
    return suitePowerW_;
}

const std::vector<char> &
AccelWattchCalibrator::tuningUsable()
{
    tuningPowerW();
    return suiteUsable_;
}

const CalibratedVariant &
AccelWattchCalibrator::variant(Variant v)
{
    auto &slot = variants_[static_cast<size_t>(v)];
    if (slot)
        return *slot;

    AW_PROF_SCOPE("calibrate/variant");
    obs::metrics().counter("calibration.variants_tuned").add(1);
    ActivityProvider provider(v, modelSim_, &nsight_);
    const auto &suite = tuningSuite();
    const auto &powers = tuningPowerW();
    const auto &usable = tuningUsable();

    // Fault injection can knock individual microbenchmarks out of the
    // campaign (NaN power, usable flag false). The tuner sees only the
    // surviving subset; with faults off this is the identity filter.
    std::vector<size_t> keep;
    keep.reserve(suite.size());
    for (size_t i = 0; i < suite.size(); ++i)
        if (usable[i])
            keep.push_back(i);
    if (keep.size() < suite.size())
        warn("tuning %s for %s on %zu of %zu microbenchmarks (%zu "
             "skipped by measurement failures)",
             variantName(v).c_str(), card_.config().name.c_str(),
             keep.size(), suite.size(), suite.size() - keep.size());
    // The QP needs healthy over-determination to pin ~20 component
    // energies; below this the tuned model would be junk.
    if (keep.size() < kNumPowerComponents + 4)
        fatal("only %zu of %zu tuning microbenchmarks survived "
              "measurement: too few to tune %s",
              keep.size(), suite.size(), variantName(v).c_str());

    std::vector<KernelActivity> activities =
        parallelMap<KernelActivity>(keep.size(), [&](size_t i) {
            return collectActivityCached(provider, suite[keep[i]].kernel);
        });

    std::vector<Microbenchmark> tuneSuite;
    std::vector<double> tunePowers;
    tuneSuite.reserve(keep.size());
    tunePowers.reserve(keep.size());
    for (size_t idx : keep) {
        tuneSuite.push_back(suite[idx]);
        tunePowers.push_back(powers[idx]);
    }

    AccelWattchModel partial = partialModel();
    auto initial = initialEnergyEstimates();
    // Both starting points tune against the same activities: aggregate
    // each microbenchmark's samples once, not once per starting point.
    auto aggregates = aggregateActivities(activities);

    TuningOptions fermiOpts;
    fermiOpts.start = StartingPoint::Fermi;
    TuningOptions onesOpts;
    onesOpts.start = StartingPoint::AllOnes;

    CalibratedVariant cal;
    cal.variant = v;
    cal.ubenchUsed = keep.size();
    cal.ubenchSkipped = suite.size() - keep.size();
    cal.tuningFermi = tuneDynamicPower(tuneSuite, tunePowers,
                                       activities, partial, initial,
                                       fermiOpts, &aggregates);
    cal.tuningOnes = tuneDynamicPower(tuneSuite, tunePowers,
                                      activities, partial, initial,
                                      onesOpts, &aggregates);

    cal.model = partial;
    cal.model.energyNj = cal.tuningFermi.finalEnergyNj;
    cal.modelOnes = partial;
    cal.modelOnes.energyNj = cal.tuningOnes.finalEnergyNj;

    if (obs::PowerScope::instance().enabled()) {
        // Record the tuned model replayed over each surviving tuning
        // microbenchmark — the residual the QP left behind, per kernel.
        // Microbenchmarks are short and homogeneous; 8 merged intervals
        // keep the trace readable.
        for (size_t i = 0; i < keep.size(); ++i) {
            obs::PowerScopeRun run =
                makePowerScopeRun(suite[keep[i]].kernel.name, "tune",
                                  cal.model, activities[i],
                                  /*maxIntervals=*/8);
            run.measuredAvgW = tunePowers[i];
            obs::PowerScope::instance().record(std::move(run));
        }
    }

    inform("tuned AccelWattch %s for %s: training MAPE %.2f%% (Fermi "
           "start) vs %.2f%% (all-ones start)",
           variantName(v).c_str(), card_.config().name.c_str(),
           cal.tuningFermi.trainingMapePct, cal.tuningOnes.trainingMapePct);

    slot = std::move(cal);
    return *slot;
}

const SiliconOracle &
sharedVoltaCard()
{
    static SiliconOracle card(voltaGV100(), voltaSiliconTruth());
    return card;
}

const SiliconOracle &
sharedPascalCard()
{
    static SiliconOracle card(pascalTitanX(), pascalSiliconTruth());
    return card;
}

const SiliconOracle &
sharedTuringCard()
{
    static SiliconOracle card(turingRTX2060S(), turingSiliconTruth());
    return card;
}

AccelWattchCalibrator &
sharedVoltaCalibrator()
{
    static AccelWattchCalibrator calibrator(sharedVoltaCard());
    return calibrator;
}

} // namespace aw
