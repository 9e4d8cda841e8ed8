#include "hw/nsight.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aw {

KernelActivity
NsightEmu::collectImpl(const KernelDescriptor &desc,
                       const MeasurementConditions &cond) const
{
    AW_PROF_SCOPE("hw/nsight_profile");
    obs::metrics().counter("hw.nsight.profiles").add(1);
    // The whole-kernel view, shared with an NVML measurement of the
    // same kernel under the same conditions.
    const OracleSummary run = oracle_.summary(desc, cond);

    KernelActivity out;
    out.kernelName = desc.name;
    out.totalCycles = run.totalCycles;
    out.elapsedSec = run.elapsedSec;

    ActivitySample agg = run.aggregate;
    for (size_t i = 0; i < kNumPowerComponents; ++i) {
        auto c = static_cast<PowerComponent>(i);
        // Components without a counter read as zero; DRAM under-reports
        // by its precharge share (no precharge counter on Volta).
        agg.accesses[i] *= 1.0 - counterBlindFraction(c);
    }
    out.samples.push_back(std::move(agg));
    return out;
}

KernelActivity
NsightEmu::collectCounters(const KernelDescriptor &desc,
                           const MeasurementConditions &cond) const
{
    return collectImpl(desc, cond);
}

bool
NsightEmu::componentUnavailable(PowerComponent c) const
{
    FaultConfig cfg = FaultInjector::globalConfig();
    double rate = cfg.rate(FaultClass::CounterFail);
    if (rate <= 0)
        return false;
    // Persistent breakage is a property of (card, component, chaos
    // seed), not of any one profile: hash them statelessly so every
    // session, thread and retry sees the same broken set.
    return faultRoll(cfg.seed ^ oracle_.cacheSalt(),
                     FaultClass::CounterFail,
                     static_cast<uint64_t>(componentIndex(c))) < rate;
}

Result<NsightEmu::Collection>
NsightEmu::tryCollectCounters(const KernelDescriptor &desc,
                              const MeasurementConditions &cond,
                              FaultStream *faults) const
{
    const bool chaos = faults && faults->active();
    if (chaos && faults->fires(FaultClass::CounterFail)) {
        obs::metrics().counter("hw.nsight.collection_failures").add(1);
        return MeasureError{
            FailCause::CounterFailure,
            strprintf("Nsight counter collection failed for %s",
                      desc.name.c_str())};
    }

    Collection col;
    col.activity = collectImpl(desc, cond);
    if (!chaos)
        return col;

    AW_ASSERT(col.activity.samples.size() == 1);
    auto &acc = col.activity.samples[0].accesses;
    const double muxSigma =
        faults->config().rate(FaultClass::CounterMuxNoise);
    for (size_t i = 0; i < kNumPowerComponents; ++i) {
        auto c = static_cast<PowerComponent>(i);
        if (componentUnavailable(c)) {
            // Broken counter: Nsight reports nothing for it. The caller
            // substitutes the software model (HW -> SASS fallback).
            acc[i] = 0.0;
            col.unavailable.push_back(c);
            continue;
        }
        if (muxSigma > 0 && acc[i] > 0) {
            // Counter multiplexing: each metric was sampled over a
            // slice of the run and scaled up, so every counter carries
            // independent relative noise. The class rate doubles as
            // the noise sigma.
            double factor =
                1.0 + faults->gaussian(FaultClass::CounterMuxNoise,
                                       muxSigma);
            acc[i] *= std::max(0.0, factor);
        }
    }
    if (muxSigma > 0)
        obs::metrics()
            .counter("faults.injected.counter_mux_noise")
            .add(1);
    if (!col.unavailable.empty())
        obs::metrics()
            .counter("hw.nsight.unavailable_counters")
            .add(static_cast<double>(col.unavailable.size()));
    return col;
}

} // namespace aw
