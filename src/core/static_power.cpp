#include "core/static_power.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "core/result_cache.hpp"
#include "obs/metrics.hpp"
#include "solver/polyfit.hpp"
#include "ubench/microbench.hpp"

namespace aw {

Result<double>
tryMeasureStaticPowerW(NvmlEmu &nvml, const KernelDescriptor &kernel,
                       const std::vector<double> &sweepFreqsGhz)
{
    AW_ASSERT(sweepFreqsGhz.size() >= 3);
    std::vector<double> powers =
        parallelMap<double>(sweepFreqsGhz.size(), [&](size_t i) {
            Result<double> r = tryMeasurePowerCached(
                nvml.oracle(), kernel, sweepFreqsGhz[i]);
            return r ? *r : std::nan("");
        });
    std::vector<double> fs, ps;
    for (size_t i = 0; i < powers.size(); ++i) {
        if (!std::isfinite(powers[i]))
            continue;
        fs.push_back(sweepFreqsGhz[i]);
        ps.push_back(powers[i]);
    }
    if (ps.size() < 3)
        return MeasureError{
            FailCause::SampleLoss,
            strprintf("static sweep of %s kept %zu of %zu points: too "
                      "few for the Eq. 3 fit",
                      kernel.name.c_str(), ps.size(),
                      sweepFreqsGhz.size())};
    auto fit = fitCubicNoQuad(fs, ps);
    // The tau*f term at the default application clock is the static
    // power estimate (Section 4.4).
    return fit.tau * nvml.oracle().config().defaultClockGhz;
}

double
measureStaticPowerW(NvmlEmu &nvml, const KernelDescriptor &kernel,
                    const std::vector<double> &sweepFreqsGhz)
{
    Result<double> r = tryMeasureStaticPowerW(nvml, kernel, sweepFreqsGhz);
    if (!r)
        fatal("%s", r.error().message.c_str());
    return *r;
}

StaticPowerResult
calibrateStaticPower(NvmlEmu &nvml, double constPowerW,
                     const StaticCalibrationOptions &opts)
{
    AW_ASSERT(opts.laneProbes.size() >= 3);
    AW_ASSERT(opts.laneProbes.front() == 1 && opts.laneProbes.back() == 32);

    StaticPowerResult result;

    // --- divergence models per mix category (Sections 4.4-4.5) ----------
    // Every (category, lane-count) probe is an independent frequency
    // sweep; run them all through the task pool, then assemble the
    // models serially in category order (IntFpTensor may reuse IntFp's
    // model, which enum ordering guarantees is already filled in).
    const bool hasTensor = nvml.oracle().config().hasTensorCores;
    struct LaneProbe
    {
        size_t category;
        int lanes;
    };
    std::vector<LaneProbe> probes;
    for (size_t c = 0; c < kNumMixCategories; ++c) {
        if (static_cast<MixCategory>(c) == MixCategory::IntFpTensor &&
            !hasTensor)
            continue;
        for (int y : opts.laneProbes)
            probes.push_back({c, y});
    }
    std::vector<double> probeStaticW =
        parallelMap<double>(probes.size(), [&](size_t i) {
            KernelDescriptor probe = mixCategoryProbe(
                static_cast<MixCategory>(probes[i].category),
                probes[i].lanes);
            // The probe's mix must actually classify as the category it
            // calibrates, or the model table would be inconsistent.
            Result<double> r =
                tryMeasureStaticPowerW(nvml, probe, opts.sweepFreqsGhz);
            if (r)
                return *r;
            warn("static power: lost divergence probe %s: %s",
                 probe.name.c_str(), r.error().message.c_str());
            obs::metrics().counter("calibration.lane_probes_lost").add(1);
            return std::nan("");
        });

    std::vector<size_t> fallbackCategories;
    size_t probeIdx = 0;
    for (size_t c = 0; c < kNumMixCategories; ++c) {
        auto category = static_cast<MixCategory>(c);
        if (category == MixCategory::IntFpTensor && !hasTensor) {
            // No tensor cores: the category cannot be probed; reuse the
            // IntFp model.
            result.divergence[c] =
                result.divergence[static_cast<size_t>(MixCategory::IntFp)];
            continue;
        }
        DivergenceCalibration cal;
        cal.category = category;
        for (int y : opts.laneProbes) {
            AW_ASSERT(probeIdx < probes.size() &&
                      probes[probeIdx].category == c &&
                      probes[probeIdx].lanes == y);
            // Probes lost to injected faults drop out of the series.
            if (std::isfinite(probeStaticW[probeIdx])) {
                cal.lanes.push_back(y);
                cal.staticW.push_back(probeStaticW[probeIdx]);
            }
            ++probeIdx;
        }

        // Eqs. 4-5 are built from the y=1 and y=32 endpoints; without
        // both, this category cannot be fitted. Borrow the IntFp model
        // (the same degradation path Volta's missing tensor category
        // takes) once the loop has filled it in.
        if (cal.lanes.size() < 2 || cal.lanes.front() != 1 ||
            cal.lanes.back() != 32) {
            warn("static power: category %d lost an endpoint probe; "
                 "falling back to the IntFp divergence model",
                 static_cast<int>(c));
            obs::metrics()
                .counter("calibration.divergence_fallbacks")
                .add(1);
            fallbackCategories.push_back(c);
            continue;
        }

        double at1 = cal.staticW.front();
        double at32 = cal.staticW.back();
        DivergenceModel linear = fitDivergenceEndpoints(at1, at32, false);
        DivergenceModel halfwarp = fitDivergenceEndpoints(at1, at32, true);

        // Select by midpoint fit.
        std::vector<double> measuredMid, linMid, hwMid;
        for (size_t i = 1; i + 1 < cal.lanes.size(); ++i) {
            measuredMid.push_back(cal.staticW[i]);
            linMid.push_back(linear.staticAtLanes(cal.lanes[i]));
            hwMid.push_back(halfwarp.staticAtLanes(cal.lanes[i]));
        }
        if (!measuredMid.empty()) {
            cal.linearErrPct = mape(measuredMid, linMid);
            cal.halfWarpErrPct = mape(measuredMid, hwMid);
        }
        cal.chosen =
            cal.halfWarpErrPct < cal.linearErrPct ? halfwarp : linear;
        result.divergence[c] = cal.chosen;
        result.details.push_back(std::move(cal));
    }

    if (!fallbackCategories.empty()) {
        constexpr size_t intFp = static_cast<size_t>(MixCategory::IntFp);
        if (std::find(fallbackCategories.begin(), fallbackCategories.end(),
                      intFp) != fallbackCategories.end())
            fatal("static power: the IntFp divergence probes failed; no "
                  "fallback model available");
        for (size_t c : fallbackCategories)
            result.divergence[c] = result.divergence[intFp];
    }

    // --- idle-SM power (Section 4.6, Eqs. 6-8) ----------------------------
    const int numSms = nvml.oracle().config().numSms;
    std::vector<double> idleEstimates;
    // Flatten the (flavor, occupancy) grid — the full-chip reference run
    // of each flavor is just one more independent measurement.
    struct IdleProbe
    {
        int flavor;
        int activeSms;
    };
    std::vector<IdleProbe> idleProbes;
    for (int flavor = 0; flavor < 2; ++flavor) {
        idleProbes.push_back({flavor, numSms});
        for (int n : opts.idleOccupancies)
            if (n < numSms)
                idleProbes.push_back({flavor, n});
    }
    std::vector<double> idlePowerW =
        parallelMap<double>(idleProbes.size(), [&](size_t i) {
            Result<double> r = tryMeasurePowerCached(
                nvml.oracle(),
                occupancyKernel(idleProbes[i].activeSms,
                                idleProbes[i].flavor));
            if (r)
                return *r;
            warn("static power: lost idle-SM probe (%d SMs, flavor %d): "
                 "%s",
                 idleProbes[i].activeSms, idleProbes[i].flavor,
                 r.error().message.c_str());
            obs::metrics().counter("calibration.idle_probes_lost").add(1);
            return std::nan("");
        });

    size_t idleIdx = 0;
    for (int flavor = 0; flavor < 2; ++flavor) {
        AW_ASSERT(idleProbes[idleIdx].flavor == flavor &&
                  idleProbes[idleIdx].activeSms == numSms);
        double pFull = idlePowerW[idleIdx++];
        // Without the full-chip reference, Eq. 6 has no per-active-SM
        // estimate and the flavor's experiments are uninterpretable.
        const bool flavorOk = std::isfinite(pFull);
        if (!flavorOk)
            warn("static power: flavor %d lost its full-occupancy "
                 "reference; dropping its idle-SM experiments",
                 flavor);
        double perActive =
            flavorOk ? (pFull - constPowerW) / numSms : 0; // Eq. 6
        for (int n : opts.idleOccupancies) {
            if (n >= numSms)
                continue;
            IdleSmExperiment exp;
            exp.activeSms = n;
            AW_ASSERT(idleProbes[idleIdx].activeSms == n);
            exp.totalPowerW = idlePowerW[idleIdx++];
            if (!flavorOk || !std::isfinite(exp.totalPowerW))
                continue;
            double idleSmsW =
                exp.totalPowerW - constPowerW - perActive * n; // Eq. 7
            exp.perIdleSmW = idleSmsW / (numSms - n);
            // Eq. 8 is a geomean, defined only over positive terms, so
            // an Eq. 7 estimate <= 0 is excluded from it and counted.
            if (exp.perIdleSmW > 0) {
                idleEstimates.push_back(exp.perIdleSmW);
            } else {
                warn("idle-SM experiment at %d SMs gave non-positive "
                     "estimate %.4f W; dropped from the geomean",
                     n, exp.perIdleSmW);
                obs::metrics().counter("calibration.idle_sm_dropped").add(1);
            }
            result.idleExperiments.push_back(exp);
        }
    }
    if (idleEstimates.empty())
        fatal("idle-SM calibration produced no usable experiments");
    result.idleSmW = geomean(idleEstimates); // Eq. 8
    return result;
}

} // namespace aw
