/**
 * @file
 * Power-gating-, divergence- and occupancy-aware static power
 * calibration (Sections 4.3-4.6, Figure 1 steps 2-3).
 *
 * For each of the 9 instruction-mix categories, divergence probes are
 * run at several active-lane counts y, each swept over core clocks and
 * fitted to Eq. 3; the fitted tau*f terms give measured static power per
 * y. Endpoints (y = 1, 32) construct both the linear (Eq. 4) and
 * half-warp (Eq. 5) models; midpoints select whichever fits better —
 * which should agree with Section 4.5's expectation (homogeneous mixes
 * follow the sawtooth, multi-unit mixes the line).
 *
 * Idle-SM power follows Eqs. 6-8: occupancy probes estimate per-active-
 * SM power with all SMs busy, then the residual power of partially-
 * occupied runs is attributed equally to the idle SMs; the geomean
 * across the probes with a positive estimate is the final per-idle-SM
 * estimate (non-positive ones are dropped, warned about and counted in
 * `calibration.idle_sm_dropped`).
 */
#pragma once

#include <vector>

#include "arch/activity.hpp"
#include "core/divergence.hpp"
#include "hw/nvml.hpp"

namespace aw {

/** Calibration record for one mix category. */
struct DivergenceCalibration
{
    MixCategory category{};
    DivergenceModel chosen;     ///< the adopted model
    double linearErrPct = 0;    ///< midpoint MAPE of the linear model
    double halfWarpErrPct = 0;  ///< midpoint MAPE of the half-warp model
    std::vector<double> lanes;          ///< probe y values
    std::vector<double> staticW;        ///< measured static at each y
};

/** One idle-SM experiment (Eq. 7). */
struct IdleSmExperiment
{
    int activeSms = 0;
    double totalPowerW = 0;
    double perIdleSmW = 0;
};

/** Outcome of static-power calibration. */
struct StaticPowerResult
{
    std::array<DivergenceModel, kNumMixCategories> divergence{};
    std::vector<DivergenceCalibration> details;
    double idleSmW = 0; ///< Eq. 8 geomean
    std::vector<IdleSmExperiment> idleExperiments;
};

/** Controls for the calibration sweeps. */
struct StaticCalibrationOptions
{
    std::vector<int> laneProbes = {1, 8, 16, 24, 32};
    std::vector<double> sweepFreqsGhz = {0.6, 0.8, 1.0, 1.2, 1.4};
    std::vector<int> idleOccupancies = {8, 16, 32, 48, 64};
};

/**
 * Run the full Section 4.3-4.6 calibration against a card.
 * @param nvml        measurement session (provides the oracle)
 * @param constPowerW the Section 4.2 constant power estimate
 */
StaticPowerResult calibrateStaticPower(
    NvmlEmu &nvml, double constPowerW,
    const StaticCalibrationOptions &opts = {});

/**
 * Measure static power (the Eq. 3 tau*f term at the default clock) of
 * one kernel via a frequency sweep. Exposed for the Figure 3/4 benches.
 */
double measureStaticPowerW(NvmlEmu &nvml, const KernelDescriptor &kernel,
                           const std::vector<double> &sweepFreqsGhz);

/**
 * Fault-tolerant variant: sweep points whose measurement fails are
 * dropped from the fit; fewer than three survivors (Eq. 3 has three
 * parameters) is a SampleLoss error for the caller to handle.
 */
Result<double> tryMeasureStaticPowerW(
    NvmlEmu &nvml, const KernelDescriptor &kernel,
    const std::vector<double> &sweepFreqsGhz);

} // namespace aw
