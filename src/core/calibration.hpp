/**
 * @file
 * The AccelWattch calibration flow (Figure 1): orchestrates constant-
 * power estimation (step 1), static/divergence/idle calibration (steps
 * 2-3), microbenchmark measurement and activity collection (steps 4-6),
 * and quadratic-programming tuning from both starting points (step 7),
 * producing the final AccelWattch model per variant (step 8).
 *
 * Everything is lazy and cached: constant and static calibration are
 * shared by all variants; each variant adds only its own activity
 * collection and QP solve. Shared per-process calibrators for the Volta
 * card are provided so tests and benches do not repeat the (simulated)
 * hardware campaign.
 */
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/constant_power.hpp"
#include "core/power_model.hpp"
#include "core/static_power.hpp"
#include "core/tuner.hpp"
#include "core/variants.hpp"
#include "hw/nsight.hpp"
#include "hw/nvml.hpp"

namespace aw {

/** Fully tuned model for one variant, with both starting points. */
struct CalibratedVariant
{
    Variant variant{};
    AccelWattchModel model;      ///< adopted model (Fermi start, §5.4)
    AccelWattchModel modelOnes;  ///< all-ones-start model, for comparison
    TuningResult tuningFermi;
    TuningResult tuningOnes;
    size_t ubenchUsed = 0;    ///< microbenchmarks the tuner saw
    size_t ubenchSkipped = 0; ///< dropped to measurement failures
};

/** Calibration campaign against one GPU card (oracle). */
class AccelWattchCalibrator
{
  public:
    /**
     * Calibrate a copy of `card`. Every measurement and profile of the
     * campaign runs on the copy, so its execution memo
     * (SiliconOracle::summary) lives exactly as long as this calibrator:
     * NVML and Nsight share each execution within the campaign, and a
     * second calibrator of the same card starts cold.
     */
    explicit AccelWattchCalibrator(const SiliconOracle &card);
    AccelWattchCalibrator(const AccelWattchCalibrator &) = delete;
    AccelWattchCalibrator &operator=(const AccelWattchCalibrator &) = delete;

    /** The calibrator's own copy of the card. */
    const SiliconOracle &oracle() const { return card_; }
    const GpuConfig &gpu() const { return card_.config(); }

    /** Section 4.2 result (cached after the first call). */
    const ConstantPowerResult &constantPower();

    /** Sections 4.3-4.6 result (cached). */
    const StaticPowerResult &staticPower();

    /** Const + static + idle model with untuned (zero) energies. */
    AccelWattchModel partialModel();

    /** The tuning suite for this GPU. */
    const std::vector<Microbenchmark> &tuningSuite();

    /**
     * NVML power of each tuning microbenchmark (cached). Always aligned
     * with tuningSuite(): a microbenchmark whose measurement failed
     * under fault injection (retries exhausted) holds NaN here and is
     * flagged false in tuningUsable() — the tuner then runs on the
     * reduced set. With faults off every entry is a real power.
     */
    const std::vector<double> &tuningPowerW();

    /** Per-microbenchmark usability flags, aligned with tuningSuite(). */
    const std::vector<char> &tuningUsable();

    /** Fully tuned model for one variant (cached). */
    const CalibratedVariant &variant(Variant v);

    /** Measurement session (exposed for the figure benches). */
    NvmlEmu &nvml() { return nvml_; }

    /** Counter session (exposed for the figure benches). */
    const NsightEmu &nsight() const { return nsight_; }

    /** Software performance model on the public config. */
    const GpuSimulator &simulator() const { return modelSim_; }

  private:
    SiliconOracle card_; ///< declared first: nvml_ and nsight_ bind to it
    NvmlEmu nvml_;
    NsightEmu nsight_;
    GpuSimulator modelSim_;

    std::optional<ConstantPowerResult> constant_;
    std::optional<StaticPowerResult> static_;
    std::vector<Microbenchmark> suite_;
    std::vector<double> suitePowerW_;
    std::vector<char> suiteUsable_;
    std::array<std::optional<CalibratedVariant>, kNumVariants> variants_;
};

/** Shared per-process cards (hidden truths from hw/silicon_model). */
const SiliconOracle &sharedVoltaCard();
const SiliconOracle &sharedPascalCard();
const SiliconOracle &sharedTuringCard();

/** Shared per-process calibrator against the Volta card. */
AccelWattchCalibrator &sharedVoltaCalibrator();

} // namespace aw
