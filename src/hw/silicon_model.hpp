/**
 * @file
 * The silicon oracle: this repository's stand-in for real GPU hardware.
 *
 * The paper tunes and validates AccelWattch against physical GPUs
 * observed through NVML power readings and Nsight performance counters.
 * Without silicon, we substitute a ground-truth model with *hidden*
 * parameters (per-component energies, gating leakages, V-F behaviour,
 * half-warp execution mechanics, per-kernel unmodeled-behaviour wobble)
 * that the tuning pipeline can only observe the way the paper could:
 * through total-power measurements (NvmlEmu) and a restricted counter
 * set (NsightEmu).
 *
 * Crucially the oracle's *mechanisms* are richer than AccelWattch's
 * *models* of them — it executes on a hidden, perturbed configuration
 * and computes divergence static power from half-warp duty cycles — so
 * the model error measured in validation is real, not injected noise.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "arch/activity.hpp"
#include "arch/gpu_config.hpp"
#include "sim/gpusim.hpp"
#include "trace/workload.hpp"

namespace aw {

/** Hidden ground-truth electrical parameters of one GPU. */
struct SiliconParams
{
    /** Board fans + peripheral circuitry (the paper's P_const). */
    double constPowerW = 32.5;

    // --- power-gated leakage hierarchy (Section 4.3), at V_ref, 65C ---
    double chipGlobalLeakW = 11.0; ///< L2/NoC/MC etc.: first SM powers up
    double smWideLeakW = 0.34;     ///< L1s, shared mem: first lane powers
    double laneLeakW = 0.006;      ///< per-lane functional units
    double idleSmLeakW = 0.045;    ///< residual leak of a gated SM

    /** True energy per access (nJ) per Table 1 component. */
    ComponentArray<double> energyNj{};

    /** Static power scales ~ (V / V_ref)^staticVoltageExp. */
    double staticVoltageExp = 1.0;
    /** Dynamic energy scales ~ (V / V_ref)^2 (CV^2). */
    double dynamicVoltageExp = 2.0;
    /** Leakage doubles roughly every this many degrees C above 65. */
    double leakTempDoubleC = 28.0;

    /** NVML-level relative measurement noise (sigma). */
    double measurementNoise = 0.004;
    /**
     * Magnitude of deterministic per-kernel behaviour the performance
     * models cannot capture (relative, applied to runtime and memory/
     * compute activity). This is what bounds achievable validation MAPE
     * for the simulator-driven variants.
     */
    double perKernelWobble = 0.05;
    /**
     * Per-kernel data-dependent switching energy deviation: the same
     * instruction stream toggles different bit patterns in different
     * kernels, so energy per access varies in ways *no activity
     * counter can see*. This bounds even the HW variant's accuracy.
     */
    double dataWobble = 0.18;
};

/** Conditions under which a hardware measurement is taken. */
struct MeasurementConditions
{
    double freqGhz = 0;  ///< 0 = default application clock (Section 4.1)
    double tempC = 65.0; ///< chip temperature during measurement
};

/** One execution on "silicon". */
struct OracleRun
{
    KernelActivity activity; ///< true chip activity (whole run)
    double avgPowerW = 0;    ///< true average power, before NVML noise
    double constW = 0;       ///< truth decomposition, for white-box tests
    double staticW = 0;
    double idleSmW = 0;
    double dynamicW = 0;
};

/**
 * The whole-kernel view of one execution: what NVML, Nsight and the
 * concurrent scheduler read from a run, without its per-interval
 * timeline. Every field is exactly what the matching OracleRun holds
 * (`aggregate` is activity.aggregate()).
 */
struct OracleSummary
{
    ActivitySample aggregate;
    double totalCycles = 0;
    double elapsedSec = 0;
    double avgPowerW = 0;
    double dynamicW = 0;
};

/** Canonical one-line key fragments: every field that can change an
 *  execution appears here. The oracle's execution memo and the result
 *  cache key on the same strings. */
std::string describeKernel(const KernelDescriptor &k);
std::string describeConditions(const MeasurementConditions &c);

/** Ground-truth parameter sets for the three target GPUs (Table 3). */
SiliconParams voltaSiliconTruth();
SiliconParams pascalSiliconTruth();
SiliconParams turingSiliconTruth();

/** A GPU chip: public architecture + hidden electrical truth. */
class SiliconOracle
{
  public:
    /**
     * @param publicConfig the architecture as documented (what the
     *                     performance model is configured with)
     * @param truth        hidden electrical parameters
     * @param hwSeed       seeds the hidden microarchitectural deviations
     */
    SiliconOracle(GpuConfig publicConfig, SiliconParams truth,
                  uint64_t hwSeed = 0x51C0ULL);

    /** Run a kernel on silicon and return the true power and activity.
     *  Always executes; the per-interval timeline is not memoized. */
    OracleRun execute(const KernelDescriptor &desc,
                      const MeasurementConditions &cond = {}) const;

    /**
     * The whole-kernel view of execute(desc, cond), memoized per
     * (describeKernel, describeConditions): the first request executes
     * (`hw.oracle.executions`), every later one reuses the view
     * (`hw.oracle.reused`), and concurrent first requests for one key
     * execute once. An NVML measurement and the Nsight profile of the
     * same kernel under the same conditions therefore share one
     * execution, as they share one microbenchmark run in the paper's
     * workflow. The memo lives as long as this oracle; a copy starts
     * empty.
     */
    OracleSummary summary(const KernelDescriptor &desc,
                          const MeasurementConditions &cond = {}) const;

    /**
     * Run several kernels concurrently, the way real hardware executes a
     * DeepBench benchmark's 10-130 small kernels (Section 7.2): an
     * event-driven scheduler packs kernels onto the SM pool (each kernel
     * occupies its smLimit SMs) and starts the next queued kernel the
     * moment space frees up. Returns the true average power over the
     * whole concurrent execution and its elapsed time.
     */
    struct ConcurrentRun
    {
        double avgPowerW = 0;
        double elapsedSec = 0;
    };
    ConcurrentRun executeConcurrent(
        const std::vector<KernelDescriptor> &kernels,
        const MeasurementConditions &cond = {}) const;

    /**
     * True instantaneous power for a given activity sample under the
     * given conditions (used by execute() and by white-box tests).
     * @param dynFactor data-dependent switching-energy factor for the
     *        running kernel (see dataToggleFactor)
     */
    double truePower(const ActivitySample &sample,
                     const MeasurementConditions &cond,
                     OracleRun *breakdown = nullptr,
                     double dynFactor = 1.0) const;

    /**
     * The hidden data-dependent switching-energy factor of a kernel
     * (deterministic in its name). Multiplies dynamic power; invisible
     * to every activity counter.
     */
    double dataToggleFactor(const std::string &kernelName) const;

    /** The documented (public) architecture description. */
    const GpuConfig &config() const { return publicConfig_; }

    /**
     * Digest of this card's *hidden* identity (electrical truth and
     * hardware seed). Two oracles with the same public config but
     * different hidden parameters measure different power; result-cache
     * keys include this salt so their measurements never collide. The
     * value reveals nothing usable about the truth parameters.
     */
    uint64_t cacheSalt() const;

    /** White-box access for tests; the tuner never reads this. */
    const SiliconParams &truth() const { return truth_; }

    /** The hidden config actually executed (white-box, tests only). */
    const GpuConfig &hiddenConfig() const { return hiddenConfig_; }

  private:
    /** Mechanism-level divergence static power for active SMs. */
    double activeSmStaticW(const ActivitySample &sample) const;

    /** summary()'s entries. A copy of an oracle starts without them,
     *  and oracles are not assignable: views belong to the oracle that
     *  ran them. */
    class ExecutionMemo
    {
      public:
        struct Slot
        {
            std::once_flag once;
            OracleSummary view;
        };

        ExecutionMemo() = default;
        ExecutionMemo(const ExecutionMemo &) {}
        ExecutionMemo &operator=(const ExecutionMemo &) = delete;

        /** The slot for `key`, created empty on first use. Slots are
         *  never removed, so the pointer stays valid for the memo's
         *  lifetime. */
        Slot *slot(const std::string &key);

      private:
        std::mutex mu_;
        std::unordered_map<std::string, std::unique_ptr<Slot>> slots_;
    };

    GpuConfig publicConfig_;
    GpuConfig hiddenConfig_;
    SiliconParams truth_;
    GpuSimulator hiddenSim_;
    uint64_t hwSeed_;
    mutable ExecutionMemo memo_;
};

/**
 * Weight of half-warp (vs. linear) static power behaviour given how many
 * distinct compute-unit families execute concurrently (Section 4.5): a
 * single unit type shows the full sawtooth; ILP across units smooths it.
 */
double halfWarpMechanismWeight(int significantUnitKinds);

/**
 * Mechanism-level mean powered lanes for a warp with y active lanes:
 * blend of half-warp duty cycle (full/partial pass alternation) and
 * always-powered linear behaviour.
 */
double meanPoweredLanes(double y, double halfWarpWeight);

} // namespace aw
