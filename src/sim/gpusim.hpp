/**
 * @file
 * Top-level trace-driven GPU performance simulator (the repository's
 * Accel-Sim substitute). It executes a kernel's warp program on
 * detailed models of SM groups — one by default, the representative SM
 * of the paper's all-active-SMs-contribute-equally assumption (Eq. 6) —
 * shares the L2/DRAM according to the number of active SMs, and scales
 * each group's activity by the SMs it stands for. The simulation loop
 * itself is runShardedSim (sim/shard.hpp).
 *
 * Output is the KernelActivity stream AccelWattch consumes: 500-cycle
 * activity samples with per-component access counts, occupancy, mix,
 * and V/f settings.
 */
#pragma once

#include <atomic>

#include "arch/activity.hpp"
#include "arch/gpu_config.hpp"
#include "sim/sm.hpp"
#include "trace/tracegen.hpp"
#include "trace/workload.hpp"

namespace aw {

/** Warp scheduling policy of the processing blocks. */
enum class SchedulerPolicy : uint8_t
{
    Gto,       ///< greedy-then-oldest (Accel-Sim's default)
    RoundRobin ///< loose round-robin across resident warps
};

/** Simulation controls. */
struct SimOptions
{
    double freqGhz = 0;             ///< 0 = architecture default clock
    int sampleIntervalCycles = 500; ///< paper's sampling period
    long maxCycles = 20'000'000;    ///< runaway guard per wave
    SchedulerPolicy scheduler = SchedulerPolicy::Gto;

    /**
     * Detailed SM groups (model-fidelity knob, AW_SIM_DETAIL when 0).
     * 1 = the historical single-representative model (Eq. 6: one SM is
     * simulated and its activity scaled chip-wide). N > 1 = the sharded
     * engine simulates N distinct SM groups with decorrelated address
     * streams and merges their activity with an ordered reduction —
     * relaxing the all-SMs-identical assumption, which is why (and only
     * why) it enters result-cache keys. Clamped to the launch's active
     * SMs at run time. Changing the *thread* count never changes
     * results; changing detail does.
     */
    int detailSms = 0;

    /** Worker threads that run shards; 0 = simThreadCount()
     *  (AW_SIM_THREADS, default 1). Never affects results. */
    int simThreads = 0;

    /**
     * Cooperative cancellation (the awd service's per-request deadline
     * propagated into the estimation path): when non-null, every shard
     * polls it before its first step and at each sample close, stops
     * once it reads true, and the run returns the partial activity and
     * flags lastSimRunStats().cancelled. Callers must treat a
     * cancelled result as garbage — the cached helpers never store it.
     * Null (the default) is bit-identical to a build without the field;
     * never part of cache keys.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/**
 * The detail-group count `opts` resolves to before run-time clamping:
 * opts.detailSms when set, else the setSimDetail override, else
 * AW_SIM_DETAIL, else 1. Result-cache keys use this unclamped value (a
 * cache hit must not depend on the kernel's launch shape).
 */
int effectiveSimDetail(const SimOptions &opts);

/** Override the AW_SIM_DETAIL default for options that leave
 *  detailSms at 0 (0 reverts to the environment). The CLI's
 *  --sim-detail flag. */
void setSimDetail(int n);

/**
 * Execution statistics of the most recent GpuSimulator::run on the
 * calling thread (thread-local, so concurrent pipeline tasks cannot
 * race): shard and thread shape and issue counters. Run and shard
 * times come from the profiler's `sim/kernel` and `sim/wave` zones
 * (obs/trace.hpp).
 */
struct SimRunStats
{
    int shards = 1;  ///< shards run: the effective (clamped) detail groups
    int threads = 1; ///< worker threads used: the cap, at most one per shard
    bool cancelled = false; ///< run stopped early on SimOptions::cancel
    long issuedInsts = 0;   ///< summed over shards, in SM-index order
    /** SmCore steps with at least one issue / with none, summed over
     *  shards. Steps, not simulated cycles: a fast-forward across many
     *  idle cycles counts one stall, so issueCycles + stallCycles is
     *  the step count. */
    long issueCycles = 0;
    long stallCycles = 0;
};

/** Stats of the calling thread's most recent run (see SimRunStats). */
const SimRunStats &lastSimRunStats();

/** How a launch maps onto the chip. */
struct LaunchShape
{
    int activeSms = 0;     ///< k in Eq. 10
    int residentWarps = 0; ///< warps resident on one SM
    int waves = 1;         ///< launch waves until all CTAs retire
};

/** Trace-driven performance model for one GPU configuration. */
class GpuSimulator
{
  public:
    explicit GpuSimulator(GpuConfig gpu) : gpu_(std::move(gpu)) {}

    const GpuConfig &gpu() const { return gpu_; }

    /** Compute the launch mapping for a kernel on this GPU. */
    LaunchShape launchShape(const KernelDescriptor &desc) const;

    /**
     * Simulate one kernel given its (SASS or PTX) warp program.
     * The returned samples cover one launch wave; totalCycles and
     * elapsedSec cover the whole kernel (waves are homogeneous).
     */
    KernelActivity run(const KernelDescriptor &desc,
                       const WarpProgram &program,
                       const SimOptions &opts = {}) const;

    /** Convenience: generate the SASS program and simulate. */
    KernelActivity runSass(const KernelDescriptor &desc,
                           const SimOptions &opts = {}) const;

    /** Convenience: generate the PTX program and simulate. */
    KernelActivity runPtx(const KernelDescriptor &desc,
                          const SimOptions &opts = {}) const;

  private:
    GpuConfig gpu_;
};

} // namespace aw
