/**
 * @file
 * Simulator phase-time attribution: cheap scoped wall-clock accumulators
 * over the named phases of a simulation run (trace generation, SM/memory
 * setup, the issue loop, the memory subsystem, activity sampling,
 * finalization, power evaluation, tuning). The goal is the artifact the
 * "Parallelizing a modern GPU simulator" line of work starts from — a
 * breakdown that says exactly where the serial simulator spends its
 * time — so a parallelization effort knows which phase to shard first.
 *
 * Attribution is EXCLUSIVE: a scope's children (e.g. the memory scopes
 * opened inside the issue loop) subtract their elapsed time from the
 * parent, so the per-phase seconds sum to the wall time of the outermost
 * scopes instead of double-counting nesting. Nesting is tracked with a
 * thread_local stack; each thread attributes independently into the
 * shared atomic accumulators. That makes the layer correct under the
 * sharded simulator (src/sim/shard.cpp) with one caveat it honors: a
 * coordinator must NOT hold an outer scope that spans a parallel region
 * whose workers open their own scopes — the workers' time would land
 * twice (once in their scopes, once in the coordinator's, since
 * cross-thread scopes are not parent/child). Each shard task therefore
 * opens its own Issue/Memory/Sampling scopes, and the caller's setup
 * and sample merge sit in Setup and Finalize scopes outside the region.
 *
 * Cost model: disabled (the default — AW_PHASES unset), a PhaseScope is
 * one relaxed atomic load and no clock reads, and simulator output is
 * bit-identical to an uninstrumented build. Enabled, each scope costs
 * two steady_clock reads; the hottest site (one scope per memory
 * instruction) roughly doubles the cost of that instruction's model,
 * which is acceptable for an opt-in attribution run.
 *
 * Export: snapshot() for the PerfLab `sim_phases` bench (which writes
 * `results/BENCH_sim_phases.json`) and publish(), which surfaces
 * `sim.phase.<name>_sec` gauges through the metrics registry so
 * AW_METRICS_OUT telemetry carries the breakdown. Gauges are only
 * created by publish(), so telemetry output is unchanged when the layer
 * is off.
 */
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace aw::obs {

/** The attributed phases of a simulation / modeling run. */
enum class SimPhase : uint8_t
{
    Tracegen, ///< SASS/PTX warp-program generation
    Setup,    ///< shard plan + MemorySystem/SmCore construction
    Issue,    ///< the shard loop: scheduling + non-memory issue
    Memory,   ///< memory-instruction modeling (L1/L2/DRAM)
    Sampling, ///< 500-cycle activity-sample close + drain
    Finalize, ///< shard sample merge, chip-wide scaling, metrics flush
    Evaluate, ///< AccelWattch power evaluation of an activity stream
    Tune,     ///< Eq. 14 dynamic-power tuning (QP assembly + solve)
};

inline constexpr size_t kNumSimPhases = 8;

/** Lowercase stable name ("tracegen", "issue", ...). */
const char *simPhaseName(SimPhase phase);

/** One phase's accumulated exclusive time. */
struct PhaseStat
{
    double sec = 0;     ///< exclusive wall seconds
    uint64_t count = 0; ///< closed scopes
};

/** Process-wide accumulator, one slot per SimPhase. */
class PhaseTimers
{
  public:
    static PhaseTimers &instance();

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Add exclusive seconds to a phase (lock-free). */
    void add(SimPhase phase, double sec);

    /** Zero every accumulator (does not change enabled()). */
    void reset();

    std::array<PhaseStat, kNumSimPhases> snapshot() const;

    /** Sum of exclusive seconds over all phases. */
    double totalSec() const;

    /**
     * Surface the breakdown as `sim.phase.<name>_sec` /
     * `sim.phase.<name>_scopes` gauges in the metrics registry.
     * Only phases with at least one closed scope are published, so a
     * run that never enabled the layer leaves telemetry untouched.
     */
    void publish() const;

  private:
    PhaseTimers() = default;
    std::atomic<bool> enabled_{false};
    std::array<std::atomic<double>, kNumSimPhases> sec_{};
    std::array<std::atomic<uint64_t>, kNumSimPhases> count_{};
};

/**
 * RAII exclusive-time measurement into PhaseTimers. Inert (one relaxed
 * load, no clock reads) while the layer is disabled.
 */
class PhaseScope
{
  public:
    explicit PhaseScope(SimPhase phase);
    ~PhaseScope();
    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    PhaseScope *parent_ = nullptr;
    std::chrono::steady_clock::time_point start_{};
    double childSec_ = 0;
    SimPhase phase_;
    bool active_;
};

/** Enable the layer when AW_PHASES is set to anything but "" or "0". */
void initPhaseTimersFromEnv();

} // namespace aw::obs
