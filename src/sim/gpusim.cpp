#include "sim/gpusim.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include <optional>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "sim/shard.hpp"

namespace aw {

namespace {

/** The calling thread's most recent run statistics (thread-local so
 *  concurrent pipeline tasks cannot race on it). */
thread_local SimRunStats t_lastStats;

int
simDetailFromEnvironment()
{
    const char *env = std::getenv("AW_SIM_DETAIL");
    if (!env || !*env)
        return 1;
    char *end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 1 || v > 1024) {
        warn("AW_SIM_DETAIL='%s' is not a detail-group count in "
             "[1, 1024]; using 1 (single representative SM)",
             env);
        return 1;
    }
    return static_cast<int>(v);
}

/** Per-kernel flush of the SM counters into the registry (static
 *  references: one name lookup per process, then lock-free).
 *  `sim.sm.issue_cycles` and `sim.sm.issue_stalls` count SmCore steps
 *  with and without an issue (see SimRunStats), not simulated cycles. */
void
flushSimMetrics(double cycles, size_t sampleCount, int waves,
                long issued, long issueCycles, long stallCycles)
{
    using obs::metrics;
    static obs::Counter &kernelsC = metrics().counter("sim.kernels");
    static obs::Counter &cyclesC =
        metrics().counter("sim.cycles_simulated");
    static obs::Counter &samplesC = metrics().counter("sim.samples");
    static obs::Counter &wavesC = metrics().counter("sim.waves");
    static obs::Counter &instsC =
        metrics().counter("sim.sm.insts_issued");
    static obs::Counter &issueCyclesC =
        metrics().counter("sim.sm.issue_cycles");
    static obs::Counter &stallsC =
        metrics().counter("sim.sm.issue_stalls");
    kernelsC.add(1);
    cyclesC.add(cycles);
    samplesC.add(static_cast<double>(sampleCount));
    wavesC.add(waves);
    instsC.add(static_cast<double>(issued));
    issueCyclesC.add(static_cast<double>(issueCycles));
    stallsC.add(static_cast<double>(stallCycles));
}

} // namespace

static std::atomic<int> gSimDetailOverride{0};

int
effectiveSimDetail(const SimOptions &opts)
{
    if (opts.detailSms > 0)
        return opts.detailSms;
    int v = gSimDetailOverride.load(std::memory_order_relaxed);
    if (v > 0)
        return v;
    static const int fromEnv = simDetailFromEnvironment();
    return fromEnv;
}

void
setSimDetail(int n)
{
    if (n < 0)
        fatal("setSimDetail: %d is not a valid detail-group count", n);
    gSimDetailOverride.store(n, std::memory_order_relaxed);
}

const SimRunStats &
lastSimRunStats()
{
    return t_lastStats;
}

LaunchShape
GpuSimulator::launchShape(const KernelDescriptor &desc) const
{
    LaunchShape shape;
    int smCap = desc.smLimit > 0 ? std::min(desc.smLimit, gpu_.numSms)
                                 : gpu_.numSms;
    shape.activeSms = std::clamp(desc.ctas, 1, smCap);

    int residentCtas = std::max(
        1, std::min(desc.ctasPerSm,
                    (desc.ctas + shape.activeSms - 1) / shape.activeSms));
    int maxWarps = gpu_.maxWarpsPerSubcore * gpu_.subcoresPerSm;
    shape.residentWarps =
        std::clamp(residentCtas * desc.warpsPerCta, 1, maxWarps);

    int ctasPerWave =
        std::max(1, shape.activeSms *
                        std::max(1, shape.residentWarps /
                                        std::max(1, desc.warpsPerCta)));
    shape.waves = std::max(1, (desc.ctas + ctasPerWave - 1) / ctasPerWave);
    return shape;
}

KernelActivity
GpuSimulator::run(const KernelDescriptor &desc, const WarpProgram &program,
                  const SimOptions &opts) const
{
    AW_PROF_SCOPE("sim/kernel");
    std::optional<obs::PhaseScope> setupPhase;
    setupPhase.emplace(obs::SimPhase::Setup);
    const double f = opts.freqGhz > 0 ? opts.freqGhz : gpu_.defaultClockGhz;
    LaunchShape shape = launchShape(desc);

    const int detail = std::min(effectiveSimDetail(opts), shape.activeSms);
    if (detail > 1) {
        // Sharded engine: distinct detailed SM groups on worker
        // threads, epoch-synced at the memory boundary. It opens its
        // own phase scopes (workers attribute their own time).
        setupPhase.reset();
        t_lastStats = SimRunStats{};
        KernelActivity out = runShardedSim(gpu_, desc, program, opts,
                                           shape, f, detail, t_lastStats);
        flushSimMetrics(out.totalCycles / shape.waves, out.samples.size(),
                        shape.waves, t_lastStats.issuedInsts,
                        t_lastStats.issueCycles, t_lastStats.stallCycles);
        AW_DEBUGF("sim",
                  "%s: %.0f cycles, %zu samples, %d waves, %ld insts "
                  "(%d shards, %d threads, %d epochs)",
                  desc.name.c_str(), out.totalCycles, out.samples.size(),
                  shape.waves, t_lastStats.issuedInsts, t_lastStats.shards,
                  t_lastStats.threads, t_lastStats.epochs);
        return out;
    }

    // The emulation (PTX) path carries the legacy idealized memory
    // model; the trace-driven (SASS) path models bandwidth contention.
    MemorySystem mem(gpu_, shape.activeSms, f,
                     program.isa == IsaLevel::Ptx);
    SmCore sm(gpu_, desc, program, shape.residentWarps, mem, f,
              opts.scheduler == SchedulerPolicy::RoundRobin);

    KernelActivity out;
    out.kernelName = desc.name;
    setupPhase.reset();

    const double interval = opts.sampleIntervalCycles;
    double now = 0;
    double sampleStart = 0;
    bool cancelled = false;
    const auto simStart = std::chrono::steady_clock::now();
    {
        AW_PROF_SCOPE("sim/wave");
        // The issue phase owns the whole wave loop; the memory scopes
        // opened inside SmCore::memoryLatency and the sampling scope
        // below subtract themselves, leaving scheduling + issue time.
        obs::PhaseScope issuePhase(obs::SimPhase::Issue);
        while (!sm.done() && now < static_cast<double>(opts.maxCycles)) {
            if (opts.cancel &&
                opts.cancel->load(std::memory_order_relaxed)) {
                cancelled = true;
                break;
            }
            double next = sm.step(now);
            // Close any sample intervals the clock passes over. All the
            // activity of the boundary-crossing step lands in the first
            // closed interval; a long stall fast-forward then leaves the
            // remaining crossed intervals with no activity at all, so
            // collapse that run of all-idle intervals into one sample
            // instead of allocating one zero sample per interval.
            if (next >= sampleStart + interval) {
                obs::PhaseScope samplingPhase(obs::SimPhase::Sampling);
                ActivitySample s = sm.drainActivity();
                s.cycles = interval;
                out.samples.push_back(std::move(s));
                sampleStart += interval;
                double idleIntervals =
                    std::floor((next - sampleStart) / interval);
                if (idleIntervals >= 1) {
                    ActivitySample idle = sm.drainActivity();
                    idle.cycles = idleIntervals * interval;
                    out.samples.push_back(std::move(idle));
                    sampleStart += idleIntervals * interval;
                }
            }
            now = next;
        }
    }
    obs::PhaseScope finalizePhase(obs::SimPhase::Finalize);
    t_lastStats = SimRunStats{};
    t_lastStats.cancelled = cancelled;
    t_lastStats.simulateSec = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  simStart)
                                  .count();
    t_lastStats.shardBusySec = {t_lastStats.simulateSec};
    t_lastStats.issuedInsts = sm.issuedInsts();
    t_lastStats.issueCycles = sm.issueCycles();
    t_lastStats.stallCycles = sm.stallCycles();
    if (cancelled)
        obs::metrics().counter("sim.cancelled").add(1);
    else if (!sm.done())
        warn("simulation of %s hit the cycle cap (%ld)", desc.name.c_str(),
             opts.maxCycles);
    if (now > sampleStart) {
        ActivitySample s = sm.drainActivity();
        s.cycles = now - sampleStart;
        out.samples.push_back(std::move(s));
    }

    // Chip-wide scaling: the detailed SM is representative of all k
    // active SMs (Section 4.6's equal-contribution assumption).
    const double k = shape.activeSms;
    for (auto &s : out.samples) {
        for (auto &a : s.accesses)
            a *= k;
        for (auto &u : s.unitInsts)
            u *= k;
        s.intAddInsts *= k;
        s.intMulInsts *= k;
        s.avgActiveSms = k;
    }

    out.totalCycles = now * shape.waves;
    out.elapsedSec = out.totalCycles / (f * 1e9);

    flushSimMetrics(now, out.samples.size(), shape.waves,
                    sm.issuedInsts(), sm.issueCycles(), sm.stallCycles());
    AW_DEBUGF("sim",
              "%s: %.0f cycles, %zu samples, %d waves, %ld insts, "
              "%ld stall cycles",
              desc.name.c_str(), out.totalCycles, out.samples.size(),
              shape.waves, sm.issuedInsts(), sm.stallCycles());
    return out;
}

KernelActivity
GpuSimulator::runSass(const KernelDescriptor &desc,
                      const SimOptions &opts) const
{
    WarpProgram program;
    {
        obs::PhaseScope tracegenPhase(obs::SimPhase::Tracegen);
        program = generateSassProgram(desc);
    }
    return run(desc, program, opts);
}

KernelActivity
GpuSimulator::runPtx(const KernelDescriptor &desc,
                     const SimOptions &opts) const
{
    WarpProgram program;
    {
        obs::PhaseScope tracegenPhase(obs::SimPhase::Tracegen);
        program = generatePtxProgram(desc);
    }
    return run(desc, program, opts);
}

} // namespace aw
