#include "sim/gpusim.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/log.hpp"
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
    const double f = opts.freqGhz > 0 ? opts.freqGhz : gpu_.defaultClockGhz;
    const LaunchShape shape = launchShape(desc);
    // Detail 1 is a one-shard run: the representative SM of Eq. 6.
    const int detail = std::min(effectiveSimDetail(opts), shape.activeSms);
    t_lastStats = SimRunStats{};
    return runShardedSim(gpu_, desc, program, opts, shape, f, detail,
                         t_lastStats);
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
