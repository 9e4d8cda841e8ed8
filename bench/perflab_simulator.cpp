/**
 * @file
 * PerfLab benches for the performance-model substrate (formerly the
 * google-benchmark `perf_simulator` binary): SASS/PTX trace generation,
 * the cache model, single-kernel simulation, the silicon oracle, and
 * AccelWattch power evaluation — plus `sim_phases`, which runs the
 * simulator with the profiler on and writes the zones' self-time
 * breakdown of its wall time to `results/BENCH_sim_phases.json`.
 */
#include <ctime>
#include <memory>

#include "core/calibration.hpp"
#include "obs/trace.hpp"
#include "perflab/perflab.hpp"
#include "sim/cache.hpp"
#include "ubench/microbench.hpp"

using namespace aw;

namespace {

KernelDescriptor
computeKernel()
{
    auto k = makeKernel("perf_compute",
                        {{OpClass::FpFma, 0.5}, {OpClass::IntMad, 0.5}},
                        160, 8);
    k.iterations = 24;
    return k;
}

KernelDescriptor
memoryKernel()
{
    auto k = makeKernel("perf_memory",
                        {{OpClass::LdGlobal, 0.4}, {OpClass::IntAdd, 0.6}},
                        160, 8);
    k.memFootprintKb = 4096;
    k.iterations = 24;
    return k;
}

/** Synthetic-but-plausible model: evaluation cost does not depend on
 *  the energy values, so the benches skip the full calibration. */
AccelWattchModel
syntheticModel()
{
    AccelWattchModel model;
    model.gpu = voltaGV100();
    model.refVoltage = model.gpu.referenceVoltage();
    model.constPowerW = 40.0;
    model.idleSmW = 0.6;
    model.calibrationSms = model.gpu.numSms;
    for (auto &d : model.divergence) {
        d.firstLaneW = 16.0;
        d.addLaneW = 0.8;
    }
    for (size_t c = 0; c < kNumPowerComponents; ++c)
        model.energyNj[c] = 0.5 + 0.1 * static_cast<double>(c);
    return model;
}

// ----------------------------------------------------------- tracegen

double g_tracegenChecksum = 0;

[[maybe_unused]] const bool regTgSass = perflab::registerBench({
    .name = "sim_tracegen_sass",
    .description = "SASS warp-program generation for the compute kernel",
    .defaultRounds = 30,
    .round =
        [](perflab::BenchContext &) {
            // One generation is under a microsecond — too close to
            // clock/allocator jitter for a gateable floor; batch 32.
            for (int i = 0; i < 32; ++i) {
                auto k = computeKernel();
                g_tracegenChecksum += static_cast<double>(
                    generateSassProgram(k).body.size());
            }
        },
    .fini =
        [](perflab::BenchContext &ctx) {
            ctx.setExtra("generations_per_round", 32);
            ctx.setExtra("body_insts_checksum", g_tracegenChecksum);
        },
});

[[maybe_unused]] const bool regTgPtx = perflab::registerBench({
    .name = "sim_tracegen_ptx",
    .description = "PTX warp-program generation for the compute kernel",
    .defaultRounds = 30,
    .round =
        [](perflab::BenchContext &) {
            for (int i = 0; i < 32; ++i) {
                auto k = computeKernel();
                g_tracegenChecksum += static_cast<double>(
                    generatePtxProgram(k).body.size());
            }
        },
    .fini =
        [](perflab::BenchContext &ctx) {
            ctx.setExtra("generations_per_round", 32);
        },
});

// -------------------------------------------------------- cache model

struct CacheState
{
    std::unique_ptr<CacheModel> cache;
    uint64_t addr = 0;
    double hits = 0;
};
CacheState g_cache;

[[maybe_unused]] const bool regCache = perflab::registerBench({
    .name = "sim_cache_model",
    .description = "L1D cache model, 65536 streaming accesses per round",
    .defaultRounds = 30,
    .init =
        [](perflab::BenchContext &) {
            g_cache.cache = std::make_unique<CacheModel>(voltaGV100().l1d);
            g_cache.addr = 0;
            g_cache.hits = 0;
        },
    .round =
        [](perflab::BenchContext &) {
            for (int i = 0; i < 65536; ++i) {
                g_cache.hits +=
                    g_cache.cache->access(g_cache.addr, false).hit;
                g_cache.addr += 128;
            }
        },
    .fini =
        [](perflab::BenchContext &ctx) {
            ctx.setExtra("accesses_per_round", 65536);
            ctx.setExtra("hits", g_cache.hits);
            g_cache.cache.reset();
        },
});

// ----------------------------------------------------- kernel simulation

struct SimState
{
    std::unique_ptr<GpuSimulator> sim;
    KernelDescriptor kernel;
    double cycles = 0; ///< simulated over the timed rounds
    double cpuSec = 0; ///< bench-thread CPU over the timed rounds
};
SimState g_sim;

double
threadCpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

void
simInit(perflab::BenchContext &, KernelDescriptor k)
{
    g_sim.sim = std::make_unique<GpuSimulator>(voltaGV100());
    g_sim.kernel = std::move(k);
    g_sim.cycles = 0;
    g_sim.cpuSec = 0;
}

void
simRound(perflab::BenchContext &ctx)
{
    // Detail 1 simulates on the calling thread, so its CPU clock is the
    // simulator's: unlike wall time, it does not count preemption.
    const double cpu0 = threadCpuSec();
    const double cycles = g_sim.sim->runSass(g_sim.kernel).totalCycles;
    if (ctx.round() < 0)
        return; // warmup
    g_sim.cpuSec += threadCpuSec() - cpu0;
    g_sim.cycles += cycles;
}

void
simFini(perflab::BenchContext &ctx)
{
    double sec = ctx.stats().sum();
    ctx.setExtra("sim_cycles_total", g_sim.cycles);
    ctx.setExtra("sim_cycles_per_sec", sec > 0 ? g_sim.cycles / sec : 0);
    ctx.setExtra("sim_cycles_per_cpu_sec",
                 g_sim.cpuSec > 0 ? g_sim.cycles / g_sim.cpuSec : 0);
    g_sim.sim.reset();
}

[[maybe_unused]] const bool regSimCompute = perflab::registerBench({
    .name = "sim_compute_kernel",
    .description = "full SASS simulation of the FMA/IMAD compute kernel",
    .defaultRounds = 20,
    .init = [](perflab::BenchContext &ctx) { simInit(ctx, computeKernel()); },
    .round = simRound,
    .fini = simFini,
});

[[maybe_unused]] const bool regSimMemory = perflab::registerBench({
    .name = "sim_memory_kernel",
    .description =
        "full SASS simulation of the 4 MB-footprint memory kernel",
    .defaultRounds = 20,
    .init = [](perflab::BenchContext &ctx) { simInit(ctx, memoryKernel()); },
    .round = simRound,
    .fini = simFini,
});

// ------------------------------------------------------ silicon oracle

double g_oracleChecksum = 0;

[[maybe_unused]] const bool regOracle = perflab::registerBench({
    .name = "sim_oracle_execute",
    .description = "silicon-oracle execution of the compute kernel",
    .defaultRounds = 20,
    .init = [](perflab::BenchContext &) { (void)sharedVoltaCard(); },
    .round =
        [](perflab::BenchContext &) {
            g_oracleChecksum +=
                sharedVoltaCard().execute(computeKernel()).avgPowerW;
        },
    .fini =
        [](perflab::BenchContext &ctx) {
            ctx.setExtra("power_checksum", g_oracleChecksum);
        },
});

// ------------------------------------------------------ power evaluate

struct EvalState
{
    std::unique_ptr<AccelWattchModel> model;
    std::unique_ptr<KernelActivity> act;
    double watts = 0;
};
EvalState g_eval;

[[maybe_unused]] const bool regEval = perflab::registerBench({
    .name = "sim_evaluate",
    .description =
        "AccelWattch Eq. 12 evaluation of a simulated activity stream",
    .defaultRounds = 30,
    .init =
        [](perflab::BenchContext &) {
            g_eval.model =
                std::make_unique<AccelWattchModel>(syntheticModel());
            GpuSimulator sim(voltaGV100());
            g_eval.act = std::make_unique<KernelActivity>(
                sim.runSass(computeKernel()));
            g_eval.watts = 0;
        },
    .round =
        [](perflab::BenchContext &) {
            // 64 evaluations per round: one is ~1 us, too close to
            // clock quantization for a stable median.
            for (int i = 0; i < 64; ++i)
                g_eval.watts +=
                    g_eval.model->evaluateKernel(*g_eval.act).totalW();
        },
    .fini =
        [](perflab::BenchContext &ctx) {
            ctx.setExtra("evals_per_round", 64);
            ctx.setExtra("watts_checksum", g_eval.watts);
            g_eval.model.reset();
            g_eval.act.reset();
        },
});

// ---------------------------------------------------- phase attribution

// sim_phases: run the simulate+evaluate hot path with the profiler on
// and attribute the rounds' wall time to zones by self time: tracegen,
// setup, the issue loop (`sim/wave`), memory, sampling, finalize and
// evaluation. The bench fails if less than 95% of wall time lands in a
// zone (the attribution would be lying about where time goes). It
// clears the profiler, so an AW_TRACE_OUT trace of aw_bench keeps only
// what ran after it.
struct PhasesState
{
    std::unique_ptr<GpuSimulator> sim;
    std::unique_ptr<AccelWattchModel> model;
    bool wasEnabled = false;
    double watts = 0;
};
PhasesState g_phases;

void
phasesInit(perflab::BenchContext &)
{
    g_phases.sim = std::make_unique<GpuSimulator>(voltaGV100());
    g_phases.model = std::make_unique<AccelWattchModel>(syntheticModel());
    g_phases.wasEnabled = obs::Profiler::instance().enabled();
    g_phases.watts = 0;
    obs::Profiler::instance().setEnabled(true);
}

void
phasesRound(perflab::BenchContext &ctx)
{
    // Warmup rounds record too; drop them so zone seconds line up with
    // the harness's timed-round total.
    if (ctx.firstTimedRound())
        obs::Profiler::instance().clear();
    KernelActivity compute = g_phases.sim->runSass(computeKernel());
    KernelActivity memory = g_phases.sim->runSass(memoryKernel());
    g_phases.watts += g_phases.model->evaluateKernel(compute).totalW();
    g_phases.watts += g_phases.model->evaluateKernel(memory).totalW();
}

void
phasesFini(perflab::BenchContext &ctx)
{
    obs::Profiler &prof = obs::Profiler::instance();
    const std::vector<obs::ZoneStat> zones = prof.zoneStats();
    double zoneSec = 0;
    for (const obs::ZoneStat &z : zones)
        zoneSec += z.selfUs * 1e-6;
    double wallSec = ctx.stats().sum();
    double coverage = wallSec > 0 ? zoneSec / wallSec : 0;

    for (const obs::ZoneStat &z : zones) {
        ctx.setExtra(z.name + ".count", static_cast<double>(z.count));
        ctx.setExtra(z.name + ".self_sec", z.selfUs * 1e-6);
        ctx.setExtra(z.name + ".frac",
                     zoneSec > 0 ? z.selfUs * 1e-6 / zoneSec : 0);
    }
    ctx.setExtra("zone_total_sec", zoneSec);
    ctx.setExtra("wall_sec", wallSec);
    ctx.setExtra("coverage", coverage);
    ctx.setExtra("watts_checksum", g_phases.watts);
    if (coverage < 0.95)
        ctx.fail("zone attribution covers only " +
                 std::to_string(100 * coverage) +
                 "% of wall time (want >= 95%)");

    prof.setEnabled(g_phases.wasEnabled);
    g_phases.sim.reset();
    g_phases.model.reset();
}

[[maybe_unused]] const bool regPhases = perflab::registerBench({
    .name = "sim_phases",
    .description =
        "simulator wall-time attribution across profiler zones (>= 95%)",
    .defaultRounds = 10,
    .init = phasesInit,
    .round = phasesRound,
    .fini = phasesFini,
});

} // namespace

#ifndef AW_PERFLAB_HARNESS
int
main(int argc, char **argv)
{
    return aw::perflab::runMain(argc, argv);
}
#endif
