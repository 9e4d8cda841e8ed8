/**
 * @file
 * PerfLab `sim_scaling` — the sharded simulator's threads × cards
 * scaling sweep (ROADMAP item 1's acceptance artifact,
 * `results/BENCH_sim_scaling.json`).
 *
 * The timed rounds run the reference configuration (detail = 8 SM
 * groups, ambient AW_SIM_THREADS) across three cards, so the artifact's
 * round time and `watts_checksum` are directly comparable between
 * check.sh invocations at different thread counts. fini() then sweeps
 * `simThreads` in {1, 2, 4, 8}:
 *
 *  - Determinism gate: the per-thread-count watts checksums must be
 *    bit-identical; any divergence fails the bench.
 *  - `wall_speedup_8t`: measured wall-clock ratio. On the CI box
 *    (often 1 hardware thread) this is ~1× by construction; it is
 *    reported, not gated.
 *  - `cold_speedup`: the critical-path speedup of the shard partition.
 *    Each shard runs to completion as one task, so with 8 workers for
 *    8 shards a run lasts as long as its slowest shard. The speedup is
 *    the serial runs' total shard busy time over the sum of each run's
 *    slowest-shard busy time. This is the machine-independent quantity
 *    the shard partition actually determines (`speedup_definition`
 *    names it in the artifact), gated at >= 4x.
 */
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "perflab/perflab.hpp"
#include "ubench/microbench.hpp"

using namespace aw;

namespace {

KernelDescriptor
scalingComputeKernel()
{
    auto k = makeKernel("scal_compute",
                        {{OpClass::FpFma, 0.5}, {OpClass::IntMad, 0.5}},
                        160, 8);
    k.iterations = 24;
    return k;
}

KernelDescriptor
scalingMemoryKernel()
{
    auto k = makeKernel("scal_memory",
                        {{OpClass::LdGlobal, 0.4}, {OpClass::IntAdd, 0.6}},
                        160, 8);
    k.memFootprintKb = 4096;
    k.iterations = 24;
    return k;
}

/** Synthetic model (evaluation cost is value-independent); the watts
 *  checksum only needs a fixed, deterministic weighting. */
AccelWattchModel
scalingModel()
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

constexpr int kDetail = 8;

/** One detail-8 simulation of both kernels on one card, accumulating
 *  watts, wall seconds, and each run's per-shard busy times. */
struct SweepAccum
{
    double watts = 0;
    double wallSec = 0;
    std::vector<std::vector<double>> shardSec;
};

void
runPair(const GpuConfig &gpu, const AccelWattchModel &model, int threads,
        SweepAccum &acc)
{
    GpuSimulator sim(gpu);
    SimOptions opts;
    opts.detailSms = kDetail;
    opts.simThreads = threads;
    for (const KernelDescriptor &k :
         {scalingComputeKernel(), scalingMemoryKernel()}) {
        KernelActivity act = sim.runSass(k, opts);
        acc.watts += model.evaluateKernel(act).totalW();
        const SimRunStats &stats = lastSimRunStats();
        acc.wallSec += stats.simulateSec;
        acc.shardSec.push_back(stats.shardBusySec);
    }
}

struct ScalingState
{
    std::unique_ptr<AccelWattchModel> model;
    std::vector<GpuConfig> cards;
    double watts = 0;
};
ScalingState g_scaling;

void
scalingInit(perflab::BenchContext &)
{
    g_scaling.model = std::make_unique<AccelWattchModel>(scalingModel());
    g_scaling.cards = {voltaGV100(), pascalTitanX(), turingRTX2060S()};
    g_scaling.watts = 0;
}

void
scalingRound(perflab::BenchContext &)
{
    // Ambient thread count (AW_SIM_THREADS / --sim-threads): check.sh
    // compares this round time and checksum across thread settings.
    for (const GpuConfig &gpu : g_scaling.cards) {
        SweepAccum acc;
        runPair(gpu, *g_scaling.model, /*threads=*/0, acc);
        g_scaling.watts += acc.watts;
    }
}

void
scalingFini(perflab::BenchContext &ctx)
{
    ctx.setExtra("detail_sms", kDetail);
    ctx.setExtra("cards", static_cast<double>(g_scaling.cards.size()));
    ctx.setExtra("watts_checksum", g_scaling.watts);

    const int threadCounts[] = {1, 2, 4, 8};
    double checksum1 = 0;
    bool diverged = false;
    double serial1 = 0, critical1 = 0, wall1 = 0, wall8 = 0;
    for (int t : threadCounts) {
        SweepAccum acc;
        for (const GpuConfig &gpu : g_scaling.cards)
            runPair(gpu, *g_scaling.model, t, acc);
        std::string suffix = "_t" + std::to_string(t);
        ctx.setExtra("watts_checksum" + suffix, acc.watts);
        ctx.setExtra("wall_sec" + suffix, acc.wallSec);
        if (t == 1) {
            checksum1 = acc.watts;
            wall1 = acc.wallSec;
            // The critical path uses the SERIAL runs' shard busy times:
            // on an oversubscribed host a multi-thread run's measured
            // shard times include preemption, which is a property of
            // the box, not of the partition being graded. Preemption
            // can spike a serial run's shard too, so each time is the
            // MIN over repeat serial runs — determinism guarantees the
            // repeats do the same work, making min the spike filter.
            std::vector<std::vector<double>> times = acc.shardSec;
            for (int rep = 0; rep < 2; ++rep) {
                SweepAccum again;
                for (const GpuConfig &gpu : g_scaling.cards)
                    runPair(gpu, *g_scaling.model, 1, again);
                for (size_t r = 0; r < times.size(); ++r)
                    for (size_t s = 0; s < times[r].size(); ++s)
                        times[r][s] =
                            std::min(times[r][s], again.shardSec[r][s]);
            }
            for (const auto &run : times) {
                for (double s : run)
                    serial1 += s;
                critical1 += *std::max_element(run.begin(), run.end());
            }
        } else if (acc.watts != checksum1) {
            diverged = true;
        }
        if (t == 8)
            wall8 = acc.wallSec;
    }

    double coldSpeedup = critical1 > 0 ? serial1 / critical1 : 0;
    double wallSpeedup = wall8 > 0 ? wall1 / wall8 : 0;
    ctx.setExtra("serial_busy_sec", serial1);
    ctx.setExtra("critical_path_sec", critical1);
    ctx.setExtra("cold_speedup", coldSpeedup);
    ctx.setExtra("wall_speedup_8t", wallSpeedup);
    ctx.setExtraString(
        "speedup_definition",
        "cold_speedup = serial shard busy time / sum over runs of the "
        "slowest shard's busy time (each shard is one task, so with 8 "
        "workers the slowest shard is a run's critical path; "
        "machine-independent); wall_speedup_8t is the measured "
        "wall-clock ratio on this host");

    if (diverged)
        ctx.fail("watts checksum diverges across AW_SIM_THREADS "
                 "settings (sharded engine is nondeterministic)");
    else if (coldSpeedup < 4.0)
        ctx.fail("8-thread critical-path speedup " +
                 std::to_string(coldSpeedup) +
                 "x is below the 4x acceptance floor");

    g_scaling.model.reset();
    g_scaling.cards.clear();
}

[[maybe_unused]] const bool regScaling = perflab::registerBench({
    .name = "sim_scaling",
    .description =
        "sharded-simulator threads x cards sweep: determinism + >=4x "
        "critical-path speedup at 8 threads",
    .defaultRounds = 5,
    .init = scalingInit,
    .round = scalingRound,
    .fini = scalingFini,
});

} // namespace

#ifndef AW_PERFLAB_HARNESS
int
main(int argc, char **argv)
{
    return aw::perflab::runMain(argc, argv);
}
#endif
