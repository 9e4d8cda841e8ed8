/**
 * @file
 * Determinism and semantics of the simulator loop (src/sim/shard.*):
 * bit-identical activity samples, watts checksums, and result-cache
 * keys at every AW_SIM_THREADS setting; byte-identical default-path
 * output; the shard plan / merge invariants the determinism argument
 * of DESIGN.md §9 rests on; quiet cancellation; and the output bits of
 * detail 1 and detail 8, pinned as digests. The TSan leg of
 * scripts/check.sh runs this same binary under AW_SANITIZE=thread.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "core/calibration.hpp"
#include "core/power_model.hpp"
#include "core/result_cache.hpp"
#include "obs/metrics.hpp"
#include "sim/shard.hpp"
#include "ubench/microbench.hpp"
#include "workloads/validation.hpp"

using namespace aw;

namespace {

KernelDescriptor
computeHeavy()
{
    auto k = makeKernel("par_compute",
                        {{OpClass::FpFma, 0.5}, {OpClass::IntMad, 0.5}},
                        160, 8);
    k.iterations = 12;
    return k;
}

KernelDescriptor
memoryHeavy()
{
    auto k = makeKernel("par_memory",
                        {{OpClass::LdGlobal, 0.4}, {OpClass::IntAdd, 0.6}},
                        160, 8);
    k.memFootprintKb = 4096;
    k.iterations = 12;
    return k;
}

KernelDescriptor
divergenceHeavy()
{
    auto k = makeKernel("par_diverge",
                        {{OpClass::FpFma, 0.6}, {OpClass::LdGlobal, 0.4}},
                        160, 8, /*activeLanes=*/7);
    k.memFootprintKb = 1024;
    k.pointerChase = true;
    k.iterations = 12;
    return k;
}

/** Memory-bound with frequent barriers: a release often finds another
 *  sub-core, stalled on DRAM, asleep well past the next cycle. */
KernelDescriptor
barrierHeavy()
{
    auto k = makeKernel("par_barrier",
                        {{OpClass::LdGlobal, 0.3},
                         {OpClass::FpFma, 0.5},
                         {OpClass::Bar, 0.2}},
                        160, 4);
    k.ctasPerSm = 4;
    k.memFootprintKb = 4096;
    k.iterations = 8;
    return k;
}

std::vector<KernelDescriptor>
allWorkloads()
{
    return {computeHeavy(), memoryHeavy(), divergenceHeavy()};
}

/** A deterministic power model for watts checksums. */
AccelWattchModel
checksumModel()
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

void
expectSamplesBitIdentical(const KernelActivity &a, const KernelActivity &b)
{
    ASSERT_EQ(a.samples.size(), b.samples.size());
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.elapsedSec, b.elapsedSec);
    for (size_t i = 0; i < a.samples.size(); ++i) {
        const ActivitySample &x = a.samples[i];
        const ActivitySample &y = b.samples[i];
        EXPECT_EQ(x.cycles, y.cycles) << "sample " << i;
        EXPECT_EQ(x.freqGhz, y.freqGhz) << "sample " << i;
        EXPECT_EQ(x.voltage, y.voltage) << "sample " << i;
        EXPECT_EQ(x.avgActiveSms, y.avgActiveSms) << "sample " << i;
        EXPECT_EQ(x.avgActiveLanesPerWarp, y.avgActiveLanesPerWarp)
            << "sample " << i;
        EXPECT_EQ(x.intAddInsts, y.intAddInsts) << "sample " << i;
        EXPECT_EQ(x.intMulInsts, y.intMulInsts) << "sample " << i;
        for (size_t c = 0; c < x.accesses.size(); ++c)
            EXPECT_EQ(x.accesses[c], y.accesses[c])
                << "sample " << i << " component " << c;
        for (size_t u = 0; u < x.unitInsts.size(); ++u)
            EXPECT_EQ(x.unitInsts[u], y.unitInsts[u])
                << "sample " << i << " unit " << u;
    }
}

/** The result cache's FNV-1a over the object bytes of every value fed
 *  to it. */
class OutputDigest
{
  public:
    template <typename T> void add(T v)
    {
        bytes_.append(reinterpret_cast<const char *>(&v), sizeof v);
    }

    /** Every sample field, the run totals and the issue counters. */
    void addRun(const KernelActivity &act)
    {
        for (const ActivitySample &s : act.samples) {
            add(s.cycles);
            add(s.freqGhz);
            add(s.voltage);
            for (double a : s.accesses)
                add(a);
            add(s.avgActiveSms);
            add(s.avgActiveLanesPerWarp);
            for (double u : s.unitInsts)
                add(u);
            add(s.intAddInsts);
            add(s.intMulInsts);
        }
        add(act.totalCycles);
        add(act.elapsedSec);
        const SimRunStats &stats = lastSimRunStats();
        add(stats.issuedInsts);
        add(stats.issueCycles);
        add(stats.stallCycles);
    }

    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, fnv1a64(bytes_));
        return buf;
    }

  private:
    std::string bytes_;
};

std::mutex g_logMu;
std::vector<std::string> g_logLines;

void
captureLog(LogLevel, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(g_logMu);
    g_logLines.push_back(msg);
}

} // namespace

// --- thread-count invariance -------------------------------------------

TEST(SimParallel, ThreadCountNeverChangesSamples)
{
    GpuSimulator sim(voltaGV100());
    AccelWattchModel model = checksumModel();
    for (const KernelDescriptor &k : allWorkloads()) {
        SimOptions opts;
        opts.detailSms = 8;
        opts.simThreads = 1;
        KernelActivity ref = sim.runSass(k, opts);
        double refWatts = model.evaluateKernel(ref).totalW();
        for (int threads : {2, 4, 8}) {
            opts.simThreads = threads;
            KernelActivity act = sim.runSass(k, opts);
            expectSamplesBitIdentical(ref, act);
            EXPECT_EQ(refWatts, model.evaluateKernel(act).totalW())
                << k.name << " @ " << threads << " threads";
        }
    }
}

TEST(SimParallel, GlobalKnobMatchesExplicitOption)
{
    GpuSimulator sim(voltaGV100());
    KernelDescriptor k = computeHeavy();
    SimOptions opts;
    opts.detailSms = 4;
    opts.simThreads = 1;
    KernelActivity ref = sim.runSass(k, opts);

    opts.simThreads = 0; // resolve via simThreadCount()
    setSimThreadCount(4);
    KernelActivity act = sim.runSass(k, opts);
    setSimThreadCount(0);
    expectSamplesBitIdentical(ref, act);
}

TEST(SimParallel, CacheKeyIgnoresThreadsIncludesDetail)
{
    GpuSimulator sim(voltaGV100());
    KernelDescriptor k = computeHeavy();

    SimOptions serial;
    serial.detailSms = 8;
    serial.simThreads = 1;
    SimOptions wide = serial;
    wide.simThreads = 8;
    EXPECT_EQ(sassRunKey(sim, k, serial), sassRunKey(sim, k, wide));

    SimOptions defaults;
    SimOptions detailed;
    detailed.detailSms = 8;
    EXPECT_NE(sassRunKey(sim, k, defaults), sassRunKey(sim, k, detailed));
    // The default key must not mention detail at all, so keys (and warm
    // caches) from before the sharded engine still match.
    EXPECT_EQ(describeSimOptions(defaults).find("detail"),
              std::string::npos);
}

// --- default-path equivalence ------------------------------------------

TEST(SimParallel, DetailOneIsTheLegacyPath)
{
    GpuSimulator sim(voltaGV100());
    for (const KernelDescriptor &k : allWorkloads()) {
        SimOptions legacy; // detail 1, no env override in tests
        KernelActivity ref = sim.runSass(k, legacy);

        // Even with worker threads configured, detail 1 must take the
        // single-representative path and reproduce it bit for bit.
        setSimThreadCount(8);
        KernelActivity act = sim.runSass(k, legacy);
        setSimThreadCount(0);
        expectSamplesBitIdentical(ref, act);
    }
}

TEST(SimParallel, ShardZeroMatchesLegacyRepresentative)
{
    // The first shard carries smIndex 0: with a 1-group plan the
    // sharded engine's per-shard state must evolve exactly like the
    // legacy representative SM (the merge only rescales by k).
    GpuSimulator sim(voltaGV100());
    KernelDescriptor k = computeHeavy();
    SimOptions legacy;
    KernelActivity ref = sim.runSass(k, legacy);

    SimOptions sharded;
    sharded.detailSms = 2;
    KernelActivity act = sim.runSass(k, sharded);
    // Same simulated duration (shard streams are decorrelated but the
    // compute kernel is latency-bound, so both shards finish together).
    EXPECT_EQ(ref.totalCycles, act.totalCycles);
}

// --- shard plan / merge semantics --------------------------------------

TEST(SimParallel, ShardPlanPartitionsContiguously)
{
    ShardPlan plan = planShards(80, 8);
    ASSERT_EQ(plan.smCounts.size(), 8u);
    int total = 0, expectFirst = 0;
    for (size_t g = 0; g < plan.smCounts.size(); ++g) {
        EXPECT_EQ(plan.smCounts[g], 10);
        EXPECT_EQ(plan.firstSmIndex[g], expectFirst);
        expectFirst += plan.smCounts[g];
        total += plan.smCounts[g];
    }
    EXPECT_EQ(total, 80);

    // Remainders go to the leading groups, sizes differ by at most 1.
    plan = planShards(10, 4);
    EXPECT_EQ(plan.smCounts, (std::vector<int>{3, 3, 2, 2}));
    EXPECT_EQ(plan.firstSmIndex, (std::vector<int>{0, 3, 6, 8}));

    // Detail beyond the active SMs clamps to one SM per shard.
    plan = planShards(3, 8);
    EXPECT_EQ(plan.smCounts, (std::vector<int>{1, 1, 1}));
}

TEST(SimParallel, MergedStreamConservesChipActivity)
{
    // The ordered merge must conserve total activity: summing the
    // merged samples equals summing every shard's samples scaled by
    // its SM count. Total issued warp-instructions are invariant
    // across detail settings (same program, same resident warps per
    // SM), so compare detail=1 and detail=8 aggregates.
    GpuSimulator sim(voltaGV100());
    KernelDescriptor k = computeHeavy();
    SimOptions coarse;
    SimOptions fine;
    fine.detailSms = 8;
    ActivitySample a = sim.runSass(k, coarse).aggregate();
    ActivitySample b = sim.runSass(k, fine).aggregate();
    double instsA = 0, instsB = 0;
    for (size_t u = 0; u < a.unitInsts.size(); ++u) {
        instsA += a.unitInsts[u];
        instsB += b.unitInsts[u];
    }
    EXPECT_DOUBLE_EQ(instsA, instsB);
    EXPECT_EQ(a.avgActiveSms, b.avgActiveSms);
}

TEST(SimParallel, RunStatsDescribeTheShardedRun)
{
    GpuSimulator sim(voltaGV100());
    KernelDescriptor k = memoryHeavy();
    SimOptions opts;
    opts.detailSms = 8;
    opts.simThreads = 4;
    KernelActivity act = sim.runSass(k, opts);
    const SimRunStats &stats = lastSimRunStats();
    EXPECT_EQ(stats.shards, 8);
    EXPECT_EQ(stats.threads, 4);
    EXPECT_FALSE(stats.cancelled);
    EXPECT_GT(stats.issuedInsts, 0);
    // Memory traffic reaches the merged samples as access counts.
    ActivitySample total = act.aggregate();
    EXPECT_GT(total.accesses[componentIndex(PowerComponent::L2Noc)], 0);
    EXPECT_GT(total.accesses[componentIndex(PowerComponent::DramMc)], 0);

    // One shard never needs more than one thread.
    opts.detailSms = 1;
    (void)sim.runSass(k, opts);
    EXPECT_EQ(lastSimRunStats().shards, 1);
    EXPECT_EQ(lastSimRunStats().threads, 1);
}

// --- output bits ---------------------------------------------------------

TEST(SimParallel, OutputBitsAreGolden)
{
    // The simulator's exact output on the 26 validation kernels, three
    // of which (walsh_K1, msort_K1, bprop_K1) synchronize on barriers,
    // plus barrierHeavy(), whose barrier releases wake stalled
    // sub-cores early (the validation kernels' releases never do). Any
    // change to issue order, wake times, fast-forward steps or sample
    // splits moves a digest; a change that means to move them must say
    // why and re-pin the literals. The literals are x86-64 values: a
    // target that contracts a * b + c into one FMA may round otherwise.
    GpuSimulator sim(voltaGV100());
    std::vector<KernelDescriptor> kernels;
    for (const ValidationKernel &v : validationSuite())
        kernels.push_back(v.kernel);
    kernels.push_back(barrierHeavy());
    auto usesBarrier = [](const KernelDescriptor &k) {
        for (const MixEntry &m : k.mix)
            if (m.op == OpClass::Bar)
                return true;
        return false;
    };
    auto digest = [&](const SimOptions &opts, bool ptx, bool subset) {
        OutputDigest d;
        for (size_t i = 0; i < kernels.size(); ++i) {
            const KernelDescriptor &k = kernels[i];
            if (subset && i % 2 != 0 && !usesBarrier(k))
                continue;
            d.addRun(ptx ? sim.runPtx(k, opts) : sim.runSass(k, opts));
        }
        return d.hex();
    };

    SimOptions gto;
    gto.detailSms = 1;
    EXPECT_EQ(digest(gto, false, false), "fd6ed0c49ae12050") << "SASS GTO";
    SimOptions rr = gto;
    rr.scheduler = SchedulerPolicy::RoundRobin;
    EXPECT_EQ(digest(rr, false, false), "7118b9108bc958e1") << "SASS RR";
    SimOptions slow = gto;
    slow.freqGhz = 0.9;
    EXPECT_EQ(digest(slow, false, false), "b22e6bf5600daea8")
        << "SASS 0.9 GHz";
    EXPECT_EQ(digest(gto, true, false), "2012c65336b9ec4b") << "PTX";

    // Detail 8 on every other kernel plus the barrier kernels: one
    // literal for both thread counts.
    SimOptions detailed;
    detailed.detailSms = 8;
    for (int threads : {1, 4}) {
        detailed.simThreads = threads;
        EXPECT_EQ(digest(detailed, false, true), "574e62f624683728")
            << "SASS detail 8, " << threads << " threads";
    }

    // Pascal has no tensor cores, so its tensor kernels fast-forward far
    // past the cycle cap: the only streams with adjacent idle samples,
    // which the merge keeps apart at one shard and folds at more.
    GpuSimulator pascal(pascalTitanX());
    auto pascalDigest = [&](const SimOptions &opts) {
        OutputDigest d;
        for (const ValidationKernel &v : validationSuite())
            for (const char *name :
                 {"tensor_K1", "cutlass_K1", "cutlass_K2", "cutlass_K3"})
                if (v.kernel.name == name)
                    d.addRun(pascal.runSass(v.kernel, opts));
        return d.hex();
    };
    EXPECT_EQ(pascalDigest(gto), "12b4a382d20b44d2") << "Pascal SASS";
    for (int threads : {1, 4}) {
        detailed.simThreads = threads;
        EXPECT_EQ(pascalDigest(detailed), "4b432a1470b37be9")
            << "Pascal SASS detail 8, " << threads << " threads";
    }

    // The 102 Volta tuning microbenchmarks, as calibration simulates
    // them: on the public config and on the silicon oracle's hidden one
    // (jittered memory latencies and bandwidth). Their loop bodies fit
    // the L0 i-cache and run 24 iterations, so each issue's L1i share
    // (1/24) is not dyadic and InstCache pins the order of its
    // additions.
    const std::vector<Microbenchmark> suite = dynamicPowerSuite(voltaGV100());
    ASSERT_EQ(suite.size(), 102u);
    auto suiteDigest = [&](const GpuSimulator &s) {
        OutputDigest d;
        for (const Microbenchmark &m : suite)
            d.addRun(s.runSass(m.kernel, gto));
        return d.hex();
    };
    EXPECT_EQ(suiteDigest(sim), "246bc2b4398ae891")
        << "tuning suite, public config";
    const GpuSimulator hidden(sharedVoltaCard().hiddenConfig());
    EXPECT_EQ(suiteDigest(hidden), "331075f15465b3a4")
        << "tuning suite, hidden config";
}

// --- cancellation ------------------------------------------------------

TEST(SimParallel, CancelledRunStopsQuietly)
{
    // A run whose cancel flag is already set stops early: flagged,
    // counted once, and silent about a cycle cap it never reached.
    GpuSimulator sim(voltaGV100());
    KernelDescriptor k = memoryHeavy();
    obs::Counter &cancelledC = obs::metrics().counter("sim.cancelled");
    const std::atomic<bool> cancel{true};
    for (int detail : {1, 8}) {
        SimOptions opts;
        opts.detailSms = detail;
        opts.simThreads = 4;
        (void)sim.runSass(k, opts);
        ASSERT_FALSE(lastSimRunStats().cancelled);
        const long fullInsts = lastSimRunStats().issuedInsts;

        opts.cancel = &cancel;
        const double before = cancelledC.value();
        {
            std::lock_guard<std::mutex> lock(g_logMu);
            g_logLines.clear();
        }
        setLogObserver(&captureLog);
        (void)sim.runSass(k, opts);
        setLogObserver(nullptr);
        const SimRunStats &stats = lastSimRunStats();
        EXPECT_TRUE(stats.cancelled) << "detail " << detail;
        EXPECT_EQ(cancelledC.value(), before + 1) << "detail " << detail;
        EXPECT_LT(stats.issuedInsts, fullInsts) << "detail " << detail;
        std::lock_guard<std::mutex> lock(g_logMu);
        for (const std::string &line : g_logLines)
            EXPECT_EQ(line.find("cycle cap"), std::string::npos)
                << "detail " << detail << ": " << line;
    }
}

TEST(SimParallel, DivergentWorkloadStaysDeterministicUnderRepeats)
{
    // Pointer-chase uses the per-shard RNG: repeat runs at the same
    // thread count must also be bit-identical (the RNG is owned by the
    // shard, never shared).
    GpuSimulator sim(voltaGV100());
    KernelDescriptor k = divergenceHeavy();
    SimOptions opts;
    opts.detailSms = 8;
    opts.simThreads = 8;
    KernelActivity a = sim.runSass(k, opts);
    KernelActivity b = sim.runSass(k, opts);
    expectSamplesBitIdentical(a, b);
}
