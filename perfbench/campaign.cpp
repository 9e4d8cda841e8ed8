/**
 * @file
 * campaign_cold / campaign_warm: the Volta Fig. 1 calibration flow for
 * all four variants plus the Fig. 7 validation of each, through the
 * public library API.
 *
 * Untraced reps call AccelWattchCalibrator::variant() and
 * runValidation() exactly as users do, at the default task-pool size.
 * The traced rep drives the same campaign serially through the layers'
 * public functions — the *Cached helpers unrolled into ResultCache
 * fetch / store around the measurement, counter and simulation calls —
 * with one span per call, and must reproduce the untraced outputs and
 * work counts exactly.
 */
#include <array>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "core/calibration.hpp"
#include "core/result_cache.hpp"
#include "core/tuner.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "workloads/validation.hpp"

namespace perfbench {

namespace {

using namespace aw;

constexpr std::array<Variant, 4> kVariants = {
    Variant::SassSim, Variant::PtxSim, Variant::Hw, Variant::Hybrid};
constexpr const char *kVariantKeys[] = {"sass", "ptx", "hw", "hybrid"};

/** Validation MAPEs (%, two decimals) fig07_volta_validation prints;
 *  a perf-only change must keep them. */
constexpr double kExpectedMapePct[] = {6.84, 10.41, 6.28, 6.33};

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

/** Everything a campaign produces that a user would look at. */
struct CampaignOutput
{
    std::array<ComponentArray<double>, 4> fermi{}, ones{};
    std::array<std::vector<ValidationRow>, 4> rows;
};

/** Process-wide counters the campaign moves. */
enum Count
{
    SimKernels, SimCycles, SimInsts, Measurements, Profiles, CacheWrites,
    CacheHits, CacheMisses, QpSolves, NewtonIters, UbenchSkipped,
    KernelsSkipped, kNumCounts
};
constexpr const char *kCounterNames[kNumCounts] = {
    "sim.kernels", "sim.cycles_simulated", "sim.sm.insts_issued",
    "hw.nvml.measurements", "hw.nsight.profiles", "cache.writes",
    "cache.hits", "cache.misses", "solver.qp.solves",
    "solver.qp.newton_iters", "calibration.ubench_skipped",
    "validation.kernels_skipped"};

struct Counts
{
    std::array<double, kNumCounts> v{};
    double operator[](Count c) const { return v[c]; }

    Counts operator-(const Counts &o) const
    {
        Counts d;
        for (int i = 0; i < kNumCounts; ++i)
            d.v[i] = v[i] - o.v[i];
        return d;
    }
    Counts &operator+=(const Counts &o)
    {
        for (int i = 0; i < kNumCounts; ++i)
            v[i] += o.v[i];
        return *this;
    }
};

Counts
readCounts()
{
    Counts c;
    for (int i = 0; i < kNumCounts; ++i)
        c.v[i] = obs::metrics().counter(kCounterNames[i]).value();
    return c;
}

/** The library path, as users run it. */
CampaignOutput
runLibraryCampaign()
{
    AccelWattchCalibrator cal(sharedVoltaCard());
    CampaignOutput out;
    for (size_t i = 0; i < kVariants.size(); ++i) {
        const CalibratedVariant &cv = cal.variant(kVariants[i]);
        out.fermi[i] = cv.tuningFermi.finalEnergyNj;
        out.ones[i] = cv.tuningOnes.finalEnergyNj;
    }
    for (size_t i = 0; i < kVariants.size(); ++i)
        out.rows[i] = runValidation(cal, kVariants[i]);
    return out;
}

/**
 * The same campaign, serial and unrolled, one span per layer call.
 * `modelSimCycles` accumulates the cycles simulated inside model-side
 * simulation spans (the oracle's own timing runs count under hw.*).
 */
CampaignOutput
runTracedCampaign(SpanLedger &ledger, double &modelSimCycles)
{
    using Scope = SpanLedger::Scope;
    auto &cache = ResultCache::instance();
    obs::Counter &cycles = obs::metrics().counter("sim.cycles_simulated");

    std::optional<AccelWattchCalibrator> calSlot;
    {
        Scope s(ledger, "core.calibrator");
        calSlot.emplace(sharedVoltaCard());
    }
    AccelWattchCalibrator &cal = *calSlot;
    const SiliconOracle &oracle = cal.oracle();

    // tryMeasurePowerCached unrolled: fetch, measure (the helper with
    // the cache switched off is the bare measurement), store.
    auto measure = [&](const KernelDescriptor &k) -> Result<double> {
        std::string key;
        {
            Scope s(ledger, "core.cache.read");
            key = powerMeasurementKey(oracle, k, 0, 5);
            double v = 0;
            if (cache.fetchPower(key, v))
                return v;
        }
        Result<double> r = [&] {
            Scope s(ledger, "hw.measure");
            cache.setEnabled(false);
            Result<double> m = tryMeasurePowerCached(oracle, k);
            cache.setEnabled(true);
            return m;
        }();
        if (r) {
            Scope s(ledger, "core.cache.write");
            cache.storePower(key, *r);
        }
        return r;
    };

    auto simulate = [&](auto &&run) {
        Scope s(ledger, "sim");
        const double c0 = cycles.value();
        KernelActivity act = run();
        modelSimCycles += cycles.value() - c0;
        return act;
    };

    // ActivityProvider::collect unrolled per variant, so the counter
    // session and the model-side simulator get their own spans.
    auto collectUncached = [&](const ActivityProvider &p,
                               const KernelDescriptor &k) {
        const SimOptions opts;
        switch (p.variant()) {
          case Variant::SassSim:
            return simulate([&] { return p.sim().runSass(k, opts); });
          case Variant::PtxSim:
            return simulate([&] { return p.sim().runPtx(k, opts); });
          case Variant::Hw: {
            Scope s(ledger, "hw.profile");
            return p.nsight()->collectCounters(k);
          }
          default: {
            KernelActivity hw = [&] {
                Scope s(ledger, "hw.profile");
                return p.nsight()->collectCounters(k);
            }();
            KernelActivity sw =
                simulate([&] { return p.sim().runSass(k, opts); });
            Scope s(ledger, "core.calibrator");
            const ActivitySample agg = sw.aggregate();
            for (PowerComponent c : p.hybridComponents())
                hw.samples[0].accesses[componentIndex(c)] =
                    agg.accesses[componentIndex(c)];
            return hw;
          }
        }
    };

    auto collect = [&](const ActivityProvider &p,
                       const KernelDescriptor &k) {
        std::string key;
        KernelActivity act;
        {
            Scope s(ledger, "core.cache.read");
            key = activityKey(p, k, {});
            if (cache.fetchActivity(key, act))
                return act;
        }
        act = collectUncached(p, k);
        Scope s(ledger, "core.cache.write");
        cache.storeActivity(key, act);
        return act;
    };

    // Calibrator steps shared by every variant.
    {
        Scope s(ledger, "core.fixed_power");
        cal.constantPower();
        cal.staticPower();
    }
    std::vector<Microbenchmark> suite;
    AccelWattchModel partial;
    {
        Scope s(ledger, "core.calibrator");
        suite = cal.tuningSuite();
        partial = cal.partialModel();
    }
    std::vector<double> powers(suite.size(), std::nan(""));
    std::vector<size_t> keep;
    for (size_t i = 0; i < suite.size(); ++i) {
        Result<double> r = measure(suite[i].kernel);
        if (r) {
            powers[i] = *r;
            keep.push_back(i);
        }
    }

    CampaignOutput out;
    std::array<AccelWattchModel, 4> models;
    for (size_t vi = 0; vi < kVariants.size(); ++vi) {
        ActivityProvider provider(kVariants[vi], cal.simulator(),
                                  &cal.nsight());
        std::vector<KernelActivity> activities;
        std::vector<Microbenchmark> tuneSuite;
        std::vector<double> tunePowers;
        for (size_t idx : keep) {
            activities.push_back(collect(provider, suite[idx].kernel));
            tuneSuite.push_back(suite[idx]);
            tunePowers.push_back(powers[idx]);
        }
        Scope s(ledger, "core.tune");
        const auto initial = initialEnergyEstimates();
        const auto aggregates = aggregateActivities(activities);
        TuningOptions fermiOpts;
        fermiOpts.start = StartingPoint::Fermi;
        TuningOptions onesOpts;
        onesOpts.start = StartingPoint::AllOnes;
        out.fermi[vi] = tuneDynamicPower(tuneSuite, tunePowers, activities,
                                         partial, initial, fermiOpts,
                                         &aggregates)
                            .finalEnergyNj;
        out.ones[vi] = tuneDynamicPower(tuneSuite, tunePowers, activities,
                                        partial, initial, onesOpts,
                                        &aggregates)
                           .finalEnergyNj;
        models[vi] = partial;
        models[vi].energyNj = out.fermi[vi];
    }

    for (size_t vi = 0; vi < kVariants.size(); ++vi) {
        ActivityProvider provider(kVariants[vi], cal.simulator(),
                                  &cal.nsight());
        for (const ValidationKernel &k : validationSuite()) {
            if (!inVariantSuite(k, kVariants[vi]))
                continue;
            Result<double> measured = measure(k.kernel);
            if (!measured)
                continue;
            KernelActivity act = collect(provider, k.kernel);
            Scope s(ledger, "core.evaluate");
            ValidationRow row;
            row.name = k.kernel.name;
            row.measuredW = *measured;
            row.breakdown = models[vi].evaluateKernel(act);
            row.modeledW = row.breakdown.totalW();
            out.rows[vi].push_back(std::move(row));
        }
    }
    {
        // The calibrator's destructor is part of the campaign's cost.
        Scope s(ledger, "core.calibrator");
        calSlot.reset();
    }
    return out;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Exact equality of energies and validation rows; the first mismatch
 *  is described in `why`. */
bool
sameOutput(const CampaignOutput &a, const CampaignOutput &b, std::string &why)
{
    for (size_t v = 0; v < kVariants.size(); ++v) {
        for (size_t c = 0; c < a.fermi[v].size(); ++c)
            if (!sameBits(a.fermi[v][c], b.fermi[v][c]) ||
                !sameBits(a.ones[v][c], b.ones[v][c])) {
                why = std::string(kVariantKeys[v]) + " energy " +
                      std::to_string(c) + " differs";
                return false;
            }
        if (a.rows[v].size() != b.rows[v].size()) {
            why = std::string(kVariantKeys[v]) + " row count differs";
            return false;
        }
        for (size_t r = 0; r < a.rows[v].size(); ++r) {
            const ValidationRow &x = a.rows[v][r], &y = b.rows[v][r];
            if (x.name != y.name || !sameBits(x.measuredW, y.measuredW) ||
                !sameBits(x.modeledW, y.modeledW)) {
                why = std::string(kVariantKeys[v]) + " row " + x.name +
                      " differs";
                return false;
            }
        }
    }
    return true;
}

/** Digest of the tuned energies (both starting points, all variants). */
std::string
energyDigest(const CampaignOutput &o)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (size_t v = 0; v < kVariants.size(); ++v) {
        h = fnv1a(o.fermi[v].data(), sizeof(double) * o.fermi[v].size(), h);
        h = fnv1a(o.ones[v].data(), sizeof(double) * o.ones[v].size(), h);
    }
    return hex16(h);
}

std::array<double, 4>
mapes(const CampaignOutput &o)
{
    std::array<double, 4> m{};
    for (size_t v = 0; v < kVariants.size(); ++v) {
        std::vector<double> meas, mod;
        for (const ValidationRow &r : o.rows[v]) {
            meas.push_back(r.measuredW);
            mod.push_back(r.modeledW);
        }
        m[v] = summarizeErrors(meas, mod).mapePct;
    }
    return m;
}

/** Microbenchmarks measured plus validation rows expected per campaign. */
long
operationsPerCampaign()
{
    long ops = static_cast<long>(dynamicPowerSuite(voltaGV100()).size());
    for (Variant v : kVariants)
        for (const ValidationKernel &k : validationSuite())
            ops += inVariantSuite(k, v);
    return ops;
}

/** Checks shared by every rep: expected MAPEs, no skipped work. */
void
checkOutput(const CampaignOutput &o, const Counts &d, Report &report,
            const std::string &what)
{
    const auto m = mapes(o);
    for (size_t v = 0; v < kVariants.size(); ++v)
        if (std::abs(std::round(m[v] * 100.0) - kExpectedMapePct[v] * 100.0) >
            0.5)
            report.fail(what + ": " + kVariantKeys[v] + " MAPE " +
                        num(m[v]) + "% differs from " +
                        num(kExpectedMapePct[v]) + "%");
    report.failed += static_cast<long>(d[UbenchSkipped] + d[KernelsSkipped]);
}

/** What a perf-only change must leave unchanged: the tuned energies
 *  and the exact simulated and solver work. */
void
recordCounts(Report &report, const Counts &d, const CampaignOutput &o)
{
    report.note("energy_digest", energyDigest(o));
    // Fractional per-kernel cycle totals make the last digits depend on
    // summation order across pool threads; whole cycles do not.
    report.note("sim.cycles", std::round(d[SimCycles]));
    report.note("sim.insts", d[SimInsts]);
    report.note("solver.newton_iters", d[NewtonIters]);
    report.note("sim.kernels", d[SimKernels]);
    report.note("hw.nvml.measurements", d[Measurements]);
    report.note("cache.writes", d[CacheWrites]);
}

struct Rep
{
    CampaignOutput out;
    Counts counts;
    double wallSec = 0, cpuSec = 0;
};

Rep
timedLibraryRep()
{
    Rep rep;
    const Counts c0 = readCounts();
    const double t0 = nowSec(), cpu0 = processCpuSec();
    rep.out = runLibraryCampaign();
    rep.wallSec = nowSec() - t0;
    rep.cpuSec = processCpuSec() - cpu0;
    rep.counts = readCounts() - c0;
    return rep;
}

/** Point the result cache at `dir`, emptied first. */
void
useFreshCache(const std::string &dir)
{
    freshDirectory(dir);
    ResultCache::instance().configure(dir);
    ResultCache::instance().setEnabled(true);
}

} // namespace

int
runCampaign(const Options &opts, Report &report)
{
    const bool cold = opts.workload == "campaign_cold";
    const long ops = operationsPerCampaign();
    setLogLevel(LogLevel::Warn);

    // --- set-up ---------------------------------------------------------
    // cold: the cache directory each rep starts from is prepared (the
    // previous rep's entries removed) before the rep; that prep is the
    // set-up. warm: set-up fills the cache with a cold campaign,
    // kSetups times into fresh directories; the last one serves the
    // timed reps. A set-up is timed in process CPU seconds: a fill's
    // wall time swings with the cores the host gives, and CPU time
    // still shows work moved into set-up.
    std::vector<double> setupSamples, setupWalls;
    CampaignOutput reference;
    bool haveReference = false;
    const std::string warmDir = opts.workdir + "/cache_warm";
    if (!cold) {
        for (int i = 0; i < (opts.trace ? 1 : kSetups); ++i) {
            useFreshCache(warmDir);
            Rep fill = timedLibraryRep();
            setupSamples.push_back(fill.cpuSec);
            setupWalls.push_back(fill.wallSec);
            report.attempted += ops;
            checkOutput(fill.out, fill.counts, report, "warm-up fill");
            std::string why;
            if (haveReference && !sameOutput(reference, fill.out, why))
                report.fail("cache fills disagree: " + why);
            reference = std::move(fill.out);
            haveReference = true;
        }
    }

    // A cold rep's prep removes the full cache the rep before it left.
    auto prepCold = [&] {
        const double cpu0 = processCpuSec();
        useFreshCache(opts.workdir + "/cache_cold");
        return processCpuSec() - cpu0;
    };

    if (!opts.trace) {
        std::vector<double> walls, cpus;
        const double start = nowSec();
        for (int rep = 0; rep < 3 || nowSec() - start < opts.seconds; ++rep) {
            if (cold) {
                const double prep = prepCold();
                if (rep > 0) // the first prep finds nothing to remove
                    setupSamples.push_back(prep);
            } else {
                ResultCache::instance().configure(warmDir);
            }
            Rep r = timedLibraryRep();
            walls.push_back(r.wallSec);
            cpus.push_back(r.cpuSec);
            report.attempted += ops;
            checkOutput(r.out, r.counts, report, "rep " + std::to_string(rep));
            std::string why;
            if (haveReference && !sameOutput(reference, r.out, why)) {
                report.fail("rep " + std::to_string(rep) + " differs from " +
                            (cold ? "rep 0: " : "the cold fill: ") + why);
                report.failed += ops;
            }
            if (!cold &&
                (r.counts[SimKernels] > 0 || r.counts[Measurements] > 0))
                report.fail("warm rep simulated or measured");
            if (!haveReference) {
                reference = r.out;
                haveReference = true;
            }
            if (rep == 0)
                recordCounts(report, r.counts, r.out);
        }
        report.note("rep_wall_s", joinNumbers(walls));
        report.note("rep_cpu_s", joinNumbers(cpus));
        report.note("setup_cpu_s", joinNumbers(setupSamples));
        report.note("setup_wall_s", joinNumbers(setupWalls));
        // The mean over the run's reps, not their median: the host's
        // interference comes in spells, so the walls of short warm reps
        // are often bimodal, and their median flips between the modes
        // from run to run.
        const double wall = mean(walls);
        report.set("setup_s", median(setupSamples), "s");
        report.set("wall_s", wall, "s");
        report.set("cpu_s", mean(cpus), "s");
        report.set("peak_rss_mb", peakRssMb(), "MB");
        // Every workload reports every end-to-end metric; on a campaign
        // this one is the campaign rate, wall_s read as a rate, so it
        // adds no verdict of its own.
        report.set("max_rps", 1.0 / wall, "1/s");
        return 0;
    }

    // --- traced: pairs of (untraced library rep, serial traced rep) ----
    SpanLedger ledger;
    double modelSimCycles = 0, tracedWall = 0, tracedCpu = 0;
    double untracedWall = 0, untracedCpu = 0;
    Counts tracedCounts;
    int pairs = 0;
    CampaignOutput last;
    auto prep = [&] {
        if (cold)
            prepCold();
        else
            ResultCache::instance().configure(warmDir);
    };
    const double start = nowSec();
    for (int rep = 0; rep < 1 || nowSec() - start < opts.seconds; ++rep) {
        prep();
        Rep lib = timedLibraryRep();
        untracedWall += lib.wallSec;
        untracedCpu += lib.cpuSec;
        report.attempted += ops;
        checkOutput(lib.out, lib.counts, report, "untraced rep");

        prep();
        setParallelThreadCount(1);
        const Counts c0 = readCounts();
        const double t0 = nowSec(), cpu0 = processCpuSec();
        CampaignOutput traced = runTracedCampaign(ledger, modelSimCycles);
        tracedWall += nowSec() - t0;
        tracedCpu += processCpuSec() - cpu0;
        const Counts d = readCounts() - c0;
        setParallelThreadCount(0);
        report.attempted += ops;

        std::string why;
        if (!sameOutput(lib.out, traced, why)) {
            report.fail("traced campaign differs from the library path: " +
                        why);
            report.failed += ops;
        }
        if (d[SimKernels] != lib.counts[SimKernels] ||
            d[Measurements] != lib.counts[Measurements] ||
            d[CacheWrites] != lib.counts[CacheWrites])
            report.fail("traced work counts differ: sim.kernels " +
                        num(d[SimKernels]) + " vs " +
                        num(lib.counts[SimKernels]) +
                        ", hw.nvml.measurements " + num(d[Measurements]) +
                        " vs " + num(lib.counts[Measurements]) +
                        ", cache.writes " + num(d[CacheWrites]) + " vs " +
                        num(lib.counts[CacheWrites]));
        if (haveReference && !sameOutput(reference, lib.out, why))
            report.fail("untraced rep differs from the cold fill: " + why);
        tracedCounts += d;
        ++pairs;
        last = std::move(lib.out);
        if (rep == 0)
            recordCounts(report, lib.counts, last);
    }

    const double n = pairs;
    auto layer = [&](const char *name) { return ledger.layer(name); };
    const auto m = mapes(last);
    report.note("pairs", n);
    report.set("sim.self_s", layer("sim").selfSec / n, "s");
    report.set("sim.calls", static_cast<double>(layer("sim").calls) / n,
               "count");
    report.set("sim.cycles", std::round(tracedCounts[SimCycles] / n),
               "cycles");
    report.set("sim.insts", tracedCounts[SimInsts] / n, "count");
    report.set("sim.cycles_per_cpu_s",
               layer("sim").selfCpuSec > 0
                   ? modelSimCycles / layer("sim").selfCpuSec
                   : 0,
               "cycles/s");
    report.set("hw.measure_s", layer("hw.measure").selfSec / n, "s");
    report.set("hw.measurements", tracedCounts[Measurements] / n, "count");
    report.set("hw.profile_s", layer("hw.profile").selfSec / n, "s");
    report.set("hw.profiles", tracedCounts[Profiles] / n, "count");
    report.set("core.fixed_power_s", layer("core.fixed_power").selfSec / n,
               "s");
    report.set("core.tune_s", layer("core.tune").selfSec / n, "s");
    report.set("solver.qp_solves", tracedCounts[QpSolves] / n, "count");
    report.set("solver.newton_iters", tracedCounts[NewtonIters] / n, "count");
    report.set("core.evaluate_s", layer("core.evaluate").selfSec / n, "s");
    report.set("core.evaluations",
               static_cast<double>(layer("core.evaluate").calls) / n,
               "count");
    report.set("core.cache.read_s", layer("core.cache.read").selfSec / n,
               "s");
    report.set("core.cache.reads",
               static_cast<double>(layer("core.cache.read").calls) / n,
               "count");
    const double lookups = tracedCounts[CacheHits] + tracedCounts[CacheMisses];
    report.set("core.cache.hit_ratio",
               lookups > 0 ? tracedCounts[CacheHits] / lookups : 0, "ratio");
    report.set("core.cache.write_s", layer("core.cache.write").selfSec / n,
               "s");
    report.set("core.cache.writes", tracedCounts[CacheWrites] / n, "count");
    report.set("common.parallel.cpu_per_wall", untracedCpu / untracedWall,
               "ratio");
    report.set("bench.coverage", ledger.totalSelfSec() / tracedWall, "ratio");
    report.set("bench.trace_overhead_pct",
               100.0 * (tracedCpu - untracedCpu) / untracedCpu, "%");
    for (size_t v = 0; v < kVariants.size(); ++v)
        report.set(std::string("mape_") + kVariantKeys[v] + "_pct", m[v], "%");
    for (const auto &[name, l] : ledger.layers())
        report.note("span." + name + ".self_s", l.selfSec / n);
    if (ledger.totalSelfSec() < 0.9 * tracedWall)
        report.fail("span self-times cover only " +
                    num(ledger.totalSelfSec() / tracedWall) +
                    " of the traced wall time");
    return 0;
}

} // namespace perfbench
