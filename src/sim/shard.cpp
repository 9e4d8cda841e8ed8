#include "sim/shard.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aw {

namespace {

/** One detailed SM group and its private simulation state. */
struct Shard
{
    std::unique_ptr<MemorySystem> mem;
    std::unique_ptr<SmCore> sm;
    int smCount = 0;
    int firstSm = 0;
    double now = 0;
    bool cancelled = false;
    std::vector<ActivitySample> samples;
};

bool
cancelRequested(const SimOptions &opts)
{
    return opts.cancel && opts.cancel->load(std::memory_order_relaxed);
}

/**
 * Advance one shard until its SM retires, it reaches the cycle cap, or
 * cancellation is requested (polled before the first step and at each
 * sample close). A sample closes whenever the clock passes the next
 * interval multiple. All the activity of the boundary-crossing step
 * lands in the closed sample; the further intervals a long stall
 * fast-forward crosses carry no activity, so they collapse into one
 * idle sample instead of one zero sample per interval.
 */
void
runShard(Shard &sh, const SimOptions &opts)
{
    // The zone's self time is the issue loop's: the `sim/memory` zones
    // opened in SmCore::memoryLatency and `sim/sample` below nest in it.
    AW_PROF_SCOPE("sim/wave");
    const double interval = opts.sampleIntervalCycles;
    const double cap = static_cast<double>(opts.maxCycles);
    SmCore &sm = *sh.sm;
    double sampleStart = 0;
    sh.cancelled = cancelRequested(opts);
    while (!sh.cancelled && !sm.done() && sh.now < cap) {
        double next = sm.step(sh.now);
        if (next >= sampleStart + interval) {
            AW_PROF_SCOPE("sim/sample", obs::ZoneKind::TallyOnly);
            ActivitySample s = sm.drainActivity();
            s.cycles = interval;
            sh.samples.push_back(std::move(s));
            sampleStart += interval;
            double idleIntervals =
                std::floor((next - sampleStart) / interval);
            if (idleIntervals >= 1) {
                ActivitySample idle = sm.drainActivity();
                idle.cycles = idleIntervals * interval;
                sh.samples.push_back(std::move(idle));
                sampleStart += idleIntervals * interval;
            }
            sh.cancelled = cancelRequested(opts);
        }
        sh.now = next;
    }
    if (sh.now > sampleStart) {
        ActivitySample s = sm.drainActivity();
        s.cycles = sh.now - sampleStart;
        sh.samples.push_back(std::move(s));
    }
}

bool
sampleIsIdle(const ActivitySample &s)
{
    for (double a : s.accesses)
        if (a != 0)
            return false;
    for (double u : s.unitInsts)
        if (u != 0)
            return false;
    return s.intAddInsts == 0 && s.intMulInsts == 0;
}

/** Sample intervals a shard sample covers: one for a closed or trailing
 *  sample, several for a collapsed idle run. */
long long
intervalsCovered(const ActivitySample &s, double interval)
{
    return std::max<long long>(1, std::llround(s.cycles / interval));
}

/**
 * Ordered streaming merge of the shards' sample streams, each of which
 * starts its samples on interval multiples. An output sample starts
 * wherever a shard sample starts or a shard's stream ends. It sums, in
 * SM-index order onto `tmpl`, every shard sample starting there, scaled
 * by the shard's SM count, and its cycles run to the next such start,
 * or to `maxNow` for the last one. A sample with any activity thus
 * spans exactly one interval, and the result is the chip-wide
 * interval-by-interval stream without ever materializing one slot per
 * interval (a Pascal tensor kernel fast-forwards ~1e9 cycles).
 *
 * With two or more shards, an all-idle output sample folds into an
 * all-idle predecessor, so a stall the shards enter at different
 * intervals stays one sample. One shard keeps its own boundaries, as
 * the single-representative simulator always has: there a closed
 * sample without activity can precede an idle run (only Pascal tensor
 * kernels do this), and folding it would change detail-1 samples that
 * result caches hold under unchanged keys.
 */
std::vector<ActivitySample>
mergeShards(const std::vector<Shard> &shards, const ActivitySample &tmpl,
            double interval, double maxNow)
{
    const size_t n = shards.size();
    std::vector<size_t> next(n, 0);  // each shard's first unmerged sample
    std::vector<long long> at(n, 0); // its start interval, then stream end
    long long end = 0;
    for (const Shard &sh : shards) {
        long long e = 0;
        for (const ActivitySample &s : sh.samples)
            e += intervalsCovered(s, interval);
        end = std::max(end, e);
    }
    // The last output sample ends at maxNow, off the interval grid. Its
    // whole intervals are added first and this tail last, so the cycle
    // count rounds once, exactly as a per-interval sum would.
    const double tail = maxNow - static_cast<double>(end - 1) * interval;

    std::vector<ActivitySample> out;
    for (long long pos = 0; pos < end;) {
        ActivitySample merged = tmpl;
        long long stop = end;
        for (size_t g = 0; g < n; ++g) {
            const Shard &sh = shards[g];
            if (at[g] == pos && next[g] < sh.samples.size()) {
                const ActivitySample &s = sh.samples[next[g]++];
                const double scale = sh.smCount;
                for (size_t c = 0; c < s.accesses.size(); ++c)
                    merged.accesses[c] += s.accesses[c] * scale;
                for (size_t u = 0; u < s.unitInsts.size(); ++u)
                    merged.unitInsts[u] += s.unitInsts[u] * scale;
                merged.intAddInsts += s.intAddInsts * scale;
                merged.intMulInsts += s.intMulInsts * scale;
                at[g] += intervalsCovered(s, interval);
            }
            if (at[g] > pos)
                stop = std::min(stop, at[g]);
        }
        const bool last = stop == end;
        const double whole =
            static_cast<double>(stop - pos - (last ? 1 : 0)) * interval;
        if (n > 1 && !out.empty() && sampleIsIdle(merged) &&
            sampleIsIdle(out.back())) {
            out.back().cycles += whole;
        } else {
            merged.cycles = whole;
            out.push_back(std::move(merged));
        }
        if (last)
            out.back().cycles += tail;
        pos = stop;
    }
    return out;
}

/** Per-kernel flush of the SM counters into the registry (static
 *  references: one name lookup per process, then lock-free).
 *  `sim.sm.issue_cycles` and `sim.sm.issue_stalls` count SmCore steps
 *  with and without an issue (see SimRunStats), not simulated cycles. */
void
flushSimMetrics(double cycles, size_t sampleCount, int waves,
                const SimRunStats &stats)
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
    instsC.add(static_cast<double>(stats.issuedInsts));
    issueCyclesC.add(static_cast<double>(stats.issueCycles));
    stallsC.add(static_cast<double>(stats.stallCycles));
    if (stats.cancelled)
        metrics().counter("sim.cancelled").add(1);
}

} // namespace

ShardPlan
planShards(int activeSms, int detail)
{
    AW_ASSERT(activeSms >= 1);
    const int groups = std::clamp(detail, 1, activeSms);
    const int base = activeSms / groups;
    const int rem = activeSms % groups;
    ShardPlan plan;
    plan.smCounts.reserve(static_cast<size_t>(groups));
    plan.firstSmIndex.reserve(static_cast<size_t>(groups));
    int first = 0;
    for (int g = 0; g < groups; ++g) {
        int count = base + (g < rem ? 1 : 0);
        plan.smCounts.push_back(count);
        plan.firstSmIndex.push_back(first);
        first += count;
    }
    return plan;
}

KernelActivity
runShardedSim(const GpuConfig &gpu, const KernelDescriptor &desc,
              const WarpProgram &program, const SimOptions &opts,
              const LaunchShape &shape, double freqGhz, int detail,
              SimRunStats &stats)
{
    std::vector<Shard> shards;
    {
        AW_PROF_SCOPE("sim/setup");
        ShardPlan plan = planShards(shape.activeSms, detail);
        shards.resize(plan.smCounts.size());
        for (size_t g = 0; g < shards.size(); ++g) {
            Shard &sh = shards[g];
            sh.smCount = plan.smCounts[g];
            sh.firstSm = plan.firstSmIndex[g];
            // Each shard's memory system keeps the 1/k capacity and
            // bandwidth shares: the shard still stands for one SM's view
            // of the chip; detail only diversifies which SMs get a
            // detailed model. The emulation (PTX) path carries the
            // idealized memory model; the trace-driven (SASS) path
            // models bandwidth contention.
            sh.mem = std::make_unique<MemorySystem>(
                gpu, shape.activeSms, freqGhz,
                program.isa == IsaLevel::Ptx);
            sh.sm = std::make_unique<SmCore>(
                gpu, desc, program, shape.residentWarps, *sh.mem, freqGhz,
                opts.scheduler == SchedulerPolicy::RoundRobin, sh.firstSm);
        }
    }

    const size_t numShards = shards.size();
    const int threadCap = std::max(
        1, opts.simThreads > 0 ? opts.simThreads : simThreadCount());
    stats.shards = static_cast<int>(numShards);
    stats.threads =
        static_cast<int>(std::min(static_cast<size_t>(threadCap), numShards));

    // One task per shard, run to completion; one shard runs inline on
    // the caller. A shard run on a pool worker opens its `sim/wave`
    // zone on that worker's stack, so the caller's `sim/kernel` counts
    // the wait for it as self time (obs/trace.hpp, "Parallel regions").
    parallelForWith(stats.threads, numShards,
                    [&](size_t g) { runShard(shards[g], opts); });

    AW_PROF_SCOPE("sim/finalize");
    double maxNow = 0;
    for (const Shard &sh : shards) {
        if (!sh.sm->done() && !sh.cancelled)
            warn("simulation of %s (shard sm %d+) hit the cycle cap (%ld)",
                 desc.name.c_str(), sh.firstSm, opts.maxCycles);
        stats.cancelled = stats.cancelled || sh.cancelled;
        maxNow = std::max(maxNow, sh.now);
        stats.issuedInsts += sh.sm->issuedInsts();
        stats.issueCycles += sh.sm->issueCycles();
        stats.stallCycles += sh.sm->stallCycles();
    }

    // A drained sample keeps only the intensive settings (clock,
    // voltage, lane occupancy): the template of every merged sample.
    ActivitySample tmpl = shards[0].sm->drainActivity();
    tmpl.avgActiveSms = shape.activeSms;
    KernelActivity out;
    out.kernelName = desc.name;
    out.samples =
        mergeShards(shards, tmpl, opts.sampleIntervalCycles, maxNow);
    out.totalCycles = maxNow * shape.waves;
    out.elapsedSec = out.totalCycles / (freqGhz * 1e9);

    flushSimMetrics(maxNow, out.samples.size(), shape.waves, stats);
    AW_DEBUGF("sim",
              "%s: %.0f cycles, %zu samples, %d waves, %ld insts, "
              "%ld stall steps (%d shards, %d threads)",
              desc.name.c_str(), out.totalCycles, out.samples.size(),
              shape.waves, stats.issuedInsts, stats.stallCycles,
              stats.shards, stats.threads);
    return out;
}

} // namespace aw
