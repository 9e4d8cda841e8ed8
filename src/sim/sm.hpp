/**
 * @file
 * Cycle-level model of one Streaming Multiprocessor: four processing
 * blocks, each with a greedy-then-oldest (GTO) warp scheduler issuing one
 * instruction per cycle to half-warp-wide execution pipelines, backed by
 * a scoreboard over the warp's recent results, an L1D/constant cache,
 * shared memory, and the chip-level memory system.
 *
 * The SM records per-component activity (Table 1) with cycle stamps so
 * the simulator can emit the 500-cycle ActivitySamples AccelWattch
 * consumes (Section 5.2).
 *
 * Layout: the per-warp scheduler state lives in structure-of-arrays
 * form (one flat vector per field, indexed by warp id) instead of an
 * array of Warp structs. The per-body instruction stream is decoded
 * once at construction (latencies, initiation intervals, unit and
 * power-component indices) so the hot path never re-derives them from
 * OpClass switches. Retired warps are pruned from the per-subcore
 * scheduler lists, shrinking the scan as the tail of a kernel drains.
 *
 * The issue loop skips work whose outcome it already knows:
 *  - Readiness cache. Each warp keeps two facts about its next
 *    instruction, refreshed when it issues: the ready time of its
 *    scoreboard producer and its execution unit. A readiness check is
 *    then three compares on flat arrays (issue gate, producer, unit),
 *    and the first failing one is the warp's wake time. Only the
 *    warp's own issues write its scoreboard, so the cached producer
 *    time equals what a scan would read.
 *  - Sub-core wake bound. A scan that issues nothing records the
 *    earliest wake time it found, and the sub-core returns that bound
 *    without scanning until `now` reaches it. A stalled sub-core's
 *    warps, scoreboard, units, live list and GTO/RR pointer change
 *    only when that sub-core issues, with one exception: a barrier
 *    release from another sub-core, which lowers the bound of each
 *    released warp's sub-core to `now + 1`.
 * Reporting the *first* failing check (not the latest blocking time)
 * keeps every fast-forward step, sample split and stall count what a
 * full rescan would produce. All of this is bit-exact with the
 * original array-of-structs implementation that scanned every warp
 * every step: same arithmetic on the same values in the same order.
 *
 * Sharding: an SmCore can stand for one *group* of the chip's SMs (see
 * src/sim/shard.hpp). `smIndex` decorrelates the group's address
 * streams — the RNG seed and the per-warp memory cursors are offset by
 * the group's first SM index — while `smIndex == 0` reproduces the
 * legacy single-representative behaviour bit for bit.
 */
#pragma once

#include <array>
#include <vector>

#include "arch/activity.hpp"
#include "arch/gpu_config.hpp"
#include "common/rng.hpp"
#include "sim/cache.hpp"
#include "sim/memsys.hpp"
#include "trace/tracegen.hpp"

namespace aw {

/** One SM executing `residentWarps` copies of the warp program. */
class SmCore
{
  public:
    /**
     * @param gpu           target architecture
     * @param desc          kernel descriptor (divergence, memory shape)
     * @param program       per-warp instruction program
     * @param residentWarps warps resident on this SM (all subcores)
     * @param mem           chip-level memory system (L2 slice + DRAM)
     * @param freqGhz       core clock for this run (stamped on samples)
     * @param roundRobin    RR scheduling instead of greedy-then-oldest
     * @param smIndex       first SM index of the group this core stands
     *                      for (0 = the legacy representative; offsets
     *                      the address-RNG seed and memory cursors)
     */
    SmCore(const GpuConfig &gpu, const KernelDescriptor &desc,
           const WarpProgram &program, int residentWarps, MemorySystem &mem,
           double freqGhz, bool roundRobin = false, int smIndex = 0);

    /** True when every resident warp has retired its program. */
    bool done() const { return warpsDone_ == numWarps_; }

    /**
     * Advance the SM by one cycle at time `now`; returns the earliest
     * future cycle at which new work can possibly issue (used by the
     * simulator to fast-forward through stall periods).
     */
    double step(double now);

    /**
     * Activity accumulated since the last drain. `cycles` is set by the
     * caller (the sampling loop) when closing the interval.
     */
    ActivitySample drainActivity();

    const CacheModel &l1d() const { return l1d_; }

    // Scheduler observability (plain members, flushed into the metrics
    // registry once per kernel by GpuSimulator::run). issueCycles and
    // stallCycles count step() calls, not simulated cycles: a
    // fast-forward across many idle cycles is one stalled step.
    long issuedInsts() const { return issuedInsts_; }
    long issueCycles() const { return issueCycles_; } ///< steps, >=1 issue
    long stallCycles() const { return stallCycles_; } ///< steps, no issue

  private:
    /** Barrier bookkeeping for one resident CTA. */
    struct CtaBarrier
    {
        int warps = 0;   ///< resident warps participating
        int arrived = 0; ///< warps currently waiting at the barrier
    };

    /**
     * The per-body-instruction facts the issue loop needs, decoded once
     * at construction so the hot path is lookups, not OpClass switches.
     */
    struct DecodedInst
    {
        double effII = 1;      ///< effective initiation interval
        double latency = 0;    ///< completion latency (cycles)
        double regWeight = 0;  ///< (regReads + regWrites) * laneFrac
        uint16_t depDist = 0;  ///< scoreboard producer distance
        uint8_t unit = 0;      ///< ExecUnit
        uint8_t unitKind = 0;  ///< UnitKind (mix classification)
        uint8_t kind = 0;      ///< Kind below
        uint8_t intClass = 0;  ///< 0 none, 1 add-like, 2 mul-like
        /** componentIndex(powerComp), or kNoPowerComp for memory ops
         *  and the pipeline component (no extra access recorded). */
        uint8_t powerCompIdx = 0;
    };

    enum : uint8_t
    {
        kKindAlu = 0,
        kKindMemory,
        kKindNanoSleep,
        kKindBar
    };
    static constexpr uint8_t kNoPowerComp = 0xff;

    static constexpr size_t kScoreboard = 64;

    /** Attempt to issue for one subcore; returns true if issued. */
    bool tryIssueSubcore(int subcore, double now, double &nextEvent);

    /** Can warp `w` issue its next instruction at `now`? If not,
     *  lowers `wakeTime` to the value of the first failing check. */
    bool warpReady(size_t w, int subcore, double now,
                   double &wakeTime) const;

    /** Refresh warp `w`'s readiness cache for its next instruction. */
    void cacheNextInst(size_t w);

    /** Issue warp `w`'s next instruction; updates all state. */
    void issue(size_t w, int subcore, double now);

    /** Handle a BAR.SYNC: block the warp or release its whole CTA. */
    void arriveAtBarrier(size_t w, double now);

    /**
     * Timing + traffic of a memory instruction's transactions.
     * `occupancy` returns the cycles the LSU/memory path stays busy
     * (serialized transactions, L2/DRAM bandwidth shares) so issue()
     * can backpressure subsequent memory instructions.
     */
    double memoryLatency(size_t w, const TraceInst &inst,
                         const DecodedInst &dec, double now,
                         double &occupancy);

    const GpuConfig &gpu_;
    const KernelDescriptor &desc_;
    const WarpProgram &program_;
    MemorySystem &mem_;

    size_t numWarps_ = 0;
    size_t bodySize_ = 0;
    std::vector<DecodedInst> decoded_; ///< one per body instruction

    // --- per-warp state, structure-of-arrays (indexed by warp id) ------
    std::vector<double> wNextIssue_;   ///< earliest cycle warp may issue
    std::vector<double> wReady_;       ///< scoreboard, kScoreboard/warp
    std::vector<uint32_t> wBodyIdx_;   ///< next body instruction
    std::vector<int32_t> wItersLeft_;  ///< loop trips remaining
    std::vector<int64_t> wIssued_;     ///< instructions issued so far
    std::vector<uint64_t> wMemCursor_; ///< strided-address cursor
    std::vector<int32_t> wCta_;        ///< CTA id (barrier scope)
    std::vector<uint8_t> wFinished_;   ///< warp retired its program
    // Readiness cache for the warp's next instruction (cacheNextInst).
    std::vector<double> wProducerReady_; ///< scoreboard producer ready
    std::vector<uint8_t> wNextUnit_;     ///< ExecUnit

    std::vector<CtaBarrier> barriers_;
    std::vector<std::vector<size_t>> ctaWarps_; ///< warp ids per CTA
    size_t warpsDone_ = 0;

    /** Live (unretired) warp ids per processing block, in warp-id
     *  (oldest-first) order; retired warps are pruned. */
    std::vector<std::vector<size_t>> subcoreWarps_;
    std::vector<int> lastIssued_; ///< GTO/RR pointer into the live list
    bool roundRobin_ = false;     ///< RR instead of greedy-then-oldest
    /** Per sub-core: no warp can issue before this cycle (set by a scan
     *  that issued nothing, lowered by barrier releases). */
    std::vector<double> subcoreWake_;
    std::vector<std::array<double, kNumExecUnits>> unitFreeAt_;

    CacheModel l1d_;
    Rng addrRng_;
    double laneFrac_;    ///< y / warpSize
    double l1iPerIssue_; ///< L1i accesses per issued instruction
    uint64_t footprintLines_;

    ActivitySample activity_;

    long issuedInsts_ = 0;
    long issueCycles_ = 0;
    long stallCycles_ = 0;
};

} // namespace aw
