/**
 * @file
 * Chip-level memory system as seen by one simulated SM: an L2 slice
 * (capacity share of the chip-wide L2), NoC latency, and a DRAM model
 * with a bandwidth share and queueing.
 *
 * The simulator models one representative SM in detail and scales
 * activities by the number of active SMs (the paper's Eq. 6 makes the
 * same all-SMs-equal assumption); the memory system accordingly gives
 * this SM 1/k of the chip's L2 capacity and DRAM bandwidth.
 */
#pragma once

#include "arch/gpu_config.hpp"
#include "sim/cache.hpp"

namespace aw {

/** Timing and traffic outcome of one global-memory transaction. */
struct MemAccessOutcome
{
    double latencyCycles = 0; ///< total core cycles until data returns
    /**
     * Core cycles of shared-resource service this transaction consumed
     * (L2/DRAM bandwidth share). The SM uses it to backpressure issue:
     * stores in particular are throttled by it, since nothing ever
     * waits on their completion.
     */
    double occupancyCycles = 0;
    int l2Accesses = 0;       ///< L2+NoC events generated
    int dramAccesses = 0;     ///< DRAM+MC events generated
};

/**
 * Memory traffic accumulated by one MemorySystem since the last drain.
 * The sharded simulator (src/sim/shard.hpp) drains every shard's
 * ledger at each epoch boundary, in SM-index order, into the chip-wide
 * totals — the ordered reduction that keeps the merged memory-system
 * statistics independent of how shards interleave across threads.
 */
struct MemTraffic
{
    uint64_t l2Accesses = 0;   ///< L2+NoC events serviced
    uint64_t dramAccesses = 0; ///< DRAM+MC events serviced
    double l2BusyCycles = 0;   ///< L2 port service time consumed
    double dramBusyCycles = 0; ///< DRAM channel service time consumed
};

/** L2 slice + DRAM for one simulated SM. */
class MemorySystem
{
  public:
    /**
     * @param gpu        target architecture
     * @param activeSms  SMs sharing L2 capacity and DRAM bandwidth (k)
     * @param freqGhz    core clock; off-chip latencies are constant in
     *                   wall time, so their cycle cost scales with f
     */
    /**
     * @param idealizedBandwidth legacy emulation-mode memory model:
     *        no L2/DRAM bandwidth queuing (the PTX path's weaker
     *        memory system, one of the reasons virtual-ISA simulation
     *        tracks silicon worse — Section 6.2)
     */
    MemorySystem(const GpuConfig &gpu, int activeSms, double freqGhz,
                 bool idealizedBandwidth = false);

    /**
     * Perform one 1-line global transaction at core-cycle `now`.
     * Write-through at L1 is handled by the caller; stores here access
     * the L2 and, on miss or writeback, DRAM.
     */
    MemAccessOutcome globalAccess(uint64_t addr, bool isWrite, double now);

    /** Traffic since the last drain; resets the ledger. */
    MemTraffic drainTraffic();

  private:
    const GpuConfig &gpu_;
    CacheModel l2_;
    MemTraffic traffic_;
    double cycleScale_;     ///< f / f_default: converts base cycles
    bool idealizedBandwidth_;
    double l2BytesPerCycle_;
    double l2NextFree_ = 0;
    double dramBytesPerCycle_;
    double dramNextFree_ = 0;
};

} // namespace aw
