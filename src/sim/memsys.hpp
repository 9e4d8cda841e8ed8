/**
 * @file
 * Chip-level memory system as seen by one simulated SM: an L2 slice
 * (capacity share of the chip-wide L2), NoC latency, and a DRAM model
 * with a bandwidth share and queueing.
 *
 * The simulator models one representative SM per shard in detail and
 * scales activities by the number of SMs it stands for (the paper's
 * Eq. 6 makes the same all-SMs-equal assumption); each shard's memory
 * system accordingly gives its SM 1/k of the chip's L2 capacity and
 * DRAM bandwidth, and shards never share one. L2 and DRAM traffic
 * reach the activity samples as the SM's L2Noc and DramMc access
 * counts, taken from each access's MemAccessOutcome.
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

  private:
    const GpuConfig &gpu_;
    CacheModel l2_;
    double cycleScale_;     ///< f / f_default: converts base cycles
    bool idealizedBandwidth_;
    double l2BytesPerCycle_;
    double l2NextFree_ = 0;
    double dramBytesPerCycle_;
    double dramNextFree_ = 0;
};

} // namespace aw
