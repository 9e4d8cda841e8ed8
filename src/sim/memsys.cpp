#include "sim/memsys.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace aw {

MemorySystem::MemorySystem(const GpuConfig &gpu, int activeSms,
                           double freqGhz, bool idealizedBandwidth)
    : gpu_(gpu),
      l2_(gpu.l2, std::max(64.0, static_cast<double>(gpu.l2.sizeKb) /
                                     std::max(1, activeSms))),
      idealizedBandwidth_(idealizedBandwidth)
{
    AW_ASSERT(activeSms >= 1);
    cycleScale_ = freqGhz / gpu.defaultClockGhz;
    // GB/s shared across active SMs, expressed in bytes per core cycle.
    l2BytesPerCycle_ =
        gpu.l2BandwidthGBs / std::max(1, activeSms) / freqGhz;
    dramBytesPerCycle_ =
        gpu.dramBandwidthGBs / std::max(1, activeSms) / freqGhz;
}

MemAccessOutcome
MemorySystem::globalAccess(uint64_t addr, bool isWrite, double now)
{
    MemAccessOutcome out;
    out.l2Accesses = 1;
    out.latencyCycles = gpu_.nocLatencyCycles * cycleScale_ +
                        gpu_.l2.latencyCycles * cycleScale_;

    // L2 bandwidth share: each transaction occupies the slice port.
    if (!idealizedBandwidth_) {
        double l2Service =
            static_cast<double>(l2_.lineBytes()) / l2BytesPerCycle_;
        double l2Start = std::max(now, l2NextFree_);
        l2NextFree_ = l2Start + l2Service;
        out.latencyCycles += (l2Start - now) + l2Service;
        out.occupancyCycles += l2Service;
    }

    auto l2res = l2_.access(addr, isWrite);
    bool needDram = !l2res.hit;
    if (l2res.writeback)
        ++out.dramAccesses; // dirty eviction drains to DRAM
    if (needDram) {
        ++out.dramAccesses;
        // Queue on the DRAM bandwidth share: each line occupies the
        // channel for lineBytes / bytesPerCycle core cycles.
        out.latencyCycles += gpu_.dramLatencyCycles * cycleScale_;
        if (!idealizedBandwidth_) {
            double serviceCycles =
                static_cast<double>(l2_.lineBytes()) / dramBytesPerCycle_;
            double start = std::max(now, dramNextFree_);
            dramNextFree_ = start + serviceCycles;
            out.latencyCycles += (start - now) + serviceCycles;
            out.occupancyCycles += serviceCycles;
        }
    }
    return out;
}

} // namespace aw
