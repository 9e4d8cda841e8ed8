#include "sim/sm.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "obs/phase_timer.hpp"

namespace aw {

namespace {

/** Decorrelates the address streams of distinct SM groups while group 0
 *  keeps the legacy representative's stream (x ^ 0 == x). */
constexpr uint64_t kSmSeedSalt = 0x9E3779B97F4A7C15ULL;

} // namespace

SmCore::SmCore(const GpuConfig &gpu, const KernelDescriptor &desc,
               const WarpProgram &program, int residentWarps,
               MemorySystem &mem, double freqGhz, bool roundRobin,
               int smIndex)
    : gpu_(gpu), desc_(desc), program_(program), mem_(mem),
      roundRobin_(roundRobin), l1d_(gpu.l1d),
      addrRng_(desc.seed ^ 0xabcdULL ^
               (static_cast<uint64_t>(smIndex) * kSmSeedSalt))
{
    AW_ASSERT(residentWarps >= 1);
    AW_ASSERT(!program.body.empty());
    AW_ASSERT(smIndex >= 0);

    numWarps_ = static_cast<size_t>(residentWarps);
    bodySize_ = program.body.size();

    wNextIssue_.assign(numWarps_, 0.0);
    wReady_.assign(numWarps_ * kScoreboard, 0.0);
    wBodyIdx_.assign(numWarps_, 0);
    wItersLeft_.assign(numWarps_, program.iterations);
    wIssued_.assign(numWarps_, 0);
    wMemCursor_.assign(numWarps_, 0);
    wCta_.assign(numWarps_, 0);
    wFinished_.assign(numWarps_, 0);
    wProducerReady_.assign(numWarps_, 0.0);
    wNextUnit_.assign(numWarps_, 0);

    numSubcores_ = static_cast<size_t>(gpu.subcoresPerSm);
    subcoreWarps_.resize(numSubcores_);
    lastIssued_.assign(numSubcores_, -1);
    subcoreWake_.assign(numSubcores_, 0.0);
    unitFreeAt_.assign(numSubcores_, {});
    const int warpsPerCta = std::max(1, desc.warpsPerCta);
    barriers_.resize(static_cast<size_t>(residentWarps + warpsPerCta - 1) /
                     static_cast<size_t>(warpsPerCta));
    ctaWarps_.resize(barriers_.size());
    for (size_t w = 0; w < numWarps_; ++w) {
        const size_t subcore = w % numSubcores_;
        int cta = static_cast<int>(w) / warpsPerCta;
        wCta_[w] = cta;
        ++barriers_[static_cast<size_t>(cta)].warps;
        ctaWarps_[static_cast<size_t>(cta)].push_back(w);
        // Spread warps across the footprint so they share cache lines the
        // way neighbouring CTAs do; SM groups past the first continue the
        // stride pattern where the previous group's warps left off.
        wMemCursor_[w] =
            (w + static_cast<uint64_t>(smIndex) * numWarps_) * 8191;
        subcoreWarps_[subcore].push_back(w);
    }

    // Instruction-fetch locality: a loop body that fits in the L0
    // instruction cache only touches L1i on its first traversal.
    double bodyBytes = static_cast<double>(program.body.size()) * 16.0;
    bool fitsL0 = bodyBytes <= gpu.l0i.sizeKb * 1024.0;
    l1iPerIssue_ = fitsL0 ? 1.0 / std::max(1, program.iterations) : 1.0;
    l1iSums_.assign(1, 0.0);

    footprintLines_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(desc.memFootprintKb * 1024.0 /
                                 gpu.l1d.lineBytes));

    const double y = std::clamp(desc.activeLanes, 1, gpu.lanesPerSm);
    laneFrac_ = y / gpu.warpSize;
    std::array<double, kNumOpClasses> effII{};
    std::array<double, kNumOpClasses> latency{};
    for (size_t c = 0; c < kNumOpClasses; ++c) {
        OpClass op = static_cast<OpClass>(c);
        double ii = gpu.opInitiationInterval(op);
        // Half-warp execution: a warp with y active lanes needs only
        // ceil(II * y / warpSize) issue slots on the unit.
        effII[c] = std::max(1.0, std::ceil(ii * y / gpu.warpSize));
        latency[c] = gpu.opLatency(op);
    }

    decoded_.resize(bodySize_);
    for (size_t i = 0; i < bodySize_; ++i) {
        const TraceInst &inst = program.body[i];
        DecodedInst &d = decoded_[i];
        const size_t c = static_cast<size_t>(inst.op);
        d.effII = effII[c];
        d.latency = latency[c];
        d.depDist = inst.depDist;
        d.unit = static_cast<uint8_t>(opClassUnit(inst.op));
        if (isMemoryOp(inst.op))
            d.kind = kKindMemory;
        else if (inst.op == OpClass::NanoSleep)
            d.kind = kKindNanoSleep;
        else if (inst.op == OpClass::Bar)
            d.kind = kKindBar;
        else
            d.kind = kKindAlu;

        IssueWeight iw;
        iw.regWeight = (inst.regReads + inst.regWrites) * laneFrac_;
        iw.unitKind = static_cast<uint8_t>(opClassUnitKind(inst.op));
        switch (inst.op) {
          case OpClass::IntAdd:
          case OpClass::IntLogic:
          case OpClass::Mov:
            iw.intClass = 1;
            break;
          case OpClass::IntMul:
          case OpClass::IntMad:
            iw.intClass = 2;
            break;
          default:
            iw.intClass = 0;
            break;
        }
        iw.powerCompIdx = kNoPowerComp;
        if (!isMemoryOp(inst.op) &&
            inst.powerComp != PowerComponent::SmPipeline)
            iw.powerCompIdx =
                static_cast<uint8_t>(componentIndex(inst.powerComp));
        auto cls = std::find(weights_.begin(), weights_.end(), iw);
        d.weightClass = static_cast<uint16_t>(cls - weights_.begin());
        if (cls == weights_.end()) {
            AW_ASSERT(weights_.size() < 0xffff);
            weights_.push_back(iw);
        }
    }
    weightIssues_.assign(weights_.size(), 0);
    for (size_t w = 0; w < numWarps_; ++w)
        cacheNextInst(w);

    activity_ = ActivitySample{};
    activity_.freqGhz = freqGhz;
    activity_.voltage = gpu.vf.voltageAt(freqGhz);
    activity_.avgActiveLanesPerWarp = y;
}

[[gnu::always_inline]] inline void
SmCore::cacheNextInst(size_t w)
{
    const DecodedInst &dec = decoded_[wBodyIdx_[w]];
    wNextUnit_[w] = dec.unit;
    // Only this warp's own issues write its scoreboard, so the producer
    // slot read here holds what a scan would read until the warp next
    // issues.
    double ready = 0;
    if (dec.depDist > 0 && wIssued_[w] >= dec.depDist) {
        int64_t producer = wIssued_[w] - dec.depDist;
        ready = wReady_[w * kScoreboard +
                        static_cast<size_t>(producer) % kScoreboard];
    }
    wProducerReady_[w] = ready;
}

[[gnu::always_inline]] inline double
SmCore::gate(size_t w,
             const std::array<double, kNumExecUnits> &unitFree) const
{
    // An issue-only instruction reads the ExecUnit::None slot, which is
    // never written and stays 0.
    return std::max(std::max(wNextIssue_[w], wProducerReady_[w]),
                    unitFree[wNextUnit_[w]]);
}

[[gnu::always_inline]] inline double
SmCore::firstFailing(size_t w,
                     const std::array<double, kNumExecUnits> &unitFree,
                     double now) const
{
    // Selects, not branches: the checks' outcomes vary warp to warp.
    const double issueAt = wNextIssue_[w];
    const double producer = wProducerReady_[w];
    const double unit = unitFree[wNextUnit_[w]];
    const double later = producer > now ? producer : unit;
    return issueAt > now ? issueAt : later;
}

double
SmCore::memoryLatency(size_t w, const TraceInst &inst,
                      const DecodedInst &dec, double now,
                      double &occupancy)
{
    // Nested under the wave loop's issue scope: memory-instruction
    // modeling time lands here, exclusively.
    obs::PhaseScope memoryPhase(obs::SimPhase::Memory);
    const int txns = std::max<int>(1, inst.transactions);
    const double baseII = dec.effII;
    double worst = 0;
    switch (inst.op) {
      case OpClass::LdShared:
      case OpClass::StShared:
        activity_.accesses[componentIndex(PowerComponent::SharedMem)] +=
            txns;
        // Bank conflicts serialize the access through the LSU.
        occupancy = baseII * txns;
        return dec.latency + 2.0 * (txns - 1);
      case OpClass::LdConst:
        activity_.accesses[componentIndex(PowerComponent::ConstCache)] += 1;
        occupancy = baseII;
        return dec.latency;
      case OpClass::LdGlobal:
      case OpClass::StGlobal: {
        const bool isWrite = inst.op == OpClass::StGlobal;
        auto &l1dAccesses =
            activity_.accesses[componentIndex(PowerComponent::L1DCache)];
        auto &l2Accesses =
            activity_.accesses[componentIndex(PowerComponent::L2Noc)];
        auto &dramAccesses =
            activity_.accesses[componentIndex(PowerComponent::DramMc)];
        occupancy = baseII * txns; // uncoalesced accesses serialize
        for (int t = 0; t < txns; ++t) {
            uint64_t line;
            if (desc_.pointerChase) {
                line = addrRng_.below(footprintLines_);
            } else {
                line = wMemCursor_[w] % footprintLines_;
                ++wMemCursor_[w];
            }
            uint64_t addr =
                line * static_cast<uint64_t>(gpu_.l1d.lineBytes);
            l1dAccesses += 1;
            double lat = dec.latency;
            auto l1res = l1d_.access(addr, isWrite);
            // Write-through L1: stores always propagate to the L2.
            if (!l1res.hit || isWrite) {
                auto out = mem_.globalAccess(addr, isWrite, now);
                l2Accesses += out.l2Accesses;
                dramAccesses += out.dramAccesses;
                // The memory path's bandwidth share backpressures the
                // LSU: without this, stores (which nothing waits on)
                // would stream at issue rate regardless of L2/DRAM
                // bandwidth.
                occupancy += out.occupancyCycles;
                if (!l1res.hit)
                    lat += out.latencyCycles;
            }
            worst = std::max(worst, lat);
        }
        return worst;
      }
      default:
        panic("memoryLatency on non-memory op");
    }
}

void
SmCore::arriveAtBarrier(size_t w, double now)
{
    const int cta = wCta_[w];
    CtaBarrier &bar = barriers_[static_cast<size_t>(cta)];
    if (++bar.arrived >= bar.warps) {
        // Last arrival releases the whole CTA.
        bar.arrived = 0;
        for (size_t other : ctaWarps_[static_cast<size_t>(cta)]) {
            if (wFinished_[other])
                continue;
            wNextIssue_[other] = std::min(wNextIssue_[other], now + 1.0);
            // A CTA spans sub-cores, and the released warp's may be
            // asleep on a bound past now + 1.
            const size_t sc = other % numSubcores_;
            subcoreWake_[sc] = std::min(subcoreWake_[sc], now + 1.0);
        }
        return;
    }
    // Block until the rest of the CTA arrives.
    wNextIssue_[w] = 1e300;
}

[[gnu::noinline]] SmCore::IssueTiming
SmCore::issueSpecial(size_t w, const TraceInst &inst, const DecodedInst &dec,
                     double now)
{
    IssueTiming t{now + dec.latency, dec.effII};
    switch (dec.kind) {
      case kKindMemory: {
        double occupancy = t.unitBusy;
        t.completion = now + memoryLatency(w, inst, dec, now, occupancy);
        t.unitBusy = std::max(t.unitBusy, occupancy);
        break;
      }
      case kKindNanoSleep:
        wNextIssue_[w] = t.completion; // nanosleep blocks the warp
        break;
      case kKindBar:
        t.completion = now + 1.0;
        arriveAtBarrier(w, now);
        break;
      default:
        break;
    }
    return t;
}

[[gnu::always_inline]] inline void
SmCore::issue(size_t w, size_t subcore, double now)
{
    const size_t bodyIdx = wBodyIdx_[w];
    const DecodedInst &dec = decoded_[bodyIdx];

    // --- timing ---------------------------------------------------------
    IssueTiming t{now + dec.latency, dec.effII};
    if (dec.kind != kKindAlu) [[unlikely]]
        t = issueSpecial(w, program_.body[bodyIdx], dec, now);
    if (dec.unit != static_cast<uint8_t>(ExecUnit::None))
        unitFreeAt_[subcore][dec.unit] = now + t.unitBusy;
    wReady_[w * kScoreboard +
            static_cast<size_t>(wIssued_[w]) % kScoreboard] = t.completion;
    ++wIssued_[w];

    // --- power activity (Table 1), folded at the next drain -------------
    ++weightIssues_[dec.weightClass];

    // --- program counter --------------------------------------------------
    uint32_t next = static_cast<uint32_t>(bodyIdx) + 1;
    if (next == bodySize_) {
        next = 0;
        if (--wItersLeft_[w] <= 0) {
            wFinished_[w] = 1;
            ++warpsDone_;
        }
    }
    wBodyIdx_[w] = next;
    cacheNextInst(w);
}

double
SmCore::step(double now)
{
    double nextEvent = 1e300;
    bool issuedAny = false;
    for (size_t sc = 0; sc < numSubcores_; ++sc) {
        auto &ids = subcoreWarps_[sc];
        if (ids.empty())
            continue;

        // A scan that issued nothing proved no warp here can issue
        // before `wake`; until then a rescan would fail the same checks
        // on the same values. A scan that issues leaves `wake` <= now,
        // so the next step rescans.
        double &wake = subcoreWake_[sc];
        if (now < wake) {
            nextEvent = std::min(nextEvent, wake);
            continue;
        }

        const auto &unitFree = unitFreeAt_[sc];
        int &last = lastIssued_[sc];
        const int n = static_cast<int>(ids.size());
        int issuedAt = -1;
        if (roundRobin_) {
            // Round-robin: resume scanning after the last issued warp.
            int i = last;
            for (int off = 0; off < n; ++off) {
                if (++i >= n)
                    i = 0;
                if (gate(ids[static_cast<size_t>(i)], unitFree) <= now) {
                    issuedAt = i;
                    break;
                }
            }
        } else if (last >= 0 &&
                   gate(ids[static_cast<size_t>(last)], unitFree) <= now) {
            // GTO: greedy on the last issued warp...
            issuedAt = last;
        } else {
            // ...then oldest-first.
            for (int i = 0; i < n; ++i) {
                if (i == last)
                    continue; // already tried greedily
                if (gate(ids[static_cast<size_t>(i)], unitFree) <= now) {
                    issuedAt = i;
                    break;
                }
            }
        }
        if (issuedAt < 0) {
            // Every live warp failed: the sub-core sleeps until the
            // earliest first-failing check among them.
            double scanWake = 1e300;
            for (size_t w : ids)
                scanWake = std::min(scanWake, firstFailing(w, unitFree, now));
            wake = scanWake;
            nextEvent = std::min(nextEvent, scanWake);
            continue;
        }

        const size_t w = ids[static_cast<size_t>(issuedAt)];
        issue(w, sc, now);
        issuedAny = true;
        last = issuedAt;
        if (wFinished_[w]) {
            // Prune a warp that just retired from the live list so
            // future scans skip it. The circular-order successor of the
            // erased slot keeps the round-robin rotation intact; GTO
            // resets its greedy pointer (scanning oldest-first next
            // cycle, exactly what the unpruned scan would have resolved
            // to).
            ids.erase(ids.begin() + issuedAt);
            last = roundRobin_ ? issuedAt - 1 : -1;
        }
    }
    if (issuedAny || done()) {
        ++issueCycles_;
        return now + 1.0;
    }
    // Nothing could issue: the caller may fast-forward to the next event.
    ++stallCycles_;
    return std::max(now + 1.0, nextEvent);
}

ActivitySample
SmCore::drainActivity()
{
    // Fold the issue counts into the sample; exact (see "Activity fold"
    // in sm.hpp).
    auto &acc = activity_.accesses;
    uint64_t issued = 0;
    for (size_t c = 0; c < weights_.size(); ++c) {
        const uint64_t count = weightIssues_[c];
        if (count == 0)
            continue;
        weightIssues_[c] = 0;
        issued += count;
        const IssueWeight &iw = weights_[c];
        const double n = static_cast<double>(count);
        acc[componentIndex(PowerComponent::InstBuffer)] += n;
        acc[componentIndex(PowerComponent::Scheduler)] += n;
        acc[componentIndex(PowerComponent::SmPipeline)] += n;
        acc[componentIndex(PowerComponent::RegFile)] += n * iw.regWeight;
        if (iw.powerCompIdx != kNoPowerComp)
            acc[iw.powerCompIdx] += n * laneFrac_;
        activity_.unitInsts[iw.unitKind] += n;
        if (iw.intClass == 1)
            activity_.intAddInsts += n;
        else if (iw.intClass == 2)
            activity_.intMulInsts += n;
    }
    while (l1iSums_.size() <= issued)
        l1iSums_.push_back(l1iSums_.back() + l1iPerIssue_);
    acc[componentIndex(PowerComponent::InstCache)] += l1iSums_[issued];

    ActivitySample out = activity_;
    // Reset the extensive quantities; keep the intensive settings.
    activity_.accesses = {};
    activity_.unitInsts = {};
    activity_.intAddInsts = 0;
    activity_.intMulInsts = 0;
    activity_.cycles = 0;
    return out;
}

long
SmCore::issuedInsts() const
{
    int64_t total = 0;
    for (int64_t n : wIssued_)
        total += n;
    return static_cast<long>(total);
}

} // namespace aw
