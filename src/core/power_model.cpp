#include "core/power_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aw {

double
PowerBreakdown::dynamicTotalW() const
{
    double sum = 0;
    for (double w : dynamicW)
        sum += w;
    return sum;
}

double
PowerBreakdown::totalW() const
{
    return constW + staticW + idleSmW + dynamicTotalW();
}

double
PowerBreakdown::sumOf(std::initializer_list<PowerComponent> comps) const
{
    double sum = 0;
    for (PowerComponent c : comps)
        sum += dynamicW[componentIndex(c)];
    return sum;
}

double
AccelWattchModel::staticPerActiveSmW(MixCategory mix, double yLanes) const
{
    const auto &model = divergence[static_cast<size_t>(mix)];
    return model.staticAtLanes(yLanes) / std::max(1, calibrationSms);
}

PowerBreakdown
AccelWattchModel::evaluate(const ActivitySample &sample) const
{
    static obs::Counter &evals = obs::metrics().counter("model.evaluations");
    evals.add(1);
    PowerBreakdown out;
    if (sample.cycles <= 0 || sample.freqGhz <= 0) {
        out.constW = constPowerW;
        return out;
    }
    const double seconds = sample.cycles / (sample.freqGhz * 1e9);
    const double v = sample.voltage > 0
                         ? sample.voltage
                         : gpu.vf.voltageAt(sample.freqGhz);
    const double vDyn = (v / refVoltage) * (v / refVoltage);
    const double vStatic = v / refVoltage;

    for (size_t i = 0; i < kNumPowerComponents; ++i)
        out.dynamicW[i] =
            sample.accesses[i] * energyNj[i] * 1e-9 / seconds * vDyn;

    const double k = std::clamp(sample.avgActiveSms, 0.0,
                                static_cast<double>(gpu.numSms));
    out.staticW = staticPerActiveSmW(sample.mixCategory(),
                                     sample.avgActiveLanesPerWarp) *
                  k * vStatic;
    out.idleSmW = idleSmW * (gpu.numSms - k) * vStatic;
    out.constW = constPowerW;
    return out;
}

PowerBreakdown
AccelWattchModel::evaluateKernel(const KernelActivity &activity) const
{
    AW_PROF_SCOPE("model/evaluate");
    if (activity.samples.empty())
        fatal("evaluateKernel: kernel %s has no activity samples",
              activity.kernelName.c_str());
    static obs::Counter &evals =
        obs::metrics().counter("model.kernel_evaluations");
    evals.add(1);
    // Cycle-weighted average of per-sample power: correct under DVFS
    // transitions where V/f differ across samples.
    PowerBreakdown avg;
    double totalCycles = 0;
    for (const auto &s : activity.samples)
        totalCycles += s.cycles;
    if (totalCycles <= 0)
        fatal("evaluateKernel: kernel %s has zero cycles",
              activity.kernelName.c_str());
    for (const auto &s : activity.samples) {
        PowerBreakdown b = evaluate(s);
        double w = s.cycles / totalCycles;
        avg.constW += b.constW * w;
        avg.staticW += b.staticW * w;
        avg.idleSmW += b.idleSmW * w;
        for (size_t i = 0; i < kNumPowerComponents; ++i)
            avg.dynamicW[i] += b.dynamicW[i] * w;
    }
    return avg;
}

double
AccelWattchModel::averagePowerW(const KernelActivity &activity) const
{
    return evaluateKernel(activity).totalW();
}

const std::string &
breakdownGroupName(BreakdownGroup g)
{
    static const std::string names[] = {
        "Const", "Static", "Idle_SM", "RegFile", "ALU", "FPU+DPU", "SFU",
        "TENSOR", "L1D+SHRD", "icache+Ccache", "L2+NOC", "DRAM+MC", "TEX",
        "Others",
    };
    size_t i = static_cast<size_t>(g);
    AW_ASSERT(i < kNumBreakdownGroups);
    return names[i];
}

std::array<double, kNumBreakdownGroups>
groupBreakdown(const PowerBreakdown &b)
{
    std::array<double, kNumBreakdownGroups> g{};
    auto put = [&](BreakdownGroup grp, double w) {
        g[static_cast<size_t>(grp)] += w;
    };
    put(BreakdownGroup::Const, b.constW);
    put(BreakdownGroup::Static, b.staticW);
    put(BreakdownGroup::IdleSm, b.idleSmW);
    put(BreakdownGroup::RegFile,
        b.dynamicW[componentIndex(PowerComponent::RegFile)]);
    put(BreakdownGroup::Alu,
        b.sumOf({PowerComponent::IntAdd, PowerComponent::IntMul}));
    put(BreakdownGroup::FpuDpu,
        b.sumOf({PowerComponent::FpAdd, PowerComponent::FpMul,
                 PowerComponent::DpAdd, PowerComponent::DpMul}));
    put(BreakdownGroup::Sfu,
        b.sumOf({PowerComponent::Sqrt, PowerComponent::Log,
                 PowerComponent::SinCos, PowerComponent::Exp}));
    put(BreakdownGroup::Tensor,
        b.dynamicW[componentIndex(PowerComponent::TensorCore)]);
    put(BreakdownGroup::L1dShmem,
        b.sumOf({PowerComponent::L1DCache, PowerComponent::SharedMem}));
    put(BreakdownGroup::IcacheCcache,
        b.sumOf({PowerComponent::InstCache, PowerComponent::ConstCache}));
    put(BreakdownGroup::L2Noc,
        b.dynamicW[componentIndex(PowerComponent::L2Noc)]);
    put(BreakdownGroup::DramMc,
        b.dynamicW[componentIndex(PowerComponent::DramMc)]);
    put(BreakdownGroup::Tex,
        b.dynamicW[componentIndex(PowerComponent::TextureUnit)]);
    put(BreakdownGroup::Others,
        b.sumOf({PowerComponent::InstBuffer, PowerComponent::Scheduler,
                 PowerComponent::SmPipeline}));
    return g;
}

} // namespace aw
