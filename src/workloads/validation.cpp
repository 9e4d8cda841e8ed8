#include "workloads/validation.hpp"

#include <cmath>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "core/power_trace.hpp"
#include "core/result_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/powerscope.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace aw {

namespace {

ValidationKernel
vk(const std::string &name, const std::string &suite,
   const std::string &workload, double coverage, KernelDescriptor kernel)
{
    ValidationKernel v;
    kernel.name = name;
    kernel.seed = hash64(name.c_str());
    v.kernel = std::move(kernel);
    v.suite = suite;
    v.workload = workload;
    v.coveragePct = coverage;
    return v;
}

KernelDescriptor
shape(std::vector<MixEntry> mix, int ctas, int warpsPerCta, int ctasPerSm,
      int ilp, int activeLanes, double footprintKb, bool chase = false,
      int txn = 1)
{
    KernelDescriptor k;
    k.mix = std::move(mix);
    k.ctas = ctas;
    k.warpsPerCta = warpsPerCta;
    k.ctasPerSm = ctasPerSm;
    k.ilpDegree = ilp;
    k.activeLanes = activeLanes;
    k.memFootprintKb = footprintKb;
    k.pointerChase = chase;
    k.transactionsPerMemAccess = txn;
    k.bodyInsts = 72;
    k.iterations = 14;
    return k;
}

std::vector<ValidationKernel>
buildSuite()
{
    using OC = OpClass;
    std::vector<ValidationKernel> s;

    // ---- CUDA Samples 11.0 ------------------------------------------------
    {
        auto k = vk("tensor_K1", "CUDA SDK", "cudaTensorCoreGemm", 100,
                    shape({{OC::Tensor, 0.45},
                           {OC::LdShared, 0.25},
                           {OC::IntMad, 0.3}},
                          320, 8, 2, 6, 32, 64));
        k.usesTensor = true;
        s.push_back(k);
    }
    s.push_back(vk("binOpt_K1", "CUDA SDK", "BinomialOptions", 100,
                   shape({{OC::FpFma, 0.55},
                          {OC::FpAdd, 0.25},
                          {OC::IntAdd, 0.2}},
                         320, 8, 2, 8, 32, 8)));
    s.push_back(vk("walsh_K1", "CUDA SDK", "fastWalshTransform", 47.8,
                   shape({{OC::FpAdd, 0.48},
                          {OC::LdShared, 0.25},
                          {OC::StShared, 0.15},
                          {OC::IntAdd, 0.1},
                          {OC::Bar, 0.02}},
                         256, 8, 2, 4, 32, 32)));
    s.push_back(vk("walsh_K2", "CUDA SDK", "fastWalshTransform", 49.4,
                   shape({{OC::FpAdd, 0.4},
                          {OC::LdGlobal, 0.3},
                          {OC::StGlobal, 0.15},
                          {OC::IntAdd, 0.15}},
                         256, 8, 2, 4, 32, 4096)));
    s.push_back(vk("qrng_K1", "CUDA SDK", "quasirandomGenerator", 66.4,
                   shape({{OC::IntLogic, 0.5},
                          {OC::IntAdd, 0.3},
                          {OC::StGlobal, 0.2}},
                         320, 8, 2, 6, 32, 2048)));
    s.push_back(vk("qrng_K2", "CUDA SDK", "quasirandomGenerator", 33.6,
                   shape({{OC::IntLogic, 0.35},
                          {OC::FpMul, 0.35},
                          {OC::StGlobal, 0.3}},
                         320, 8, 2, 4, 32, 2048)));
    s.push_back(vk("dct_K1", "CUDA SDK", "dct8x8", 19.6,
                   shape({{OC::FpMul, 0.4},
                          {OC::FpAdd, 0.3},
                          {OC::LdShared, 0.2},
                          {OC::IntAdd, 0.1}},
                         256, 8, 2, 4, 32, 64)));
    // dct_K2: the paper's largest-error kernel — unusual shape: partial
    // warps, moderate occupancy, mixed shared/global traffic.
    s.push_back(vk("dct_K2", "CUDA SDK", "dct8x8", 72.3,
                   shape({{OC::FpMul, 0.3},
                          {OC::FpAdd, 0.25},
                          {OC::LdShared, 0.2},
                          {OC::LdGlobal, 0.15},
                          {OC::IntAdd, 0.1}},
                         200, 4, 1, 2, 20, 512)));
    s.push_back(vk("histo_K1", "CUDA SDK", "histogram", 52.9,
                   shape({{OC::IntAdd, 0.4},
                          {OC::LdGlobal, 0.25},
                          {OC::StShared, 0.25},
                          {OC::IntLogic, 0.1}},
                         256, 8, 2, 3, 24, 4096)));
    s.push_back(vk("msort_K1", "CUDA SDK", "mergesort", 71.8,
                   shape({{OC::IntAdd, 0.43},
                          {OC::LdShared, 0.25},
                          {OC::StShared, 0.15},
                          {OC::IntLogic, 0.15},
                          {OC::Bar, 0.02}},
                         256, 8, 2, 3, 28, 64)));
    s.push_back(vk("msort_K2", "CUDA SDK", "mergesort", 26.3,
                   shape({{OC::IntAdd, 0.4},
                          {OC::LdGlobal, 0.3},
                          {OC::StGlobal, 0.2},
                          {OC::IntLogic, 0.1}},
                         256, 8, 2, 3, 24, 2048)));
    s.push_back(vk("sobol_K1", "CUDA SDK", "SobolQRNG", 100,
                   shape({{OC::IntLogic, 0.55},
                          {OC::IntAdd, 0.2},
                          {OC::StGlobal, 0.25}},
                         320, 8, 2, 6, 32, 2048)));

    // ---- Rodinia 3.1 -------------------------------------------------------
    s.push_back(vk("kmeans_K1", "Rodinia", "kmeans", 91.6,
                   shape({{OC::FpAdd, 0.3},
                          {OC::FpMul, 0.25},
                          {OC::LdGlobal, 0.35},
                          {OC::IntAdd, 0.1}},
                         320, 8, 2, 4, 32, 8192)));
    // backprop_K1: >90% of peak power — high thread IPC, even ALU/FPU
    // split executing concurrently (Section 6.2).
    s.push_back(vk("bprop_K1", "Rodinia", "backprop", 75.7,
                   shape({{OC::FpFma, 0.44},
                          {OC::IntMad, 0.35},
                          {OC::LdShared, 0.19},
                          {OC::Bar, 0.02}},
                         320, 16, 2, 8, 32, 32)));
    s.push_back(vk("bprop_K2", "Rodinia", "backprop", 24.3,
                   shape({{OC::FpFma, 0.4},
                          {OC::LdGlobal, 0.35},
                          {OC::StGlobal, 0.1},
                          {OC::IntAdd, 0.15}},
                         320, 8, 2, 4, 32, 4096)));
    s.push_back([] {
        auto k = vk("pfind_K1", "Rodinia", "pathfinder", 100,
                    shape({{OC::IntAdd, 0.5},
                           {OC::LdShared, 0.25},
                           {OC::IntLogic, 0.15},
                           {OC::LdGlobal, 0.1}},
                          256, 8, 2, 3, 26, 1024));
        k.ptxCompatible = false; // does not compile for PTX mode
        k.nsightWorks = false;   // Nsight fails on this workload
        return k;
    }());
    s.push_back([] {
        auto k = vk("hspot_K1", "Rodinia", "hotspot", 100,
                    shape({{OC::FpFma, 0.4},
                           {OC::FpAdd, 0.2},
                           {OC::IntMad, 0.3},
                           {OC::LdShared, 0.1}},
                          320, 16, 2, 8, 32, 64));
        k.ptxCompatible = false;
        return k;
    }());
    s.push_back(vk("sradv1_K1", "Rodinia", "sradv1", 53.9,
                   shape({{OC::FpMul, 0.3},
                          {OC::FpAdd, 0.25},
                          {OC::LdGlobal, 0.3},
                          {OC::IntAdd, 0.15}},
                         256, 8, 2, 4, 32, 4096)));
    s.push_back(vk("b+tree_K1", "Rodinia", "b+tree", 48.5,
                   shape({{OC::IntAdd, 0.45},
                          {OC::LdGlobal, 0.35},
                          {OC::IntLogic, 0.2}},
                         256, 8, 2, 2, 16, 2048, true)));
    s.push_back(vk("b+tree_K2", "Rodinia", "b+tree", 51.5,
                   shape({{OC::IntAdd, 0.4},
                          {OC::LdGlobal, 0.4},
                          {OC::IntLogic, 0.2}},
                         256, 8, 2, 2, 20, 4096, true)));

    // ---- CUTLASS 1.3 (cutlass-wmma) ---------------------------------------
    auto cutlass = [&](const char *name, [[maybe_unused]] const char *input,
                       int ilp, int ctasPerSm) {
        // `input` is the Table 4 matrix shape; all three kernels belong
        // to the single cutlass-wmma workload.
        auto k = vk(name, "CUTLASS", "cutlass-wmma", 100,
                    shape({{OC::Tensor, 0.4},
                           {OC::LdShared, 0.3},
                           {OC::IntMad, 0.2},
                           {OC::LdGlobal, 0.1}},
                          320, 8, ctasPerSm, ilp, 32, 512));
        k.usesTensor = true;
        k.ptxCompatible = false; // CUTLASS does not build for PTX mode
        return k;
    };
    s.push_back(cutlass("cutlass_K1", "2560x16x2560", 3, 1));
    s.push_back(cutlass("cutlass_K2", "4096x128x4096", 5, 2));
    s.push_back(cutlass("cutlass_K3", "2560x512x2560", 6, 2));

    // ---- Parboil ------------------------------------------------------------
    // sgemm_K1: >90% of peak power, like backprop/hotspot.
    s.push_back(vk("sgemm_K1", "Parboil", "sgemm", 100,
                   shape({{OC::FpFma, 0.5},
                          {OC::IntMad, 0.3},
                          {OC::LdShared, 0.2}},
                         320, 16, 2, 8, 32, 64)));
    s.push_back(vk("mri-q_K1", "Parboil", "mri-q", 100,
                   shape({{OC::Sin, 0.2},
                          {OC::Exp, 0.1},
                          {OC::FpFma, 0.4},
                          {OC::IntAdd, 0.3}},
                         320, 8, 2, 6, 32, 16)));
    s.push_back(vk("sad_K1", "Parboil", "sad", 95.9,
                   shape({{OC::IntAdd, 0.45},
                          {OC::IntLogic, 0.2},
                          {OC::Tex, 0.15},
                          {OC::LdGlobal, 0.2}},
                         256, 8, 2, 4, 32, 2048)));

    AW_ASSERT(s.size() == 26);
    return s;
}

} // namespace

const std::vector<ValidationKernel> &
validationSuite()
{
    static const std::vector<ValidationKernel> suite = buildSuite();
    return suite;
}

bool
inVariantSuite(const ValidationKernel &k, Variant v)
{
    switch (v) {
      case Variant::SassSim:
        return true;
      case Variant::PtxSim:
        return k.ptxCompatible;
      case Variant::Hw:
      case Variant::Hybrid:
        return k.nsightWorks;
      default:
        panic("bad variant");
    }
}

std::vector<ValidationRow>
runValidation(AccelWattchCalibrator &calibrator, Variant variant,
              const AccelWattchModel *overrideModel)
{
    AW_PROF_SCOPE("validate/suite");
    const AccelWattchModel &model =
        overrideModel ? *overrideModel : calibrator.variant(variant).model;
    ActivityProvider provider(variant, calibrator.simulator(),
                              &calibrator.nsight());

    std::vector<const ValidationKernel *> kernels;
    for (const auto &k : validationSuite())
        if (inVariantSuite(k, variant))
            kernels.push_back(&k);

    // Each kernel's measurement and activity collection is independent;
    // modeling/recording stays serial so telemetry rows keep suite order.
    struct Evaluated
    {
        ValidationRow row;
        double totalCycles = 0;
        double elapsedSec = 0;
        bool usable = true;
        bool hasScope = false;
        obs::PowerScopeRun scope;
    };
    const bool powerscope = obs::PowerScope::instance().enabled();
    std::vector<Evaluated> evaluated =
        parallelMap<Evaluated>(kernels.size(), [&](size_t i) {
            AW_PROF_SCOPE("validate/kernel");
            const ValidationKernel &k = *kernels[i];
            Evaluated e;
            e.row.name = k.kernel.name;
            Result<double> measured =
                tryMeasurePowerCached(calibrator.oracle(), k.kernel);
            if (!measured) {
                // A validation point lost to faults shrinks the report,
                // not the campaign.
                warn("validation: skipping %s: %s", k.kernel.name.c_str(),
                     measured.error().message.c_str());
                obs::metrics()
                    .counter("validation.kernels_skipped")
                    .add(1);
                e.usable = false;
                return e;
            }
            e.row.measuredW = *measured;
            KernelActivity act = collectActivityCached(provider, k.kernel);
            e.row.breakdown = model.evaluateKernel(act);
            e.row.modeledW = e.row.breakdown.totalW();
            e.totalCycles = act.totalCycles;
            e.elapsedSec = act.elapsedSec;
            if (powerscope) {
                // Time-resolved view of the same comparison: modeled
                // trace + NVML sample stream. measuredAvgW is the
                // campaign average the row reports, so the powerscope
                // MAPE reconciles with the suite's.
                e.scope = makePowerScopeRun(k.kernel.name, "validate",
                                            model, act);
                PowerTimeline tl =
                    calibrator.nvml().samplePowerTimeline(k.kernel);
                for (const auto &s : tl.samples)
                    e.scope.measured.push_back({s.timeSec, s.powerW});
                for (const auto &m : tl.marks)
                    e.scope.marks.push_back({m.timeSec, m.kind});
                e.scope.measuredAvgW = *measured;
                e.hasScope = true;
            }
            return e;
        });

    auto &reg = obs::metrics();
    std::vector<ValidationRow> rows;
    rows.reserve(evaluated.size());
    for (auto &e : evaluated) {
        if (!e.usable)
            continue;
        ValidationRow row = std::move(e.row);
        reg.counter("validation.kernels").add(1);
        if (row.measuredW > 0)
            reg.histogram("validation.abs_err_pct")
                .record(100.0 *
                        std::abs(row.modeledW - row.measuredW) /
                        row.measuredW);
        obs::Telemetry::instance().recordKernel(
            {row.name, "validate", e.totalCycles, e.elapsedSec,
             row.modeledW, row.measuredW});
        if (e.hasScope)
            obs::PowerScope::instance().record(std::move(e.scope));
        AW_DEBUGF("validate", "%s: modeled %.1f W vs measured %.1f W",
                  row.name.c_str(), row.modeledW, row.measuredW);
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace aw
