/**
 * @file
 * Command-line power estimator: describe a kernel with flags, get an
 * AccelWattch power report. The "experiment customization" workflow of
 * the artifact appendix (A.7) — estimate any workload compatible with
 * the performance model — as a standalone tool.
 *
 * Usage:
 *   accelwattch_cli [options]
 *     --mix CLASS:WEIGHT[,CLASS:WEIGHT...]   instruction mix
 *                (classes: iadd imul imad ilogic fadd fmul ffma dadd dmul
 *                 dfma sqrt log sin exp tensor tex ldg stg lds sts ldc bra
 *                 bar mov nop nanosleep exit)
 *     --ctas N            grid size                      [320]
 *     --warps N           warps per CTA                  [8]
 *     --lanes N           active threads per warp (1-32) [32]
 *     --ilp N             independent chains             [4]
 *     --footprint-kb N    global-memory working set      [256]
 *     --chase             pointer-chasing access pattern
 *     --freq GHZ          locked core clock              [default clock]
 *     --sim-threads N     worker threads for the sharded simulator
 *                         (AW_SIM_THREADS; results are identical at any
 *                         setting)                       [1]
 *     --sim-detail N      detailed SM groups; N>1 simulates N distinct
 *                         SM groups instead of scaling one
 *                         representative (AW_SIM_DETAIL)  [1]
 *     --variant NAME      sass|ptx|hw|hybrid             [sass]
 *     --model FILE        load an AccelWattch config file instead of
 *                         calibrating in-process
 *     --save-model FILE   write the calibrated model and exit
 *     --trace             print the 500-cycle power trace
 *     --metrics-out FILE  write run telemetry (metrics registry, zone
 *                         aggregates, per-kernel rows); ".csv" selects CSV
 *     --trace-out FILE    record profiling zones, write Chrome trace JSON
 *     --powerscope-out BASE  record the power timeline and write the
 *                         PowerScope triple: BASE.json (residual /
 *                         attribution report), BASE.trace.json (Chrome
 *                         trace with component counter tracks),
 *                         BASE.html (standalone dashboard)
 *     --validate-json FILE  parse FILE with the strict obs JSON parser
 *                         and exit (artifact validation for CI)
 *     --log-level LEVEL   debug|inform|warn|fatal                [inform]
 *     --debug TAGS        comma-separated debug tags (sim,tuner,hw,...)
 *     --faults SPEC       inject measurement faults, same grammar as
 *                         AW_FAULTS (class:rate,...[,seed:N]); prints a
 *                         resilience summary after the run
 *
 * Example:
 *   accelwattch_cli --mix ffma:0.6,ldg:0.2,iadd:0.2 --footprint-kb 8192
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "arch/isa.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "core/calibration.hpp"
#include "core/model_io.hpp"
#include "core/power_trace.hpp"
#include "hw/fault_injector.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/powerscope.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/stats_report.hpp"

using namespace aw;

namespace {

OpClass
opClassOrDie(const std::string &token)
{
    OpClass op{};
    if (!opClassFromToken(token, op))
        fatal("unknown op class '%s' (see --help)", token.c_str());
    return op;
}

std::vector<MixEntry>
parseMix(const std::string &spec)
{
    std::vector<MixEntry> mix;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        std::string item = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        size_t colon = item.find(':');
        if (colon == std::string::npos)
            fatal("mix entry '%s' must be CLASS:WEIGHT", item.c_str());
        mix.push_back({opClassOrDie(item.substr(0, colon)),
                       std::stod(item.substr(colon + 1))});
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (mix.empty())
        fatal("--mix needs at least one CLASS:WEIGHT entry");
    return mix;
}

Variant
variantFromToken(const std::string &token)
{
    if (token == "sass")
        return Variant::SassSim;
    if (token == "ptx")
        return Variant::PtxSim;
    if (token == "hw")
        return Variant::Hw;
    if (token == "hybrid")
        return Variant::Hybrid;
    fatal("unknown variant '%s' (sass|ptx|hw|hybrid)", token.c_str());
}

void
writeSinks(const std::string &metricsOut, const std::string &traceOut,
           const std::string &powerscopeOut)
{
    // All three sinks publish through writeFileAtomic, which creates
    // missing parent directories — a run can no longer die at the finish
    // line because results/ does not exist yet.
    if (!metricsOut.empty()) {
        // Surface the AW_PHASES breakdown (no-op when nothing recorded).
        obs::PhaseTimers::instance().publish();
        if (metricsOut.size() > 4 &&
            metricsOut.compare(metricsOut.size() - 4, 4, ".csv") == 0)
            obs::writeMetricsCsv(metricsOut);
        else
            obs::writeMetricsJson(metricsOut);
    }
    if (!traceOut.empty())
        obs::writeTraceJson(traceOut);
    if (!powerscopeOut.empty()) {
        obs::writePowerScope(powerscopeOut);
        std::printf("powerscope written to %s{.json,.trace.json,.html}\n",
                    powerscopeOut.c_str());
    }
}

/** CI helper: strict-parse a JSON artifact; fatal() on any defect. */
int
validateJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open %s", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    obs::parseJson(buf.str());
    std::printf("%s: valid JSON\n", path.c_str());
    return 0;
}

/**
 * After a fault-injected run: how the harness coped. Counter lookups
 * find-or-create, so absent events simply print as 0.
 */
void
printResilienceSummary()
{
    auto &reg = obs::metrics();
    std::printf("\nresilience summary (faults: %s):\n",
                FaultInjector::globalConfig().describe().c_str());
    double injected = 0;
    for (size_t c = 0; c < kNumFaultClasses; ++c) {
        double n = reg.counter(std::string("faults.injected.") +
                               faultClassName(static_cast<FaultClass>(c)))
                       .value();
        injected += n;
        if (n > 0)
            std::printf("  injected %-18s %8.0f\n",
                        faultClassName(static_cast<FaultClass>(c)).c_str(),
                        n);
    }
    std::printf("  faults injected (total)  %8.0f\n", injected);
    std::printf("  retries                  %8.0f (%.1f sim-seconds of "
                "backoff)\n",
                reg.counter("retry.attempts").value(),
                reg.counter("retry.backoff_sim_seconds").value());
    std::printf("  retries exhausted        %8.0f\n",
                reg.counter("retry.exhausted").value());
    std::printf("  repetitions re-measured  %8.0f rejected, %8.0f lost\n",
                reg.counter("hw.nvml.reps_rejected").value(),
                reg.counter("hw.nvml.reps_lost").value());
    std::printf("  counter fallbacks        %8.0f component, %8.0f "
                "variant\n",
                reg.counter("activity.component_fallbacks").value(),
                reg.counter("activity.variant_fallbacks").value());
    std::printf("  data points skipped      %8.0f ubench, %8.0f "
                "validation\n",
                reg.counter("calibration.ubench_skipped").value(),
                reg.counter("validation.kernels_skipped").value());
}

void
usage()
{
    std::printf("usage: accelwattch_cli --mix CLASS:W[,CLASS:W...] "
                "[--ctas N] [--warps N] [--lanes N] [--ilp N]\n"
                "       [--footprint-kb N] [--chase] [--freq GHZ] "
                "[--sim-threads N] [--sim-detail N]\n"
                "       [--variant sass|ptx|hw|hybrid]\n"
                "       [--model FILE] [--save-model FILE] [--trace] [--stats]\n"
                "       [--metrics-out FILE] [--trace-out FILE] "
                "[--powerscope-out BASE]\n"
                "       [--validate-json FILE] "
                "[--log-level LEVEL] [--debug TAGS] [--faults SPEC]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    obs::initPhaseTimersFromEnv();
    KernelDescriptor k = makeKernel("cli_kernel",
                                    {{OpClass::FpFma, 0.6},
                                     {OpClass::IntAdd, 0.4}},
                                    320, 8);
    k.memFootprintKb = 256;
    Variant variant = Variant::SassSim;
    std::string modelFile, saveModelFile;
    std::string metricsOut, traceOut, powerscopeOut;
    double freqGhz = 0;
    bool printTrace = false;
    bool printStats = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--mix")
            k.mix = parseMix(next());
        else if (arg == "--ctas")
            k.ctas = std::stoi(next());
        else if (arg == "--warps")
            k.warpsPerCta = std::stoi(next());
        else if (arg == "--lanes")
            k.activeLanes = std::stoi(next());
        else if (arg == "--ilp")
            k.ilpDegree = std::stoi(next());
        else if (arg == "--footprint-kb")
            k.memFootprintKb = std::stod(next());
        else if (arg == "--chase")
            k.pointerChase = true;
        else if (arg == "--freq")
            freqGhz = std::stod(next());
        else if (arg == "--sim-threads")
            setSimThreadCount(std::stoi(next()));
        else if (arg == "--sim-detail")
            setSimDetail(std::stoi(next()));
        else if (arg == "--variant")
            variant = variantFromToken(next());
        else if (arg == "--model")
            modelFile = next();
        else if (arg == "--save-model")
            saveModelFile = next();
        else if (arg == "--trace")
            printTrace = true;
        else if (arg == "--stats")
            printStats = true;
        else if (arg == "--metrics-out")
            metricsOut = next();
        else if (arg == "--trace-out")
            traceOut = next();
        else if (arg == "--powerscope-out")
            powerscopeOut = next();
        else if (arg == "--validate-json")
            return validateJsonFile(next());
        else if (arg == "--log-level")
            setLogLevel(parseLogLevel(next()));
        else if (arg == "--debug")
            setDebugTags(next());
        else if (arg == "--faults")
            FaultInjector::setGlobalConfig(parseFaultSpec(next()));
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option %s", arg.c_str());
        }
    }

    if (!traceOut.empty())
        obs::Profiler::instance().setEnabled(true);
    if (!powerscopeOut.empty()) {
        obs::PowerScope::instance().setEnabled(true);
        obs::Profiler::instance().setEnabled(true);
    }

    auto &cal = sharedVoltaCalibrator();
    if (!saveModelFile.empty()) {
        saveModel(cal.variant(variant).model, saveModelFile);
        std::printf("calibrated %s model written to %s\n",
                    variantName(variant).c_str(), saveModelFile.c_str());
        if (FaultInjector::enabled())
            printResilienceSummary();
        writeSinks(metricsOut, traceOut, powerscopeOut);
        return 0;
    }
    AccelWattchModel model = modelFile.empty()
                                 ? cal.variant(variant).model
                                 : loadModel(modelFile);

    ActivityProvider provider(variant, cal.simulator(), &cal.nsight());
    MeasurementConditions cond;
    cond.freqGhz = freqGhz;
    KernelActivity act;
    PowerBreakdown p;
    {
        AW_PROF_SCOPE("validate/kernel");
        act = provider.collect(k, cond);
        p = model.evaluateKernel(act);
        obs::Telemetry::instance().recordKernel(
            {k.name, "validate", act.totalCycles, act.elapsedSec,
             p.totalW(), /*measuredW=*/0.0});
    }
    if (!powerscopeOut.empty()) {
        // Modeled trace plus the NVML sample stream of the same kernel
        // at the same clock, so the dashboard shows a real residual.
        obs::PowerScopeRun run = makePowerScopeRun(k.name, "cli", model,
                                                   act);
        double savedLock = cal.nvml().lockedClockGhz();
        if (freqGhz > 0)
            cal.nvml().lockClocks(freqGhz);
        PowerTimeline tl = cal.nvml().samplePowerTimeline(k);
        if (freqGhz > 0)
            cal.nvml().lockClocks(savedLock);
        for (const auto &s : tl.samples)
            run.measured.push_back({s.timeSec, s.powerW});
        for (const auto &m : tl.marks)
            run.marks.push_back({m.timeSec, m.kind});
        run.measuredAvgW = tl.avgW;
        obs::PowerScope::instance().record(std::move(run));
    }

    std::printf("kernel: %d CTAs x %d warps, %d lanes/warp, mix of %zu "
                "classes, %.0f KB footprint%s\n",
                k.ctas, k.warpsPerCta, k.activeLanes, k.mix.size(),
                k.memFootprintKb, k.pointerChase ? " (pointer-chase)" : "");
    ActivitySample agg = act.aggregate();
    std::printf("performance model (%s): %.0f cycles on %d SMs at %.3f "
                "GHz -> %.1f us\n\n",
                variantName(variant).c_str(), act.totalCycles,
                static_cast<int>(agg.avgActiveSms), agg.freqGhz,
                act.elapsedSec * 1e6);
    std::printf("AccelWattch estimate: %.1f W\n", p.totalW());
    std::printf("  %-10s %8.2f W\n", "const", p.constW);
    std::printf("  %-10s %8.2f W\n", "static", p.staticW);
    std::printf("  %-10s %8.2f W\n", "idle SMs", p.idleSmW);
    for (auto c : allComponents())
        if (p.dynamicW[componentIndex(c)] > 0.05)
            std::printf("  %-10s %8.2f W\n", componentName(c).c_str(),
                        p.dynamicW[componentIndex(c)]);
    std::printf("energy per launch: %.3f mJ\n",
                p.totalW() * act.elapsedSec * 1e3);

    if (printStats) {
        std::printf("\nperformance report:\n%s",
                    buildPerfReport(model.gpu, act).render().c_str());
    }
    if (printTrace) {
        std::printf("\npower trace (500-cycle intervals):\n");
        for (const auto &pt : powerTrace(model, act))
            std::printf("  cycle %8.0f  f=%.3f GHz  %7.2f W\n",
                        pt.startCycle, pt.freqGhz, pt.power.totalW());
    }
    if (FaultInjector::enabled())
        printResilienceSummary();
    writeSinks(metricsOut, traceOut, powerscopeOut);
    return 0;
}
