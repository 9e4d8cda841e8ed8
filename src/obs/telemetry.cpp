#include "obs/telemetry.hpp"

#include <atomic>
#include <cstdlib>
#include <sstream>

#include "common/log.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/powerscope.hpp"
#include "obs/trace.hpp"

namespace aw::obs {

Telemetry &
Telemetry::instance()
{
    static Telemetry telemetry;
    return telemetry;
}

void
Telemetry::recordKernel(KernelRecord record)
{
    std::lock_guard<std::mutex> lock(mu_);
    kernels_.push_back(std::move(record));
}

std::vector<KernelRecord>
Telemetry::kernels() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return kernels_;
}

void
Telemetry::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    kernels_.clear();
}

std::string
Telemetry::toJson() const
{
    std::ostringstream out;
    out << "{\n\"schema\": \"aw.telemetry.v1\",\n";

    out << "\"metrics\": " << metrics().toJson() << ",\n";

    out << "\"zones\": [";
    bool first = true;
    for (const ZoneStat &z : Profiler::instance().zoneStats()) {
        if (!first)
            out << ",";
        first = false;
        out << "\n  {\"name\": \"" << jsonEscape(z.name)
            << "\", \"count\": " << z.count
            << ", \"total_us\": " << jsonNumber(z.totalUs)
            << ", \"self_us\": " << jsonNumber(z.selfUs) << "}";
    }
    out << "\n],\n";

    out << "\"kernels\": [";
    first = true;
    for (const KernelRecord &k : kernels()) {
        if (!first)
            out << ",";
        first = false;
        out << "\n  {\"name\": \"" << jsonEscape(k.name)
            << "\", \"phase\": \"" << jsonEscape(k.phase)
            << "\", \"cycles\": " << jsonNumber(k.cycles)
            << ", \"elapsed_sec\": " << jsonNumber(k.elapsedSec)
            << ", \"modeled_w\": " << jsonNumber(k.modeledW)
            << ", \"measured_w\": " << jsonNumber(k.measuredW) << "}";
    }
    out << "\n]\n}\n";
    return out.str();
}

std::string
Telemetry::toCsv() const
{
    std::ostringstream out;
    out << metrics().toCsv();
    out << "\nkernel,phase,cycles,elapsed_sec,modeled_w,measured_w\n";
    for (const KernelRecord &k : kernels())
        out << k.name << "," << k.phase << "," << jsonNumber(k.cycles)
            << "," << jsonNumber(k.elapsedSec) << ","
            << jsonNumber(k.modeledW) << "," << jsonNumber(k.measuredW)
            << "\n";
    return out.str();
}

void
writeMetricsJson(const std::string &path)
{
    writeFileAtomic(path, Telemetry::instance().toJson());
    inform("telemetry written to %s", path.c_str());
}

void
writeMetricsCsv(const std::string &path)
{
    writeFileAtomic(path, Telemetry::instance().toCsv());
    inform("telemetry written to %s", path.c_str());
}

void
writeTraceJson(const std::string &path)
{
    writeFileAtomic(path, Profiler::instance().chromeTraceJson());
    inform("trace written to %s (open in chrome://tracing or "
           "ui.perfetto.dev)",
           path.c_str());
}

namespace {

std::string g_envMetricsOut;
std::string g_envTraceOut;
std::string g_envPowerScopeOut;

void
flushEnvSinks()
{
    if (!g_envMetricsOut.empty()) {
        if (g_envMetricsOut.size() > 4 &&
            g_envMetricsOut.compare(g_envMetricsOut.size() - 4, 4,
                                    ".csv") == 0)
            writeMetricsCsv(g_envMetricsOut);
        else
            writeMetricsJson(g_envMetricsOut);
    }
    if (!g_envTraceOut.empty())
        writeTraceJson(g_envTraceOut);
    if (!g_envPowerScopeOut.empty()) {
        writePowerScope(g_envPowerScopeOut);
        inform("powerscope written to %s{.json,.trace.json,.html}",
               g_envPowerScopeOut.c_str());
    }
}

} // namespace

void
initSinksFromEnv()
{
    static std::atomic<bool> done{false};
    if (done.exchange(true))
        return;
    // Touch every singleton the flush will read BEFORE registering the
    // atexit handler: function-local statics are destroyed in reverse
    // construction order, interleaved with atexit handlers, so this
    // guarantees the flush runs while they are still alive.
    metrics();
    (void)Profiler::instance().events(); // also constructs the buffer list
    Telemetry::instance();
    PowerScope::instance();
    if (const char *env = std::getenv("AW_METRICS_OUT"); env && *env)
        g_envMetricsOut = env;
    if (const char *env = std::getenv("AW_TRACE_OUT"); env && *env) {
        g_envTraceOut = env;
        Profiler::instance().setEnabled(true);
    }
    if (const char *env = std::getenv("AW_POWERSCOPE"); env && *env) {
        g_envPowerScopeOut = env;
        PowerScope::instance().setEnabled(true);
        // The merged trace is only useful with zone events alongside the
        // counter tracks, so the powerscope knob implies the profiler.
        Profiler::instance().setEnabled(true);
    }
    if (!g_envMetricsOut.empty() || !g_envTraceOut.empty() ||
        !g_envPowerScopeOut.empty())
        std::atexit(&flushEnvSinks);
}

} // namespace aw::obs
