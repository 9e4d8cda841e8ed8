#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <sys/resource.h>

#include "obs/json.hpp"

namespace perfbench {

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSec()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
threadCpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
percentile(std::vector<double> v, double p, double &out)
{
    const size_t n = v.size();
    if (n == 0 || !(p > 0) || !(p < 100))
        return false;
    auto k = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    k = std::clamp<size_t>(k, 1, n);
    if (n - k < kMinTailSamples)
        return false;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k - 1), v.end());
    out = v[k - 1];
    return true;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

std::string
joinNumbers(const std::vector<double> &v)
{
    std::string list;
    for (double x : v)
        list += (list.empty() ? "" : ",") + num(x);
    return list;
}

uint64_t
fnv1a(const void *data, size_t len, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i)
        h = (h ^ p[i]) * 0x100000001b3ULL;
    return h;
}

std::string
hex16(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
removeDirectory(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

void
freshDirectory(const std::string &dir)
{
    removeDirectory(dir);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
}

SpanLedger::Scope::Scope(SpanLedger &ledger, const std::string &layer)
    : ledger_(ledger)
{
    Layer &l = ledger.layers_[layer];
    ++l.calls;
    ledger.stack_.push_back({&l, nowSec(), threadCpuSec()});
}

SpanLedger::Scope::~Scope()
{
    const double end = nowSec();
    const double cpuEnd = threadCpuSec();
    Frame f = ledger_.stack_.back();
    ledger_.stack_.pop_back();
    const double total = end - f.start;
    const double cpuTotal = cpuEnd - f.cpuStart;
    f.layer->selfSec += total - f.childSec;
    f.layer->selfCpuSec += cpuTotal - f.childCpuSec;
    if (!ledger_.stack_.empty()) {
        ledger_.stack_.back().childSec += total;
        ledger_.stack_.back().childCpuSec += cpuTotal;
    }
}

SpanLedger::Layer
SpanLedger::layer(const std::string &name) const
{
    auto it = layers_.find(name);
    return it == layers_.end() ? Layer{} : it->second;
}

double
SpanLedger::totalSelfSec() const
{
    double s = 0;
    for (const auto &[name, l] : layers_)
        s += l.selfSec;
    return s;
}

std::string
num(double v)
{
    return aw::obs::jsonNumber(v);
}

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    for (auto &m : metrics)
        if (m.first == name) {
            m.second = {value, unit};
            return;
        }
    metrics.push_back({name, {value, unit}});
}

void
Report::note(const std::string &key, double value)
{
    record[key] = num(value);
}

void
Report::fail(const std::string &why)
{
    correct = false;
    problems.push_back(why);
}

std::string
Report::resultJson() const
{
    std::string out = "{\"correct\":";
    out += correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, vu] : metrics) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + aw::obs::jsonEscape(name) + "\":{\"value\":" +
               num(vu.first) + ",\"unit\":\"" +
               aw::obs::jsonEscape(vu.second) + "\"}";
    }
    out += "}}";
    return out;
}

std::string
Report::recordJson() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : record) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + aw::obs::jsonEscape(k) + "\":\"" +
               aw::obs::jsonEscape(v) + "\"";
    }
    out += std::string(first ? "" : ",") + "\"problems\":[";
    for (size_t i = 0; i < problems.size(); ++i)
        out += (i ? ",\"" : "\"") + aw::obs::jsonEscape(problems[i]) + "\"";
    out += "]}";
    return out;
}

} // namespace perfbench
