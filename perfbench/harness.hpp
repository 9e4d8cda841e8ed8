/**
 * @file
 * Shared pieces of the benchmark runner: clocks, the percentile helper,
 * the span ledger the traced runs attribute time with, and the report
 * every workload fills in. See NOTES.md for what each workload measures.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir; ///< private scratch directory for caches
};

/** Monotonic wall clock, seconds. */
double nowSec();
/** User + system CPU seconds of the whole process (getrusage). */
double processCpuSec();
/** CPU seconds of the calling thread. */
double threadCpuSec();
/** Peak resident set size of the process, MB. */
double peakRssMb();

/** A percentile must have at least this many samples beyond it. */
constexpr size_t kMinTailSamples = 10;

/**
 * Nearest-rank percentile of `v` (p in (0, 100)): the k-th smallest
 * sample with k = ceil(p/100 * n). False, leaving `out` alone, when
 * fewer than kMinTailSamples samples lie above rank k — such a tail is
 * too thin to report.
 */
bool percentile(std::vector<double> v, double p, double &out);

/** Plain median (mean of the middle pair for even n); 0 when empty. */
double median(std::vector<double> v);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &v);

/** The values, comma-separated, each spelled by num(). */
std::string joinNumbers(const std::vector<double> &v);

/** FNV-1a 64 over raw bytes, continuing from `h`. */
uint64_t fnv1a(const void *data, size_t len,
               uint64_t h = 0xcbf29ce484222325ULL);

/** 16-digit lowercase hex. */
std::string hex16(uint64_t v);

/** Remove a directory tree (errors ignored) and create it empty. */
void freshDirectory(const std::string &dir);
void removeDirectory(const std::string &dir);

/**
 * Exclusive-time attribution for the serial traced runs. A Scope
 * charges its wall and thread-CPU time to one named layer, minus the
 * time of scopes nested inside it, so the layers' self-times add up to
 * the traced wall time.
 */
class SpanLedger
{
  public:
    struct Layer
    {
        double selfSec = 0;
        double selfCpuSec = 0;
        long calls = 0;
    };

    class Scope
    {
      public:
        Scope(SpanLedger &ledger, const std::string &layer);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLedger &ledger_;
    };

    /** The named layer's totals (zeros when it never ran). */
    Layer layer(const std::string &name) const;
    /** Sum of every layer's self wall time. */
    double totalSelfSec() const;
    const std::map<std::string, Layer> &layers() const { return layers_; }

  private:
    struct Frame
    {
        Layer *layer;
        double start, cpuStart;
        double childSec = 0, childCpuSec = 0;
    };

    std::map<std::string, Layer> layers_;
    std::vector<Frame> stack_;
};

/** What one run reports: the result line plus context records. */
struct Report
{
    bool correct = true;
    long attempted = 0;
    long failed = 0;
    /** name -> (value, unit), printed in insertion order. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    /** Context lines (not metrics): exact counts, digests, checks. */
    std::map<std::string, std::string> record;
    std::vector<std::string> problems;

    void set(const std::string &name, double value, const std::string &unit);
    void note(const std::string &key, const std::string &value)
    {
        record[key] = value;
    }
    void note(const std::string &key, double value);
    /** Mark the run incorrect with a reason. */
    void fail(const std::string &why);

    /** {"correct":..,"attempted":..,"failed":..,"metrics":{..}} */
    std::string resultJson() const;
    /** The record map plus problems as one JSON object. */
    std::string recordJson() const;
};

/** Shortest round-trippable spelling of a double. */
std::string num(double v);

int runCampaign(const Options &opts, Report &report);
int runAwdMixed(const Options &opts, Report &report);
/** Digest of awd_mixed's nominal schedule and kernel stream. */
std::string awdScheduleDigest(uint64_t seed, size_t count);
/** Built-in self-tests; returns the number of failures. */
int runSelftests(const std::string &workdir);

} // namespace perfbench
