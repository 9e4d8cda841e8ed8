/**
 * @file
 * Process-wide metrics registry with hierarchical dotted names
 * ("sim.sm.issue_stalls", "tuner.qp.iterations", "hw.nvml.samples").
 *
 * Four instrument kinds:
 *   Counter   — monotonically growing total (events, cycles, samples);
 *   Gauge     — last-written value (a convergence residual, a MAPE);
 *   Histogram — value distribution over geometric buckets with
 *               approximate percentiles and exact count/sum/min/max;
 *   Timer     — a Histogram of wall-clock durations its caller
 *               measured (scoped timing is a profiling zone,
 *               obs/trace.hpp).
 *
 * Concurrency model: registration (the name lookup) takes a mutex, but
 * the returned references are stable for the life of the process, so
 * hot paths resolve their instruments once (function-local static
 * reference) and then update them with lock-free atomics. Updates use
 * relaxed ordering — metrics are statistics, not synchronization.
 *
 * Export: toJson() (an object keyed by metric name, consumed by the
 * telemetry sink) and toCsv(). resetAll() zeroes values for tests
 * without invalidating references.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace aw::obs {

/** Lock-free add-only total. Stored as a double so cycle counts and
 *  fractional access counts accumulate without truncation. */
class Counter
{
  public:
    void add(double n = 1.0)
    {
        double cur = v_.load(std::memory_order_relaxed);
        while (!v_.compare_exchange_weak(cur, cur + n,
                                         std::memory_order_relaxed))
            ;
    }
    double value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/** Last-written value. */
class Gauge
{
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/** Point-in-time statistics of a histogram (or timer). */
struct HistogramStats
{
    uint64_t count = 0;
    double min = 0, max = 0, sum = 0, mean = 0;
    double p50 = 0, p90 = 0, p99 = 0;
};

/**
 * Distribution over geometric buckets spanning [1e-9, 1e12) with 8
 * buckets per decade. Values outside the span clamp into the edge
 * buckets; min/max/sum/count stay exact.
 *
 * Quantile error bound: percentile(p) locates the bucket holding the
 * p-th sample and interpolates linearly inside it, so the reported
 * value and the true sample quantile always lie in the same geometric
 * bucket. Adjacent bucket edges are a factor of 10^(1/8) apart, which
 * bounds the RELATIVE error strictly below 10^(1/8) - 1 ~= 33.4% for
 * any in-span positive sample set; the result is additionally clamped
 * to the exact observed [min, max], so the extreme quantiles (p -> 0
 * or 100) tighten toward zero error. Rank error is zero — only the
 * value within the correct bucket is approximate. test_metrics
 * (HistogramQuantileErrorBound) checks this bound against exact
 * quantiles on uniform and lognormal samples.
 */
class Histogram
{
  public:
    static constexpr int kBucketsPerDecade = 8;
    static constexpr int kMinDecade = -9; ///< 1e-9 lower edge
    static constexpr int kMaxDecade = 12; ///< 1e12 upper edge
    static constexpr int kNumBuckets =
        (kMaxDecade - kMinDecade) * kBucketsPerDecade;

    void record(double v);

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** Approximate p-th percentile (p in [0,100]); 0 when empty. */
    double percentile(double p) const;

    HistogramStats stats() const;
    void reset();

  private:
    // min/max idle at +/-inf so concurrent first records need no
    // special seeding; stats() reports 0/0 while empty.
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{1e308};
    std::atomic<double> max_{-1e308};
};

/** Wall-clock duration histogram (seconds). */
class Timer
{
  public:
    void record(double seconds) { h_.record(seconds); }
    uint64_t count() const { return h_.count(); }
    double totalSec() const { return h_.stats().sum; }
    HistogramStats stats() const { return h_.stats(); }
    void reset() { h_.reset(); }

  private:
    Histogram h_;
};

/** What a registry entry is. */
enum class MetricKind { Counter, Gauge, Histogram, Timer };

/** Name-keyed instrument store. */
class Registry
{
  public:
    /**
     * Find-or-create by dotted name. panic() when the name is malformed
     * (names must be non-empty `[a-z0-9_]` segments joined by '.') or
     * already registered as a different kind.
     */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);
    Timer &timer(const std::string &name);

    /** One exported entry (values snapshotted at export time). */
    struct Entry
    {
        std::string name;
        MetricKind kind;
        double value = 0;       ///< counter/gauge value
        HistogramStats stats{}; ///< histogram/timer statistics
    };

    /** All entries in name order. */
    std::vector<Entry> snapshot() const;

    /** Number of registered instruments. */
    size_t size() const;

    /** JSON object keyed by metric name. */
    std::string toJson() const;

    /** CSV: name,kind,count,value,mean,p50,p90,p99,min,max. */
    std::string toCsv() const;

    /** Zero every value; references stay valid (test support). */
    void resetAll();

  private:
    struct Slot
    {
        MetricKind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::unique_ptr<Timer> timer;
    };

    Slot &resolve(const std::string &name, MetricKind kind);

    mutable std::mutex mu_;
    std::map<std::string, Slot> slots_;
};

/** The process-wide registry every subsystem records into. */
Registry &metrics();

/** True when the dotted metric name is well-formed. */
bool validMetricName(const std::string &name);

} // namespace aw::obs
