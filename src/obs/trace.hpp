/**
 * @file
 * Scoped profiling zones with Chrome trace-event export and per-zone
 * tallies.
 *
 * Usage:
 *     void GpuSimulator::run(...) {
 *         AW_PROF_SCOPE("sim/kernel");
 *         ...
 *         { AW_PROF_SCOPE("sim/wave"); ... }   // nests under sim/kernel
 *     }
 *
 * Zones nest per thread (a thread-local stack) and accumulate into
 * per-thread buffers, merged at export time into the Chrome
 * trace-event JSON format that chrome://tracing and Perfetto load
 * directly ("X" complete events with microsecond timestamps).
 *
 * Tallies: every closed zone also adds to its thread's tally for the
 * zone name: count, inclusive time, and exclusive (self) time. A zone's
 * self time is its inclusive time minus that of the zones nested in it
 * on the same thread, so on one thread the self times of all zones sum
 * to the inclusive time of the outermost ones. zoneStats() merges the
 * tallies across threads.
 *
 * Tally-only zones: a site that runs many times per kernel (one memory
 * instruction, one sample close) passes ZoneKind::TallyOnly. It nests
 * and tallies like any zone but adds no trace event, so a trace holds a
 * bounded number of events per kernel.
 *
 * Parallel regions: nesting is per thread, so a zone that spans a
 * parallel region whose workers open zones does not see them as
 * children. Its self time then includes the time it waited for them,
 * and the self times of all threads add up to more than the wall time.
 * `sim/kernel` is such a zone at detail > 1 with more than one
 * simulator thread.
 *
 * Cost model: the profiler is off by default. A disabled AW_PROF_SCOPE
 * is one relaxed atomic load and two branches, with no clock read —
 * cheap enough to leave on the simulator's per-instruction paths.
 * Enabled zones take one steady_clock read at entry and exit plus a
 * short lock on the owning thread's buffer at exit.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace aw::obs {

/** One completed zone instance ("X" trace event). */
struct TraceEvent
{
    std::string name;
    double tsUs = 0;  ///< start, microseconds since profiler epoch
    double durUs = 0; ///< inclusive duration, microseconds
    uint32_t tid = 0; ///< profiler-assigned thread id (1-based)
    uint32_t depth = 0; ///< nesting depth at entry (0 = top level)
};

/** Aggregated view of one zone name across all threads. */
struct ZoneStat
{
    std::string name;
    uint64_t count = 0;
    double totalUs = 0; ///< summed inclusive time
    double selfUs = 0;  ///< summed exclusive time (see the file comment)
};

/** Whether a zone's instances also become trace events. */
enum class ZoneKind : uint8_t
{
    Traced,    ///< tally plus one trace event per instance
    TallyOnly, ///< tally only, for sites that run many times per kernel
};

/** Process-wide zone collector. */
class Profiler
{
  public:
    static Profiler &instance();

    /** Turn collection on/off. Zones opened while disabled are ignored
     *  entirely; zones open across a flip close harmlessly. */
    void setEnabled(bool on);
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Open a zone on the calling thread. `name` must outlive the
     *  profiler (string literals; zone names are a fixed vocabulary). */
    void begin(const char *name, ZoneKind kind = ZoneKind::Traced);

    /** Close the calling thread's innermost zone. */
    void end();

    /**
     * Inject an externally-timed event. Zones (begin/end) only fit
     * work that stays on one thread; a request span that crosses the
     * reactor, a worker, and the reactor again is stamped by its
     * owners and emitted whole once it completes. The event's tsUs
     * must be relative to epoch() (see below). Emission ignores the
     * enabled flag — callers that emit gate themselves. zoneStats()
     * counts an emitted event's whole duration as its self time: it
     * sits on no zone stack.
     */
    void emit(TraceEvent event);

    /** The instant tsUs == 0 refers to; externally-timed emitters
     *  rebase their own steady_clock stamps against this. */
    std::chrono::steady_clock::time_point epoch() const
    {
        return epoch_;
    }

    /** All completed events, merged across threads, start-time order. */
    std::vector<TraceEvent> events() const;

    /** Per-name tallies merged across threads, plus the emitted
     *  events, name order. */
    std::vector<ZoneStat> zoneStats() const;

    /** Chrome trace-event JSON ({"traceEvents": [...]}) for
     *  chrome://tracing / Perfetto. */
    std::string chromeTraceJson() const;

    /** Drop all recorded events and tallies (keeps enabled state). A
     *  zone open across the call is recorded when it closes. */
    void clear();

    struct ThreadBuf; ///< implementation detail (public for the TU)

  private:
    Profiler() = default;
    ThreadBuf &localBuf();

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
};

/** RAII zone; see AW_PROF_SCOPE. */
class ZoneScope
{
  public:
    explicit ZoneScope(const char *name, ZoneKind kind = ZoneKind::Traced)
        : active_(Profiler::instance().enabled())
    {
        if (active_)
            Profiler::instance().begin(name, kind);
    }
    ~ZoneScope()
    {
        if (active_)
            Profiler::instance().end();
    }
    ZoneScope(const ZoneScope &) = delete;
    ZoneScope &operator=(const ZoneScope &) = delete;

  private:
    bool active_;
};

#define AW_PROF_CONCAT2(a, b) a##b
#define AW_PROF_CONCAT(a, b) AW_PROF_CONCAT2(a, b)

/** Open a profiling zone covering the rest of the enclosing scope:
 *  AW_PROF_SCOPE(name) or AW_PROF_SCOPE(name, ZoneKind::TallyOnly). */
#define AW_PROF_SCOPE(...)                                                   \
    ::aw::obs::ZoneScope AW_PROF_CONCAT(awProfZone_, __LINE__)(__VA_ARGS__)

} // namespace aw::obs
