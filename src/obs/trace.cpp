#include "obs/trace.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/log.hpp"
#include "obs/json.hpp"

namespace aw::obs {

/**
 * Per-thread recording state. Owned jointly by the thread (via a
 * thread_local pointer) and the global buffer list (shared_ptr), so
 * events and tallies survive thread exit until the next clear().
 */
struct Profiler::ThreadBuf
{
    struct Open
    {
        const char *name;
        ZoneKind kind;
        double tsUs = 0;
        double childUs = 0; ///< inclusive time of the closed children
    };

    struct Tally
    {
        const char *name;
        uint64_t count = 0;
        double totalUs = 0;
        double selfUs = 0;
    };

    uint32_t tid = 0;
    std::vector<Open> stack; ///< the owning thread's alone: no lock
    std::mutex mu;           ///< guards done and tallies vs. readers
    std::vector<TraceEvent> done;
    std::vector<Tally> tallies; ///< one per name pointer, first-use order
};

namespace {

std::mutex g_bufListMutex;
std::vector<std::shared_ptr<Profiler::ThreadBuf>> &
bufList()
{
    static std::vector<std::shared_ptr<Profiler::ThreadBuf>> list;
    return list;
}

// Externally-timed events (emit()): stamped by their owners across
// threads, so they never belong to any thread-local buffer.
std::mutex g_externalMutex;
std::vector<TraceEvent> &
externalList()
{
    static std::vector<TraceEvent> list;
    return list;
}

} // namespace

Profiler::ThreadBuf &
Profiler::localBuf()
{
    thread_local std::shared_ptr<ThreadBuf> buf = [] {
        auto b = std::make_shared<ThreadBuf>();
        std::lock_guard<std::mutex> lock(g_bufListMutex);
        b->tid = static_cast<uint32_t>(bufList().size() + 1);
        bufList().push_back(b);
        return b;
    }();
    return *buf;
}

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

void
Profiler::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

void
Profiler::begin(const char *name, ZoneKind kind)
{
    ThreadBuf &buf = localBuf();
    buf.stack.push_back({name, kind});
    // Stamp last and, in end(), first: the bookkeeping lands in the
    // parent, not in the zone it surrounds.
    std::chrono::duration<double, std::micro> ts =
        std::chrono::steady_clock::now() - epoch_;
    buf.stack.back().tsUs = ts.count();
}

void
Profiler::end()
{
    std::chrono::duration<double, std::micro> ts =
        std::chrono::steady_clock::now() - epoch_;
    ThreadBuf &buf = localBuf();
    if (buf.stack.empty())
        return; // unbalanced end(): nothing open on this thread
    const ThreadBuf::Open open = buf.stack.back();
    buf.stack.pop_back();
    const double durUs = std::max(0.0, ts.count() - open.tsUs);
    if (!buf.stack.empty())
        buf.stack.back().childUs += durUs;

    std::lock_guard<std::mutex> lock(buf.mu);
    auto tally = std::find_if(
        buf.tallies.begin(), buf.tallies.end(),
        [&](const ThreadBuf::Tally &t) { return t.name == open.name; });
    if (tally == buf.tallies.end())
        tally = buf.tallies.insert(tally, {open.name});
    tally->count += 1;
    tally->totalUs += durUs;
    tally->selfUs += durUs - open.childUs;
    if (open.kind == ZoneKind::TallyOnly)
        return;
    TraceEvent e;
    e.name = open.name;
    e.tsUs = open.tsUs;
    e.durUs = durUs;
    e.tid = buf.tid;
    e.depth = static_cast<uint32_t>(buf.stack.size());
    buf.done.push_back(std::move(e));
}

void
Profiler::emit(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(g_externalMutex);
    externalList().push_back(std::move(event));
}

std::vector<TraceEvent>
Profiler::events() const
{
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(g_externalMutex);
        const std::vector<TraceEvent> &ext = externalList();
        out.insert(out.end(), ext.begin(), ext.end());
    }
    std::lock_guard<std::mutex> listLock(g_bufListMutex);
    for (const auto &buf : bufList()) {
        std::lock_guard<std::mutex> lock(buf->mu);
        out.insert(out.end(), buf->done.begin(), buf->done.end());
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return a.tsUs < b.tsUs;
              });
    return out;
}

std::vector<ZoneStat>
Profiler::zoneStats() const
{
    std::map<std::string, ZoneStat> agg;
    {
        std::lock_guard<std::mutex> listLock(g_bufListMutex);
        for (const auto &buf : bufList()) {
            std::lock_guard<std::mutex> lock(buf->mu);
            for (const ThreadBuf::Tally &t : buf->tallies) {
                ZoneStat &s = agg[t.name];
                s.count += t.count;
                s.totalUs += t.totalUs;
                s.selfUs += t.selfUs;
            }
        }
    }
    {
        std::lock_guard<std::mutex> lock(g_externalMutex);
        for (const TraceEvent &e : externalList()) {
            ZoneStat &s = agg[e.name];
            s.count += 1;
            s.totalUs += e.durUs;
            s.selfUs += e.durUs;
        }
    }
    std::vector<ZoneStat> out;
    out.reserve(agg.size());
    for (auto &[name, s] : agg) {
        s.name = name;
        out.push_back(std::move(s));
    }
    return out;
}

std::string
Profiler::chromeTraceJson() const
{
    std::ostringstream out;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const TraceEvent &e : events()) {
        if (!first)
            out << ",";
        first = false;
        out << "\n  {\"name\": \"" << jsonEscape(e.name)
            << "\", \"cat\": \"aw\", \"ph\": \"X\", \"pid\": 1"
            << ", \"tid\": " << e.tid << ", \"ts\": " << jsonNumber(e.tsUs)
            << ", \"dur\": " << jsonNumber(e.durUs)
            << ", \"args\": {\"depth\": " << e.depth << "}}";
    }
    out << "\n]}";
    return out.str();
}

void
Profiler::clear()
{
    {
        std::lock_guard<std::mutex> lock(g_externalMutex);
        externalList().clear();
    }
    std::lock_guard<std::mutex> listLock(g_bufListMutex);
    for (const auto &buf : bufList()) {
        std::lock_guard<std::mutex> lock(buf->mu);
        buf->done.clear();
        buf->tallies.clear();
    }
}

} // namespace aw::obs
