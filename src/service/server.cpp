#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service_obs.hpp"

namespace aw::service {

namespace {

using Clock = std::chrono::steady_clock;

/** Longest slice of a client-supplied field (id, message fragment)
 *  echoed back in an error reply. A legal 4 MiB frame can carry a
 *  multi-MiB id before validation rejects it; echoing it raw (with
 *  jsonEscape expansion on top) would push the reply past the frame
 *  bound. */
constexpr size_t kMaxEchoBytes = 256;

/** Per-session out-buffer cap (a couple of max-size frames). A client
 *  that pipelines requests but never reads its replies is dropped at
 *  this bound instead of growing daemon memory without limit. */
constexpr size_t kMaxSessionOutBytes =
    2 * (kFrameHeaderBytes + kMaxFrameBytes);

/**
 * The daemon's AW_SERVICE_* variables. Every lookup records the name it
 * asked for, so the names fromEnvironment() reads are the one list of
 * knobs, and warnUnread() names any other AW_SERVICE_* variable that is
 * set: a removed or mistyped knob is reported instead of silently
 * doing nothing.
 */
class ServiceEnv
{
  public:
    /** The variable's value; null when unset or empty. */
    const char *text(const char *name)
    {
        read_.emplace_back(name);
        const char *env = std::getenv(name);
        return env && *env ? env : nullptr;
    }

    long integer(const char *name, long def, long lo, long hi)
    {
        const char *env = text(name);
        if (!env)
            return def;
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || v < lo || v > hi) {
            warn("%s='%s' is not an integer in [%ld, %ld]; using %ld",
                 name, env, lo, hi, def);
            return def;
        }
        return v;
    }

    double number(const char *name, double def, double lo, double hi)
    {
        const char *env = text(name);
        if (!env)
            return def;
        char *end = nullptr;
        double v = std::strtod(env, &end);
        if (end == env || *end != '\0' || !(v >= lo) || !(v <= hi)) {
            warn("%s='%s' is not a number in [%g, %g]; using %g", name,
                 env, lo, hi, def);
            return def;
        }
        return v;
    }

    /** One warning for each set AW_SERVICE_* variable never looked up. */
    void warnUnread() const
    {
        for (char **e = environ; *e; ++e) {
            const std::string_view var(*e);
            const std::string_view name = var.substr(0, var.find('='));
            if (name.starts_with("AW_SERVICE_") &&
                std::find(read_.begin(), read_.end(), name) == read_.end())
                warn("%.*s is set, but awd does not read it; ignoring it",
                     static_cast<int>(name.size()), name.data());
        }
    }

  private:
    std::vector<std::string_view> read_;
};

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Turn Nagle's algorithm off on a session socket. With it on, a reply
 *  sent while the session's previous reply is still unacknowledged is
 *  held until that ACK arrives, and a pipelining client delays its ACK
 *  until its next request: every reply then waits one request gap. The
 *  reactor's one send() per session per turn is the only batching. */
bool
setNoDelay(int fd)
{
    int one = 1;
    return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) ==
           0;
}

/** One client connection; owned exclusively by the reactor thread. */
struct Session
{
    uint64_t id = 0; ///< key in the reactor's session map
    int fd = -1;
    FrameDecoder dec;
    std::string out;        ///< encoded frames awaiting send
    std::string scratch;    ///< reply payloads are built here, reused
    bool wantClose = false; ///< close once `out` is flushed
    Clock::time_point lastActivity;
    int inflight = 0; ///< replies this session still awaits
    uint64_t shedSeq = 0; ///< per-session shed counter (retry jitter)
};

/** A finished job on its way back from a worker. The reactor — not the
 *  worker — serializes it, because singleflight fan-out patches
 *  per-subscriber fields (id, deadline verdict) into copies. */
struct Completion
{
    uint64_t tag = 0;
    uint64_t sessionId = 0;
    EstimateResponse resp;
    /** The job's lifecycle span (null when observability is off); the
     *  reactor stamps encode and records it at delivery. */
    std::shared_ptr<RequestSpan> span;
};

/** Watchdog view of one admitted-but-unfinished job. The deadline is
 *  the job's shared effective-deadline cell: coalescing extends it
 *  when a follower with a later deadline attaches, so the watchdog
 *  cancels only once every subscriber's deadline has passed. */
struct InflightEntry
{
    std::shared_ptr<std::atomic<int64_t>> deadlineNs;
    std::shared_ptr<std::atomic<bool>> cancel;
    bool warned = false;
};

/** One subscriber of a singleflight computation. */
struct FlightSub
{
    uint64_t sessionId = 0;
    std::string requestId;
    Clock::time_point deadline; ///< this subscriber's own deadline
    /** A coalesced follower's own span (null when observability is
     *  off, and for the leader — the leader's span rides the Job). */
    std::shared_ptr<RequestSpan> span;
};

/**
 * One in-flight estimate computation. The first subscriber is the
 * leader whose Job is queued/running; later identical requests attach
 * as followers and are all answered from the leader's single result.
 * Reactor-owned: no locking.
 */
struct Flight
{
    uint64_t tag = 0;    ///< the leader job's inflight tag
    std::string key;     ///< content key (for the attach-index cleanup)
    std::shared_ptr<std::atomic<int64_t>> deadlineNs;
    std::shared_ptr<std::atomic<bool>> cancel;
    bool degrade = false; ///< leader runs at reduced fidelity
    /** The originating subscriber hung up (followers remain). The
     *  completion's served accounting uses this: finishJob already
     *  counted the computation itself, which stands in for the leader
     *  only while the leader is still subscribed. */
    bool leaderDetached = false;
    std::vector<FlightSub> subs;
};

int64_t
toNs(Clock::time_point tp)
{
    return tp.time_since_epoch().count();
}

} // namespace

ServerOptions
ServerOptions::fromEnvironment()
{
    ServerOptions opts;
    ServiceEnv env;
    opts.port = static_cast<int>(
        env.integer("AW_SERVICE_PORT", opts.port, 0, 65535));
    opts.threads = static_cast<int>(
        env.integer("AW_SERVICE_THREADS", opts.threads, 1, 256));
    opts.maxQueue = static_cast<int>(
        env.integer("AW_SERVICE_MAX_QUEUE", opts.maxQueue, 2, 1 << 20));
    opts.defaultDeadlineMs = env.number(
        "AW_SERVICE_DEADLINE_MS", opts.defaultDeadlineMs, 1, 86400e3);
    opts.idleTimeoutMs =
        env.number("AW_SERVICE_IDLE_MS", opts.idleTimeoutMs, 10, 86400e3);
    if (const char *dir = env.text("AW_SERVICE_SHARED_MEMO_DIR"))
        opts.sharedMemoDir = dir;
    if (const char *trace = env.text("AW_SERVICE_TRACE"))
        opts.tracePath = trace;
    opts.slowMs = env.number("AW_SERVICE_SLOW_MS", opts.slowMs, 0, 86400e3);
    opts.flightN = static_cast<int>(
        env.integer("AW_SERVICE_FLIGHT_N", opts.flightN, 0, 1 << 20));
    if (const char *dump = env.text("AW_SERVICE_FLIGHT_DUMP"))
        opts.flightDumpPath = dump;
    if (const char *cards = env.text("AW_SERVICE_CARDS")) {
        opts.cards.clear();
        std::string spec = cards;
        size_t pos = 0;
        while (pos <= spec.size()) {
            size_t comma = spec.find(',', pos);
            if (comma == std::string::npos)
                comma = spec.size();
            if (comma > pos)
                opts.cards.push_back(spec.substr(pos, comma - pos));
            pos = comma + 1;
        }
        if (opts.cards.empty())
            opts.cards.push_back("volta");
    }
    env.warnUnread();
    return opts;
}

struct AwdServer::Impl
{
    explicit Impl(ServerOptions o)
        : opts(std::move(o)), estimator(opts.cards),
          queue(std::max<size_t>(
                    1, static_cast<size_t>(opts.maxQueue) * 3 / 4),
                static_cast<size_t>(opts.maxQueue))
    {
        if (!opts.sharedMemoDir.empty())
            estimator.setSharedMemoDir(opts.sharedMemoDir);
        if (opts.flightN > 0)
            recorder = std::make_unique<FlightRecorder>(
                static_cast<size_t>(opts.flightN));
        obsOn = recorder != nullptr || !opts.tracePath.empty() ||
                opts.slowMs > 0;
        traceEpochNs =
            toNs(obs::Profiler::instance().epoch());
    }

    ServerOptions opts;
    Estimator estimator;
    RequestQueue queue;

    int listenFd = -1;
    int wakeRead = -1;
    int wakeWrite = -1;
    bool noDelayWarned = false; ///< reactor thread only

    std::atomic<bool> running{false};
    std::atomic<bool> stopping{false};
    std::atomic<bool> forced{false};
    std::atomic<int64_t> drainDeadlineNs{0};

    std::thread reactor;
    std::vector<std::thread> workers;
    std::thread watchdog;
    std::atomic<bool> watchdogStop{false};

    std::mutex completionsMu;
    std::vector<Completion> completions;

    std::mutex inflightMu;
    std::unordered_map<uint64_t, InflightEntry> inflight;
    std::atomic<uint64_t> nextTag{1};
    std::atomic<int> inflightCount{0};

    std::mutex idemMu;
    std::unordered_map<std::string, EstimateResponse> idem;
    std::deque<std::string> idemOrder;

    // --- singleflight state (reactor thread only; no locking) ----------
    std::unordered_map<uint64_t, Session> sessions;
    /** Every queued job owns a flight, keyed by its unique tag — NOT by
     *  content key: identical keys legitimately coexist when coalescing
     *  is off, or when the first admission was Degrade (not attachable)
     *  and a full-fidelity duplicate was admitted behind it. */
    std::unordered_map<uint64_t, Flight> flights;
    /** Which flight new duplicates attach to, one slot per content key.
     *  Last admission wins the slot (a full-fidelity job supersedes a
     *  degrade leader); cleared at delivery only by the slot holder. */
    std::unordered_map<std::string, uint64_t> flightTagByKey;

    // --- observability (DESIGN.md §10.11) ------------------------------

    /** Per-server metrics registry: this daemon's stats are a typed
     *  snapshot of it, and instances (tests, paired benches) do not
     *  bleed counters into each other. The process-global
     *  obs::metrics() counters sprinkled through the hot paths remain
     *  untouched for the telemetry sink. */
    obs::Registry reg;

    /** Registry handles resolved once — the hot paths then pay exactly
     *  what the old raw atomics paid: one relaxed atomic update. */
    struct Stats
    {
        explicit Stats(obs::Registry &r)
            : admitted(r.counter("admitted")),
              served(r.counter("served")), shed(r.counter("shed")),
              degraded(r.counter("degraded")),
              replayed(r.counter("replayed")),
              memoHits(r.counter("memo_hits")),
              protocolErrors(r.counter("protocol_errors")),
              sessions(r.counter("sessions")),
              coalesced(r.counter("coalesced")),
              coalesceCancelled(r.counter("coalesce_cancelled")),
              sharedHits(r.counter("shared_memo_hits")),
              sharedNegHits(r.counter("shared_memo_negative_hits")),
              deadline(r.counter("deadline")), slow(r.counter("slow")),
              queueDepth(r.gauge("queue_depth")),
              inflightGauge(r.gauge("inflight")),
              sessionsOpen(r.gauge("sessions_open")),
              flightsOpen(r.gauge("flights_open")),
              outBufferBytes(r.gauge("out_buffer_bytes")),
              e2e(r.timer("e2e")), queueWait(r.timer("queue_wait")),
              sim(r.timer("sim"))
        {}

        obs::Counter &admitted, &served, &shed, &degraded, &replayed,
            &memoHits, &protocolErrors, &sessions, &coalesced,
            &coalesceCancelled, &sharedHits, &sharedNegHits, &deadline,
            &slow;
        obs::Gauge &queueDepth, &inflightGauge, &sessionsOpen,
            &flightsOpen, &outBufferBytes;
        obs::Timer &e2e, &queueWait, &sim;
    };
    Stats st{reg};

    /** Last-N completed request records; null when flightN is 0. */
    std::unique_ptr<FlightRecorder> recorder;
    /** Any span-producing knob set? When false (every knob at its
     *  default) no RequestSpan is ever allocated and the request path
     *  is bit-identical to the pre-observability daemon. The latency
     *  timers above are exempt: they are plain histogram records with
     *  no allocation, always on. */
    bool obsOn = false;
    /** Profiler epoch in steady-clock ns — span stamps are rebased
     *  onto it so exported trace events share the profiler timeline. */
    int64_t traceEpochNs = 0;

    // --- worker / watchdog side ---------------------------------------

    void postCompletion(uint64_t tag, uint64_t sessionId,
                        EstimateResponse resp,
                        std::shared_ptr<RequestSpan> span)
    {
        {
            std::lock_guard<std::mutex> lock(completionsMu);
            completions.push_back(
                {tag, sessionId, std::move(resp), std::move(span)});
        }
        inflightCount.fetch_sub(1, std::memory_order_acq_rel);
        wake('C');
    }

    void wake(char tagByte)
    {
        // Async-signal-safe: one write on a pre-opened pipe. EAGAIN is
        // fine — the pipe already has wake bytes pending.
        [[maybe_unused]] ssize_t n = ::write(wakeWrite, &tagByte, 1);
    }

    void registerInflight(const Job &job)
    {
        std::lock_guard<std::mutex> lock(inflightMu);
        inflight[job.tag] =
            InflightEntry{job.deadlineNs, job.cancel, false};
    }

    void unregisterInflight(uint64_t tag)
    {
        std::lock_guard<std::mutex> lock(inflightMu);
        inflight.erase(tag);
    }

    void idemStore(const std::string &id, const EstimateResponse &resp)
    {
        std::lock_guard<std::mutex> lock(idemMu);
        if (idem.count(id))
            return;
        idem.emplace(id, resp);
        idemOrder.push_back(id);
        while (idemOrder.size() > kMemoCapacity) {
            idem.erase(idemOrder.front());
            idemOrder.pop_front();
        }
    }

    bool idemLookup(const std::string &id, EstimateResponse &out)
    {
        std::lock_guard<std::mutex> lock(idemMu);
        auto it = idem.find(id);
        if (it == idem.end())
            return false;
        out = it->second;
        return true;
    }

    void finishJob(const Job &job, EstimateResponse resp)
    {
        if (resp.status == "ok") {
            // A Degrade-admitted job ran at detail 1, not the
            // fidelity its content key encodes — memoizing it would
            // serve reduced-fidelity answers to later full-fidelity
            // requests for the same key.
            if (!job.degrade)
                estimator.memoStore(job.contentKey, resp);
            if (!job.req.id.empty())
                idemStore(job.req.id, resp);
            st.served.add(1);
        } else if (resp.status == "error") {
            // Negative cache: a deterministic failure recorded in the
            // shared tier stops the whole fleet from recomputing the
            // key until the TTL lapses. (No-op without a shared dir.)
            estimator.sharedStoreNegative(job.contentKey, resp);
        }
        if (resp.status == "deadline")
            st.deadline.add(1);
        const Clock::time_point now = Clock::now();
        st.e2e.record(
            std::chrono::duration<double>(now - job.arrival).count());
        if (job.span)
            job.span->tFinishNs = toNs(now);
        unregisterInflight(job.tag);
        postCompletion(job.tag, job.sessionId, std::move(resp), job.span);
    }

    void workerLoop()
    {
        while (true) {
            Job job;
            if (!queue.pop(job))
                return;
            const Clock::time_point popped = Clock::now();
            st.queueWait.record(
                std::chrono::duration<double>(popped - job.arrival).count());
            if (job.span)
                job.span->tPopNs = toNs(popped);
            const Clock::time_point simStart = Clock::now();
            EstimateResponse resp = estimator.run(job);
            const Clock::time_point simEnd = Clock::now();
            st.sim.record(
                std::chrono::duration<double>(simEnd - simStart).count());
            if (job.span) {
                job.span->tSimStartNs = toNs(simStart);
                job.span->tSimEndNs = toNs(simEnd);
            }
            finishJob(job, std::move(resp));
        }
    }

    void watchdogLoop()
    {
        while (!watchdogStop.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
            const Clock::time_point now = Clock::now();
            {
                std::lock_guard<std::mutex> lock(inflightMu);
                for (auto &[tag, e] : inflight) {
                    // Re-read the shared cell every tick: singleflight
                    // extends it when a later-deadline follower
                    // attaches to this job.
                    const Clock::time_point deadline(Clock::duration(
                        e.deadlineNs->load(std::memory_order_acquire)));
                    if (now >= deadline)
                        e.cancel->store(true, std::memory_order_relaxed);
                    if (!e.warned &&
                        now > deadline + std::chrono::seconds(5)) {
                        e.warned = true;
                        warn("awd: request is %ld ms past its deadline "
                             "and still running (cancellation not yet "
                             "honored)",
                             static_cast<long>(
                                 std::chrono::duration_cast<
                                     std::chrono::milliseconds>(
                                     now - deadline)
                                     .count()));
                    }
                }
            }
            const int64_t drainNs =
                drainDeadlineNs.load(std::memory_order_acquire);
            if (drainNs != 0 && !forced.load(std::memory_order_relaxed) &&
                now.time_since_epoch().count() > drainNs) {
                forced.store(true, std::memory_order_release);
                std::lock_guard<std::mutex> lock(inflightMu);
                if (!inflight.empty())
                    warn("awd: drain timeout — cancelling %zu in-flight "
                         "request(s)",
                         inflight.size());
                for (auto &[tag, e] : inflight)
                    e.cancel->store(true, std::memory_order_relaxed);
                wake('C');
            }
        }
    }

    // --- reactor side --------------------------------------------------

    /** Counters are integral by construction — emit them without a
     *  decimal point so existing stats consumers keep parsing them as
     *  the plain integers the raw atomics used to be. */
    static void appendCount(std::string &out, const char *name,
                            const obs::Counter &c)
    {
        out += ",\"";
        out += name;
        out += "\":";
        out += std::to_string(static_cast<long long>(c.value()));
    }

    static void appendTimer(std::string &out, const char *name,
                            const obs::Timer &t)
    {
        const obs::HistogramStats s = t.stats();
        out += "\"";
        out += name;
        out += "\":{\"count\":" + std::to_string(s.count);
        out += ",\"mean_ms\":" + obs::jsonNumber(s.mean * 1e3);
        out += ",\"p50_ms\":" + obs::jsonNumber(s.p50 * 1e3);
        out += ",\"p90_ms\":" + obs::jsonNumber(s.p90 * 1e3);
        out += ",\"p99_ms\":" + obs::jsonNumber(s.p99 * 1e3);
        out += ",\"max_ms\":" + obs::jsonNumber(s.max * 1e3);
        out += "}";
    }

    /**
     * The stats response: a typed snapshot of the per-server registry.
     * scope "counters" stops after the flat stats object (the PR 8
     * shape plus the degraded/deadline/slow counters); "" and "full"
     * add gauges, latency timers, estimator and flight-recorder state;
     * "flight" additionally inlines the flight-recorder dump.
     */
    std::string statsPayload(const std::string &scope) const
    {
        st.queueDepth.set(static_cast<double>(queue.depth()));
        st.inflightGauge.set(static_cast<double>(
            inflightCount.load(std::memory_order_relaxed)));
        std::string out = "{\"status\":\"ok\",\"stats\":{";
        out += "\"queue_depth\":" + std::to_string(queue.depth());
        out += ",\"inflight\":" +
               std::to_string(inflightCount.load(std::memory_order_relaxed));
        appendCount(out, "admitted", st.admitted);
        appendCount(out, "served", st.served);
        appendCount(out, "shed", st.shed);
        appendCount(out, "replayed", st.replayed);
        appendCount(out, "memo_hits", st.memoHits);
        appendCount(out, "protocol_errors", st.protocolErrors);
        appendCount(out, "sessions", st.sessions);
        appendCount(out, "coalesced", st.coalesced);
        appendCount(out, "coalesce_cancelled", st.coalesceCancelled);
        appendCount(out, "shared_memo_hits", st.sharedHits);
        appendCount(out, "shared_memo_negative_hits", st.sharedNegHits);
        appendCount(out, "degraded", st.degraded);
        appendCount(out, "deadline", st.deadline);
        appendCount(out, "slow", st.slow);
        out += ",\"draining\":";
        out += stopping.load(std::memory_order_relaxed) ? "true" : "false";
        out += "}";
        if (scope != "counters") {
            out += ",\"gauges\":{\"sessions_open\":";
            out += std::to_string(
                static_cast<long long>(st.sessionsOpen.value()));
            out += ",\"flights_open\":";
            out += std::to_string(
                static_cast<long long>(st.flightsOpen.value()));
            out += ",\"out_buffer_bytes\":";
            out += std::to_string(
                static_cast<long long>(st.outBufferBytes.value()));
            out += "},\"timers\":{";
            appendTimer(out, "e2e", st.e2e);
            out += ",";
            appendTimer(out, "queue_wait", st.queueWait);
            out += ",";
            appendTimer(out, "sim", st.sim);
            out += "},\"estimator\":{";
            out += "\"cards\":" + std::to_string(estimator.cards().size());
            out += ",\"memo_entries\":" +
                   std::to_string(estimator.memoEntries());
            out += ",\"shared_memo\":";
            out += estimator.sharedEnabled() ? "true" : "false";
            out += "},\"flight_recorder\":{\"enabled\":";
            out += recorder ? "true" : "false";
            out += ",\"capacity\":" +
                   std::to_string(recorder ? recorder->capacity() : 0);
            out += ",\"recorded\":" +
                   std::to_string(recorder ? recorder->recorded() : 0);
            out += ",\"slow_ms\":" + obs::jsonNumber(opts.slowMs);
            out += "}";
        }
        if (scope == "flight") {
            out += ",\"flight\":";
            out += recorder ? recorder->dumpJson() : "null";
        }
        out += "}";
        return out;
    }

    double retryAfterMs(Session &sess)
    {
        const double perJobMs = 50.0;
        const double est = perJobMs *
                           static_cast<double>(queue.depth() + 1) /
                           std::max(1, opts.threads);
        const double base = std::clamp(est, 50.0, 2000.0);
        // Deterministic per-session jitter (±25%): a synchronized
        // client fleet shed on the same tick must not come back on the
        // same tick. Seeded from (session, shed ordinal), so replies
        // are reproducible run-to-run yet decorrelated across both
        // sessions and consecutive sheds of one session.
        const uint64_t roll = splitmix64(
            sess.id * 0x9e3779b97f4a7c15ULL + sess.shedSeq++);
        const double unit =
            static_cast<double>(roll >> 11) * 0x1.0p-53; // [0, 1)
        return base * (0.75 + 0.5 * unit);
    }

    /**
     * Frame a payload into the session's out-buffer. Never kills the
     * daemon: a reply that somehow overflows the frame bound
     * (responses embed derived strings) is replaced by a minimal
     * structured error instead of hitting appendFrame's fatal().
     * Every server-side send goes through this. Returns the payload
     * bytes actually framed (the spans' `bytes` field).
     */
    size_t sendPayload(Session &sess, std::string_view payload)
    {
        if (payload.size() <= kMaxFrameBytes) {
            appendFrame(sess.out, payload);
            return payload.size();
        }
        warn("awd: replacing a %zu-byte response that exceeds the "
             "%zu-byte frame bound with a structured error",
             payload.size(), kMaxFrameBytes);
        EstimateResponse resp;
        resp.status = "error";
        resp.errorCause = "internal_error";
        resp.errorMessage = "response exceeded the frame bound";
        sess.scratch.clear();
        appendResponseJson(resp, sess.scratch);
        appendFrame(sess.out, sess.scratch);
        return sess.scratch.size();
    }

    /** Serialize a response into the session's reusable scratch buffer
     *  and frame it — the per-reply allocation the old string-returning
     *  path paid is gone. */
    size_t sendResponse(Session &sess, const EstimateResponse &resp)
    {
        sess.scratch.clear();
        appendResponseJson(resp, sess.scratch);
        return sendPayload(sess, sess.scratch);
    }

    size_t sendShed(Session &sess, const std::string &id)
    {
        EstimateResponse resp;
        resp.status = "shed";
        resp.id = id;
        resp.retryAfterMs = retryAfterMs(sess);
        st.shed.add(1);
        obs::metrics().counter("service.shed").add(1);
        return sendResponse(sess, resp);
    }

    size_t sendError(Session &sess, const std::string &id,
                     const std::string &message)
    {
        EstimateResponse resp;
        resp.status = "error";
        // Both fields may carry client bytes that failed validation
        // precisely because they were oversized — never echo them
        // unbounded.
        resp.id = id.substr(0, kMaxEchoBytes);
        resp.errorCause = "protocol_error";
        resp.errorMessage =
            message.size() > 2 * kMaxEchoBytes
                ? message.substr(0, 2 * kMaxEchoBytes) + "... (truncated)"
                : message;
        st.protocolErrors.add(1);
        obs::metrics().counter("service.protocol_errors").add(1);
        return sendResponse(sess, resp);
    }

    // --- span plumbing (all dead when obsOn is false) -------------------

    int64_t nowNs() const { return toNs(Clock::now()); }

    /**
     * Finish a lifecycle span: stamp encode, feed the flight recorder,
     * export trace events, and apply the slow-request log. Reactor
     * thread only — every span reaches here through a mutex handoff
     * (or never left the reactor), so plain int64 stamps suffice.
     */
    void completeSpan(RequestSpan &span, const std::string &outcome,
                      size_t bytes)
    {
        span.outcome = outcome;
        span.bytes = bytes;
        span.tEncodeNs = nowNs();
        if (recorder)
            recorder->push(span);
        if (!opts.tracePath.empty())
            emitSpanTrace(span);
        if (opts.slowMs > 0 && span.tAcceptNs > 0) {
            const double totalMs =
                static_cast<double>(span.tEncodeNs - span.tAcceptNs) *
                1e-6;
            if (totalMs > opts.slowMs) {
                st.slow.add(1);
                warn("awd: slow request (%.1f ms > %.1f ms): verdict=%s "
                     "outcome=%s key=%s id=%s",
                     totalMs, opts.slowMs, spanVerdictName(span.verdict),
                     outcome.c_str(), span.keyPrefix.c_str(),
                     span.requestId.c_str());
            }
        }
    }

    /**
     * Export one finished span as Chrome-trace events on the shared
     * profiler timeline. The whole request is an "awd/request" slice;
     * queue wait and simulation nest under it when the span reached
     * those phases. Spans are laid out on a small set of virtual lanes
     * keyed by job tag so concurrent requests do not render stacked.
     */
    void emitSpanTrace(const RequestSpan &span)
    {
        obs::Profiler &prof = obs::Profiler::instance();
        const uint64_t lane =
            span.tag != 0 ? span.tag : span.leaderTag;
        const uint32_t tid = 900 + static_cast<uint32_t>(lane % 8);
        auto us = [&](int64_t ns) {
            return static_cast<double>(ns - traceEpochNs) * 1e-3;
        };
        std::string name = std::string("awd/request ") +
                           spanVerdictName(span.verdict);
        prof.emit({std::move(name), us(span.tAcceptNs),
                   us(span.tEncodeNs) - us(span.tAcceptNs), tid, 0});
        if (span.tAdmitNs > 0 && span.tPopNs > span.tAdmitNs)
            prof.emit({"awd/queue_wait", us(span.tAdmitNs),
                       us(span.tPopNs) - us(span.tAdmitNs), tid, 1});
        if (span.tSimStartNs > 0 && span.tSimEndNs > span.tSimStartNs)
            prof.emit({"awd/simulate", us(span.tSimStartNs),
                       us(span.tSimEndNs) - us(span.tSimStartNs), tid,
                       1});
    }

    /** Record a request that was answered inline from the reactor
     *  (replay, memo hit, shed, protocol error): its whole life is
     *  accept -> encode, so the span never rides a Job. */
    void recordInline(SpanVerdict verdict, const std::string &id,
                      const std::string &key, const std::string &outcome,
                      size_t bytes, int64_t acceptNs)
    {
        if (!obsOn)
            return;
        RequestSpan span;
        span.requestId = id.substr(0, kSpanKeyPrefixBytes);
        span.keyPrefix = key.substr(0, kSpanKeyPrefixBytes);
        span.verdict = verdict;
        span.tAcceptNs = acceptNs;
        span.tAdmitNs = acceptNs;
        completeSpan(span, outcome, bytes);
    }

    void handleFrame(uint64_t sessionId, Session &sess,
                     std::string_view payload)
    {
        const int64_t acceptNs = obsOn ? nowNs() : 0;
        obs::JsonValue v;
        if (!obs::tryParseJson(payload, v)) {
            const size_t n =
                sendError(sess, "", "malformed JSON payload");
            recordInline(SpanVerdict::ProtocolError, "", "", "error", n,
                         acceptNs);
            return;
        }
        EstimateRequest req;
        std::string perr;
        if (!parseRequest(v, req, perr)) {
            const size_t n = sendError(sess, req.id, perr);
            recordInline(SpanVerdict::ProtocolError, req.id, "", "error",
                         n, acceptNs);
            return;
        }
        if (req.type == "ping") {
            std::string &pong = sess.scratch;
            pong.assign("{\"status\":\"ok\"");
            if (!req.id.empty())
                pong += ",\"id\":\"" + obs::jsonEscape(req.id) + "\"";
            pong += ",\"pong\":true}";
            sendPayload(sess, pong);
            return;
        }
        if (req.type == "stats") {
            sendPayload(sess, statsPayload(req.statsScope));
            return;
        }

        // Idempotent replay: a client retrying after a lost response
        // gets the recorded answer, no recompute.
        if (!req.id.empty()) {
            EstimateResponse replay;
            if (idemLookup(req.id, replay)) {
                replay.replayed = true;
                st.replayed.add(1);
                const size_t n = sendResponse(sess, replay);
                recordInline(SpanVerdict::Replayed, req.id, "",
                             replay.status, n, acceptNs);
                return;
            }
        }

        const std::string contentKey = requestContentKey(req);
        EstimateResponse memo;
        if (estimator.memoLookup(contentKey, memo)) {
            // Served from the daemon's memo, not freshly computed
            // (exact for these deterministic models) — this is also the
            // cached-fallback tier: a memoized answer is never shed.
            memo.id = req.id;
            memo.degraded = "cached";
            memo.replayed = false;
            st.memoHits.add(1);
            const size_t n = sendResponse(sess, memo);
            recordInline(SpanVerdict::MemoHit, req.id, contentKey,
                         memo.status, n, acceptNs);
            return;
        }

        // L2: the cross-process shared memo. A hit is promoted into L1
        // (canonical form, so later L1 serves look identical) and
        // answered without touching the queue or the simulator; a
        // fresh negative entry replays the recorded failure.
        if (estimator.sharedEnabled()) {
            EstimateResponse fromL2;
            switch (estimator.sharedLookup(contentKey, fromL2)) {
              case Estimator::SharedMemo::Hit: {
                estimator.memoStoreLocal(contentKey, fromL2);
                fromL2.id = req.id;
                fromL2.degraded = "cached";
                st.sharedHits.add(1);
                obs::metrics().counter("service.shared_memo_hits").add(1);
                const size_t n = sendResponse(sess, fromL2);
                recordInline(SpanVerdict::SharedHit, req.id, contentKey,
                             fromL2.status, n, acceptNs);
                return;
              }
              case Estimator::SharedMemo::NegativeHit: {
                fromL2.id = req.id;
                st.sharedNegHits.add(1);
                obs::metrics()
                    .counter("service.shared_memo_negative_hits")
                    .add(1);
                const size_t n = sendResponse(sess, fromL2);
                recordInline(SpanVerdict::SharedNegativeHit, req.id,
                             contentKey, fromL2.status, n, acceptNs);
                return;
              }
              case Estimator::SharedMemo::Miss:
                break;
            }
        }

        const Clock::time_point arrival = Clock::now();
        const double deadlineMs = req.deadlineMs > 0
                                      ? req.deadlineMs
                                      : opts.defaultDeadlineMs;
        const Clock::time_point deadline =
            arrival + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              deadlineMs));

        // Singleflight: an identical request already computing (or
        // queued) gets this one attached as a follower — no queue
        // slot, no second simulation; the one result answers all
        // subscribers. A Degrade-admitted leader is skipped: its
        // answer is reduced-fidelity, which followers did not ask for.
        if (opts.coalesce) {
            auto kit = flightTagByKey.find(contentKey);
            auto fit = kit != flightTagByKey.end()
                           ? flights.find(kit->second)
                           : flights.end();
            if (fit != flights.end() && !fit->second.degrade) {
                Flight &flight = fit->second;
                std::shared_ptr<RequestSpan> fspan;
                if (obsOn) {
                    // The follower's own span: accept -> attach; pop /
                    // sim stamps stay 0 (the leader's span owns the
                    // computation), encode is stamped at fan-out.
                    fspan = std::make_shared<RequestSpan>();
                    fspan->leaderTag = flight.tag;
                    fspan->requestId =
                        req.id.substr(0, kSpanKeyPrefixBytes);
                    fspan->keyPrefix =
                        contentKey.substr(0, kSpanKeyPrefixBytes);
                    fspan->verdict = SpanVerdict::Coalesced;
                    fspan->tAcceptNs = acceptNs;
                    fspan->tAdmitNs = nowNs();
                }
                flight.subs.push_back(
                    {sessionId, req.id, deadline, std::move(fspan)});
                // Extend the running job's effective deadline to the
                // latest subscriber's — the watchdog must not cancel
                // the leader while any subscriber could still be
                // answered in time. Reactor is the only writer.
                if (toNs(deadline) > flight.deadlineNs->load(
                                         std::memory_order_relaxed))
                    flight.deadlineNs->store(toNs(deadline),
                                             std::memory_order_release);
                sess.inflight += 1;
                st.coalesced.add(1);
                obs::metrics().counter("service.coalesced").add(1);
                return;
            }
        }

        if (stopping.load(std::memory_order_relaxed)) {
            const size_t n = sendShed(sess, req.id);
            recordInline(SpanVerdict::Shed, req.id, contentKey, "shed",
                         n, acceptNs);
            return;
        }
        Admission admission = queue.classify();
        if (admission == Admission::Shed) {
            const size_t n = sendShed(sess, req.id);
            recordInline(SpanVerdict::Shed, req.id, contentKey, "shed",
                         n, acceptNs);
            return;
        }

        Job job;
        job.tag = nextTag.fetch_add(1, std::memory_order_relaxed);
        job.sessionId = sessionId;
        job.req = std::move(req);
        job.contentKey = contentKey;
        job.arrival = arrival;
        job.deadlineNs =
            std::make_shared<std::atomic<int64_t>>(toNs(deadline));
        job.cancel = std::make_shared<std::atomic<bool>>(false);
        job.degrade = admission == Admission::Degrade;
        if (obsOn) {
            job.span = std::make_shared<RequestSpan>();
            job.span->tag = job.tag;
            job.span->requestId =
                job.req.id.substr(0, kSpanKeyPrefixBytes);
            job.span->keyPrefix =
                contentKey.substr(0, kSpanKeyPrefixBytes);
            job.span->verdict = job.degrade ? SpanVerdict::Degrade
                                            : SpanVerdict::Accept;
            job.span->tAcceptNs = acceptNs;
            job.span->tAdmitNs = nowNs();
        }

        registerInflight(job);
        const uint64_t tag = job.tag;
        Flight flight;
        flight.tag = tag;
        flight.key = contentKey;
        flight.deadlineNs = job.deadlineNs;
        flight.cancel = job.cancel;
        flight.degrade = job.degrade;
        flight.subs.push_back({sessionId, job.req.id, deadline, nullptr});
        if (!queue.push(std::move(job))) {
            unregisterInflight(tag);
            const size_t n = sendShed(sess, req.id);
            recordInline(SpanVerdict::Shed, req.id, contentKey, "shed",
                         n, acceptNs);
            return;
        }
        flights.emplace(tag, std::move(flight));
        flightTagByKey[contentKey] = tag;
        inflightCount.fetch_add(1, std::memory_order_acq_rel);
        sess.inflight += 1;
        st.admitted.add(1);
        if (admission == Admission::Degrade)
            st.degraded.add(1);
        obs::metrics().counter("service.admitted").add(1);
    }

    /**
     * Drop a closing session from every flight it subscribes to. The
     * last subscriber leaving cancels the computation (nobody is left
     * to answer — exactly the PR 8 disconnect-cancels-orphan story);
     * otherwise the flight keeps running and the shared effective
     * deadline contracts to the latest *remaining* subscriber's, so a
     * short-deadline leader that hung up cannot keep a long-deadline
     * follower's job alive past its need — nor cancel it early.
     */
    void detachSessionFromFlights(uint64_t sessionId)
    {
        for (auto &[tag, flight] : flights) {
            const size_t before = flight.subs.size();
            if (before == 0)
                continue; // already orphaned; completion will clean up
            if (flight.subs.front().sessionId == sessionId)
                flight.leaderDetached = true;
            std::erase_if(flight.subs, [&](const FlightSub &sub) {
                return sub.sessionId == sessionId;
            });
            if (flight.subs.size() == before)
                continue;
            if (flight.subs.empty()) {
                flight.cancel->store(true, std::memory_order_relaxed);
                st.coalesceCancelled.add(1);
            } else {
                Clock::time_point latest = Clock::time_point::min();
                for (const FlightSub &sub : flight.subs)
                    latest = std::max(latest, sub.deadline);
                flight.deadlineNs->store(toNs(latest),
                                         std::memory_order_release);
            }
        }
    }

    /** Fan one finished computation out to every subscriber. */
    void deliverCompletion(Completion &c)
    {
        auto fit = flights.find(c.tag);
        if (fit == flights.end()) {
            // No flight (cannot normally happen — every queued job has
            // one): deliver to the originating session directly.
            auto it = sessions.find(c.sessionId);
            if (it == sessions.end()) {
                if (c.span)
                    completeSpan(*c.span, c.resp.status, 0);
                return;
            }
            it->second.inflight -= 1;
            const size_t n = sendResponse(it->second, c.resp);
            if (c.span)
                completeSpan(*c.span, c.resp.status, n);
            return;
        }
        Flight flight = std::move(fit->second);
        flights.erase(fit);
        // Release the attach slot only if this flight still holds it —
        // a later same-key admission may have taken it over.
        auto kit = flightTagByKey.find(flight.key);
        if (kit != flightTagByKey.end() && kit->second == c.tag)
            flightTagByKey.erase(kit);

        const Clock::time_point now = Clock::now();
        // The computation's span (c.span) stands in for the leader at
        // index 0; followers carry their own. If the leader hung up,
        // the computation span still completes — after the loop, with
        // zero reply bytes — so the recorder never silently drops a
        // request that consumed a queue slot.
        bool leaderRecorded = false;
        for (size_t i = 0; i < flight.subs.size(); ++i) {
            const FlightSub &sub = flight.subs[i];
            RequestSpan *span = sub.span.get();
            if (i == 0 && !flight.leaderDetached) {
                span = c.span.get();
                leaderRecorded = c.span != nullptr;
            }
            auto it = sessions.find(sub.sessionId);
            if (it == sessions.end()) {
                // Client vanished mid-request.
                if (span)
                    completeSpan(*span, c.resp.status, 0);
                continue;
            }
            Session &sess = it->second;
            sess.inflight -= 1;
            // Every subscriber — the leader included — gets the reply
            // under its own request id and its own deadline verdict.
            // The leader cannot be special-cased by position: if it
            // hung up, a follower now sits at index 0; and a follower
            // with a later deadline may have extended the shared
            // effective deadline past the leader's own, so the
            // estimator's end-of-run check no longer vouches for it.
            EstimateResponse resp = c.resp;
            resp.id = sub.requestId;
            if (resp.status == "ok" && now > sub.deadline) {
                // The shared computation finished in time for some
                // subscriber but not for this one's own deadline —
                // per-subscriber semantics must match an uncoalesced
                // run.
                EstimateResponse late;
                late.status = "deadline";
                late.id = sub.requestId;
                st.deadline.add(1);
                obs::metrics().counter("service.deadline").add(1);
                const size_t n = sendResponse(sess, late);
                if (span)
                    completeSpan(*span, late.status, n);
                continue;
            }
            if (resp.status == "ok") {
                if (!resp.id.empty())
                    idemStore(resp.id, resp);
                // finishJob's served count stands in for the leader;
                // followers (or everyone, once the leader hung up)
                // count here.
                if (i > 0 || flight.leaderDetached)
                    st.served.add(1);
            }
            const size_t n = sendResponse(sess, resp);
            if (span)
                completeSpan(*span, resp.status, n);
        }
        if (c.span && !leaderRecorded)
            completeSpan(*c.span, c.resp.status, 0);
    }

    void reactorLoop()
    {
        uint64_t nextSession = 1;
        std::vector<pollfd> pfds;
        std::vector<uint64_t> pfdSession;

        auto closeSession = [&](uint64_t id) {
            auto it = sessions.find(id);
            if (it == sessions.end())
                return;
            detachSessionFromFlights(id);
            ::close(it->second.fd);
            sessions.erase(it);
        };

        while (true) {
            pfds.clear();
            pfdSession.clear();
            pfds.push_back({wakeRead, POLLIN, 0});
            pfdSession.push_back(0);
            const bool accepting =
                listenFd >= 0 && !stopping.load(std::memory_order_relaxed);
            if (accepting) {
                pfds.push_back({listenFd, POLLIN, 0});
                pfdSession.push_back(0);
            }
            for (auto &[id, sess] : sessions) {
                short events = 0;
                if (!stopping.load(std::memory_order_relaxed) &&
                    !sess.wantClose)
                    events |= POLLIN;
                if (!sess.out.empty())
                    events |= POLLOUT;
                pfds.push_back({sess.fd, events, 0});
                pfdSession.push_back(id);
            }

            ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);

            // Wake pipe: 'S' begins the drain, 'U' asks for a flight-
            // recorder dump (SIGUSR1), 'C' just wakes us for the
            // completion sweep below.
            if (pfds[0].revents & POLLIN) {
                char buf[256];
                ssize_t n;
                bool sawStop = false;
                bool sawDump = false;
                while ((n = ::read(wakeRead, buf, sizeof buf)) > 0)
                    for (ssize_t i = 0; i < n; ++i) {
                        sawStop |= buf[i] == 'S';
                        sawDump |= buf[i] == 'U';
                    }
                if (sawDump)
                    writeFlightDump();
                if (sawStop &&
                    !stopping.exchange(true, std::memory_order_acq_rel)) {
                    AW_DEBUGF("service", "drain started (%zu sessions, "
                                         "%d in flight)",
                              sessions.size(),
                              inflightCount.load(
                                  std::memory_order_relaxed));
                    queue.close();
                    drainDeadlineNs.store(
                        (Clock::now() +
                         std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 opts.drainTimeoutMs)))
                            .time_since_epoch()
                            .count(),
                        std::memory_order_release);
                }
            }

            // Completions -> singleflight fan-out -> session
            // out-buffers.
            {
                std::vector<Completion> done;
                {
                    std::lock_guard<std::mutex> lock(completionsMu);
                    done.swap(completions);
                }
                for (Completion &c : done)
                    deliverCompletion(c);
            }

            // New connections.
            if (accepting) {
                for (size_t i = 0; i < pfds.size(); ++i) {
                    if (pfds[i].fd != listenFd || !(pfds[i].revents & POLLIN))
                        continue;
                    while (true) {
                        int fd = ::accept(listenFd, nullptr, nullptr);
                        if (fd < 0)
                            break;
                        if (!setNonBlocking(fd)) {
                            ::close(fd);
                            continue;
                        }
                        if (!setNoDelay(fd) && !noDelayWarned) {
                            noDelayWarned = true;
                            warn("awd: TCP_NODELAY failed on a session "
                                 "socket (%s); its replies may wait for "
                                 "the client's next request",
                                 std::strerror(errno));
                        }
                        Session sess;
                        sess.id = nextSession;
                        sess.fd = fd;
                        sess.lastActivity = Clock::now();
                        sessions.emplace(nextSession++, std::move(sess));
                        st.sessions.add(1);
                    }
                    break;
                }
            }

            // Session I/O.
            std::vector<uint64_t> toClose;
            for (size_t i = 0; i < pfds.size(); ++i) {
                const uint64_t id = pfdSession[i];
                if (id == 0)
                    continue;
                auto it = sessions.find(id);
                if (it == sessions.end())
                    continue;
                Session &sess = it->second;
                if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
                    toClose.push_back(id);
                    continue;
                }
                if (pfds[i].revents & POLLIN) {
                    char buf[16384];
                    ssize_t n;
                    bool peerClosed = false;
                    while ((n = ::recv(sess.fd, buf, sizeof buf, 0)) > 0) {
                        sess.dec.feed(buf, static_cast<size_t>(n));
                        sess.lastActivity = Clock::now();
                    }
                    if (n == 0)
                        peerClosed = true;
                    // Frames are handled as borrowed views into the
                    // decoder's buffer — valid until the next poll,
                    // which is after handleFrame returns.
                    std::string_view frame;
                    std::string derr;
                    FrameDecoder::Status st;
                    while ((st = sess.dec.poll(frame, derr)) ==
                           FrameDecoder::Status::Frame)
                        handleFrame(id, sess, frame);
                    if (st == FrameDecoder::Status::Error) {
                        // Framing is unrecoverable: answer once, flush,
                        // close.
                        sendError(sess, "", derr);
                        sess.wantClose = true;
                    }
                    if (peerClosed) {
                        if (sess.out.empty() && sess.inflight == 0) {
                            toClose.push_back(id);
                            continue;
                        }
                        sess.wantClose = true;
                    }
                }
                if (!sess.out.empty()) {
                    ssize_t n = ::send(sess.fd, sess.out.data(),
                                       sess.out.size(), MSG_NOSIGNAL);
                    if (n > 0) {
                        sess.out.erase(0, static_cast<size_t>(n));
                        sess.lastActivity = Clock::now();
                    } else if (n < 0 && errno != EAGAIN &&
                               errno != EWOULDBLOCK) {
                        toClose.push_back(id);
                        continue;
                    }
                }
                if (sess.out.size() > kMaxSessionOutBytes) {
                    // The peer is not reading: drop it rather than
                    // buffering output without bound.
                    obs::metrics()
                        .counter("service.out_overflow_dropped")
                        .add(1);
                    toClose.push_back(id);
                    continue;
                }
                if (sess.wantClose && sess.out.empty() &&
                    sess.inflight == 0)
                    toClose.push_back(id);
            }
            for (uint64_t id : toClose)
                closeSession(id);

            // Slow-loris / idle reap: a session that has made no byte
            // progress in either direction within the idle window is
            // dropped — including one sitting on unflushed output it
            // never reads (pending output must not exempt it, or a
            // slow-reader pins its buffers forever).
            {
                const Clock::time_point now = Clock::now();
                const auto idle =
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            opts.idleTimeoutMs));
                std::vector<uint64_t> idleOut;
                for (auto &[id, sess] : sessions)
                    if (sess.inflight == 0 &&
                        now - sess.lastActivity > idle)
                        idleOut.push_back(id);
                for (uint64_t id : idleOut) {
                    AW_DEBUGF("service", "reaping idle session %llu",
                              static_cast<unsigned long long>(id));
                    obs::metrics().counter("service.idle_reaped").add(1);
                    closeSession(id);
                }
            }

            // Reactor-owned state exported as gauges once per loop
            // iteration (<= 50 ms stale for an off-thread statsJson()
            // reader; the stats request itself is served on-thread).
            {
                size_t outBytes = 0;
                for (auto &[id, sess] : sessions)
                    outBytes += sess.out.size();
                st.sessionsOpen.set(static_cast<double>(sessions.size()));
                st.flightsOpen.set(static_cast<double>(flights.size()));
                st.outBufferBytes.set(static_cast<double>(outBytes));
            }

            if (stopping.load(std::memory_order_relaxed)) {
                const bool drained =
                    inflightCount.load(std::memory_order_acquire) == 0 &&
                    queue.depth() == 0;
                bool flushed = true;
                for (auto &[id, sess] : sessions)
                    if (!sess.out.empty())
                        flushed = false;
                // The forced arm must not wait for flushed: a client
                // that never reads its responses keeps its out-buffer
                // non-empty forever and would hang the drain past its
                // own timeout.
                if ((drained && flushed) ||
                    forced.load(std::memory_order_acquire))
                    break;
            }
        }

        for (auto &[id, sess] : sessions)
            ::close(sess.fd);
        sessions.clear();
        flights.clear();
        flightTagByKey.clear();
        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
        // Span trace export happens at drain, once, when every span
        // has completed — emitting is cheap per-request, serializing
        // the whole timeline is not.
        if (!opts.tracePath.empty()) {
            writeFileAtomic(opts.tracePath,
                            obs::Profiler::instance().chromeTraceJson());
            inform("awd: wrote request-span trace to %s",
                   opts.tracePath.c_str());
        }
    }

    /** Reactor-side half of requestFlightDump() (the 'U' wake byte). */
    void writeFlightDump()
    {
        if (!recorder) {
            warn("awd: flight dump requested but the recorder is off "
                 "(set AW_SERVICE_FLIGHT_N)");
            return;
        }
        writeFileAtomic(opts.flightDumpPath, recorder->dumpJson() + "\n");
        inform("awd: wrote flight recorder (%llu recorded, capacity "
               "%zu) to %s",
               static_cast<unsigned long long>(recorder->recorded()),
               recorder->capacity(), opts.flightDumpPath.c_str());
    }
};

AwdServer::AwdServer(ServerOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts)))
{}

AwdServer::~AwdServer()
{
    if (impl_->running.load(std::memory_order_acquire)) {
        requestStop();
        wait();
    }
    if (impl_->wakeRead >= 0)
        ::close(impl_->wakeRead);
    if (impl_->wakeWrite >= 0)
        ::close(impl_->wakeWrite);
    if (impl_->listenFd >= 0)
        ::close(impl_->listenFd);
}

bool
AwdServer::start(std::string &error)
{
    Impl &im = *impl_;
    AW_ASSERT(!im.running.load());

    int pipeFds[2];
    if (::pipe(pipeFds) != 0) {
        error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    im.wakeRead = pipeFds[0];
    im.wakeWrite = pipeFds[1];
    setNonBlocking(im.wakeRead);
    setNonBlocking(im.wakeWrite);

    im.listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (im.listenFd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(im.listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(im.opts.port));
    if (::bind(im.listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0) {
        error = std::string("bind: ") + std::strerror(errno);
        return false;
    }
    if (::listen(im.listenFd, 128) != 0) {
        error = std::string("listen: ") + std::strerror(errno);
        return false;
    }
    socklen_t len = sizeof addr;
    if (::getsockname(im.listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0) {
        error = std::string("getsockname: ") + std::strerror(errno);
        return false;
    }
    port_ = ntohs(addr.sin_port);
    setNonBlocking(im.listenFd);

    if (im.opts.warmup)
        im.estimator.warmup();

    im.running.store(true, std::memory_order_release);
    im.reactor = std::thread([this] { impl_->reactorLoop(); });
    for (int i = 0; i < im.opts.threads; ++i)
        im.workers.emplace_back([this] { impl_->workerLoop(); });
    im.watchdog = std::thread([this] { impl_->watchdogLoop(); });
    AW_DEBUGF("service", "awd listening on 127.0.0.1:%d (%d workers, "
                         "queue %d)",
              port_, im.opts.threads, im.opts.maxQueue);
    return true;
}

void
AwdServer::requestStop()
{
    if (!impl_->running.load(std::memory_order_acquire))
        return;
    impl_->wake('S');
}

void
AwdServer::requestFlightDump()
{
    if (!impl_->running.load(std::memory_order_acquire))
        return;
    impl_->wake('U');
}

int
AwdServer::wait()
{
    Impl &im = *impl_;
    if (!im.running.load(std::memory_order_acquire))
        return 0;
    if (im.reactor.joinable())
        im.reactor.join();
    // The reactor only exits once the queue is closed and drained, so
    // the workers are already on their way out.
    for (std::thread &w : im.workers)
        if (w.joinable())
            w.join();
    im.workers.clear();
    im.watchdogStop.store(true, std::memory_order_release);
    if (im.watchdog.joinable())
        im.watchdog.join();
    im.running.store(false, std::memory_order_release);
    return im.forced.load(std::memory_order_acquire) ? 1 : 0;
}

std::string
AwdServer::statsJson() const
{
    return impl_->statsPayload("");
}

} // namespace aw::service
