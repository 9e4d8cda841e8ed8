/**
 * @file
 * awd — the fault-hardened power-estimation daemon.
 *
 * Architecture: one poll()-based reactor thread owns every socket (the
 * loopback listener plus all client sessions) and does all framing; a
 * pool of worker threads runs the estimation jobs; a watchdog thread
 * enforces per-request deadlines by flipping each job's cooperative
 * cancellation flag and polices stuck workers and the shutdown drain.
 * Workers hand finished responses back to the reactor through a
 * completion queue and a self-pipe, so socket state is never touched
 * off the reactor thread.
 *
 * Robustness properties (DESIGN.md §10):
 *  - Bounded everything: frame size, per-session input AND output
 *    buffers (a client that never reads its replies is dropped at the
 *    out-buffer cap), run queue, memo table, and the echo of client
 *    fields in error replies (truncated, so a multi-MiB id can never
 *    push a reply past the frame bound). Overload answers `shed` with
 *    `retry_after_ms` (structured backpressure) instead of stalling or
 *    OOMing.
 *  - Admission ladder: Accept -> Degrade (forced --sim-detail 1 above
 *    the soft watermark, flagged `reduced_fidelity`; never memoized,
 *    since the memo key encodes the requested fidelity) -> cached memo
 *    fallback (flagged `cached`) -> Shed.
 *  - Deadlines: every estimate carries one (client's or the server
 *    default); the watchdog propagates expiry into SimOptions::cancel,
 *    so a deadline can interrupt a simulation mid-flight.
 *  - Idempotency: a request `id` replays its recorded response
 *    (`replayed: true`) instead of recomputing — a client retrying
 *    after a lost response cannot double-spend compute.
 *  - Chaos tolerance: malformed frames get structured errors (then the
 *    connection closes — framing errors are unrecoverable), slow-loris
 *    sessions are idle-reaped, mid-request disconnects cancel the
 *    orphaned job.
 *  - Clean drain: requestStop() (async-signal-safe, callable from a
 *    SIGTERM handler) stops admission, finishes every admitted job,
 *    flushes every socket, and wait() returns 0; a drain that exceeds
 *    its timeout cancels the stragglers, force-closes sessions that
 *    still hold unflushed output (a peer that never reads cannot hang
 *    the drain), and returns 1.
 *  - Duplicate-work elimination (DESIGN.md §10): an estimate is a pure
 *    function of its content key, so work is saved only by not
 *    recomputing a key. Singleflight coalescing folds concurrent
 *    identical requests onto one running computation, the in-process
 *    memo answers repeats, and an optional shared memo directory lets
 *    a fleet of daemons converge to one cross-process result cache
 *    with torn-write detection and a negative-cache TTL. Each worker
 *    pops and runs one job at a time.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/estimator.hpp"
#include "service/request_queue.hpp"

namespace aw::service {

/** Daemon configuration (defaults match the README knob table). */
struct ServerOptions
{
    int port = 0;                   ///< TCP port on 127.0.0.1; 0 = ephemeral
    int threads = 2;                ///< estimation worker threads
    int maxQueue = 128;             ///< hard run-queue bound (shed beyond)
    double defaultDeadlineMs = 2000;///< per-request default deadline
    double idleTimeoutMs = 10000;   ///< slow-loris session reap
    double drainTimeoutMs = 10000;  ///< max graceful-drain time on stop
    std::vector<std::string> cards{"volta"}; ///< served card models
    bool warmup = true;             ///< pre-calibrate before serving
    /** Cross-process shared memo directory; empty disables the tier. */
    std::string sharedMemoDir;
    /** Singleflight coalescing of concurrent identical requests. Not
     *  an environment knob — it is semantically transparent and on by
     *  default; benches flip it off to measure the win. */
    bool coalesce = true;

    // --- observability knobs (DESIGN.md §10.11); all default off, and
    // --- with every one unset the daemon's behavior is bit-identical.
    /** Chrome-trace path request-lifecycle spans are exported to at
     *  drain; empty disables span trace export. */
    std::string tracePath;
    /** Slow-request log threshold in milliseconds; requests whose
     *  accept->encode time exceeds it are warn()-logged and counted.
     *  0 disables. */
    double slowMs = 0;
    /** Flight-recorder capacity (last-N completed request records);
     *  0 disables the recorder. */
    int flightN = 0;
    /** File the flight recorder dumps to on SIGUSR1 /
     *  requestFlightDump(). */
    std::string flightDumpPath = "awd_flight.json";

    /** Defaults overridden by AW_SERVICE_PORT / _THREADS / _MAX_QUEUE /
     *  _DEADLINE_MS / _CARDS / _IDLE_MS / _SHARED_MEMO_DIR / _TRACE /
     *  _SLOW_MS / _FLIGHT_N / _FLIGHT_DUMP (invalid values warn + keep
     *  the default). Any other AW_SERVICE_* variable that is set — a
     *  removed or mistyped knob — is named in one warning and ignored. */
    static ServerOptions fromEnvironment();

    friend bool operator==(const ServerOptions &,
                           const ServerOptions &) = default;
};

class AwdServer
{
  public:
    explicit AwdServer(ServerOptions opts);
    ~AwdServer();

    AwdServer(const AwdServer &) = delete;
    AwdServer &operator=(const AwdServer &) = delete;

    /** Bind, listen, calibrate (warmup), spawn threads. False with
     *  `error` set when the socket setup fails. */
    bool start(std::string &error);

    /** Bound port (the ephemeral one when options.port was 0). */
    int port() const { return port_; }

    /**
     * Begin a graceful drain. Async-signal-safe (one write() on a
     * pre-opened pipe) — install it directly in a SIGTERM handler.
     */
    void requestStop();

    /** Join everything. 0 = clean drain; 1 = drain timeout forced. */
    int wait();

    /**
     * Ask the reactor to write the flight-recorder dump (the
     * aw.awd_flight.v1 artifact) to options.flightDumpPath. Async-
     * signal-safe like requestStop() — install it in a SIGUSR1
     * handler. A no-op (with a warning from the reactor) when the
     * recorder is off.
     */
    void requestFlightDump();

    /** Metrics-registry snapshot, already shaped as a full-scope stats
     *  response payload (counters, gauges, timers, estimator and
     *  flight-recorder state). */
    std::string statsJson() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    int port_ = 0;
};

} // namespace aw::service
