/**
 * @file
 * Wire protocol of the awd power-estimation daemon.
 *
 * Transport: length-prefixed JSON frames over a byte stream. Each frame
 * is a 4-byte big-endian payload length followed by exactly that many
 * bytes of UTF-8 JSON. The length is bounded (kMaxFrameBytes); anything
 * larger is a protocol error, so a hostile or corrupt peer can never
 * make the daemon buffer unbounded input. Decoding is incremental
 * (FrameDecoder) and *total*: any byte sequence either yields frames,
 * asks for more input, or produces a structured error — it can never
 * crash, hang, or allocate past the bound, which is what the fuzz tests
 * assert.
 *
 * Requests (`type`):
 *   estimate — evaluate a workload descriptor or an activity-trace blob
 *              against a calibrated card model; the response carries
 *              average power, energy, and the Figure-8 breakdown.
 *   ping     — liveness probe.
 *   stats    — live introspection. An optional `scope` selects the
 *              payload shape: "counters" (the flat counter table
 *              only), "full" / absent (counters plus timer
 *              histograms, estimator/memo state, and flight-recorder
 *              status), or "flight" (full plus the embedded
 *              aw.awd_flight.v1 flight-recorder dump). Any other
 *              scope is a range-checked protocol error.
 *
 * An estimate's `kernel` names its mix ops by opClassToken (the CLI's
 * --mix tokens; barriers are refused). Its `seed` is a JSON number up
 * to 2^53 and a decimal string above, so every 64-bit seed parses back
 * exactly.
 *
 * Responses (`status`): ok | shed | deadline | error. A shed response
 * carries `retry_after_ms` (structured backpressure); a degraded one
 * flags how (`degraded`: reduced_fidelity | cached); an idempotent
 * replay sets `replayed`.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "arch/activity.hpp"
#include "obs/json.hpp"
#include "trace/workload.hpp"

namespace aw::service {

/** Hard bound on one frame's JSON payload (4 MiB). */
constexpr size_t kMaxFrameBytes = 4u << 20;

/** Bytes of the big-endian length prefix. */
constexpr size_t kFrameHeaderBytes = 4;

/** Wrap a payload in a length-prefixed frame. fatal() past the bound
 *  (callers build payloads, not attackers). */
std::string encodeFrame(const std::string &payload);

/** encodeFrame into an existing buffer (appends header + payload) —
 *  the server's send path reuses one per-session buffer instead of
 *  allocating a fresh string per reply. */
void appendFrame(std::string &out, std::string_view payload);

/**
 * Incremental frame decoder. Feed bytes as they arrive; poll for
 * complete frames. After the first protocol error the decoder is dead:
 * it reports the same error forever and ignores further input (a
 * framing error leaves the stream position meaningless — the only safe
 * recovery is closing the connection).
 */
class FrameDecoder
{
  public:
    enum class Status : uint8_t
    {
        NeedMore, ///< no complete frame buffered yet
        Frame,    ///< a frame was produced
        Error     ///< the stream is corrupt; connection must close
    };

    /** Append raw bytes from the stream (no-op once dead). */
    void feed(const char *data, size_t len);

    /**
     * Extract the next complete frame into `frame`. Returns Frame when
     * one was produced, NeedMore when more bytes are required, Error
     * (with `error` set to a stable description) when the stream is
     * corrupt.
     */
    Status poll(std::string &frame, std::string &error);

    /**
     * Zero-copy poll: on Frame, `frame` is a borrowed view into the
     * decoder's buffer, valid only until the next feed()/poll() call.
     * The copying overload above wraps this one.
     */
    Status poll(std::string_view &frame, std::string &error);

    /** Unconsumed bytes currently buffered (bounded by header +
     *  kMaxFrameBytes). */
    size_t buffered() const { return buf_.size() - pos_; }

    bool dead() const { return dead_; }

  private:
    void discardConsumed();

    std::string buf_;
    size_t pos_ = 0; ///< consumed prefix of buf_ (borrowed frames live there)
    bool dead_ = false;
    std::string error_;
};

/** One decoded estimation request. */
struct EstimateRequest
{
    std::string type = "estimate"; ///< estimate | ping | stats
    std::string id;                ///< idempotency key; "" = none
    std::string card = "volta";    ///< volta | pascal | turing
    std::string variant = "sass";  ///< sass | ptx | hw | hybrid
    double freqGhz = 0;            ///< 0 = card default clock
    int detail = 0;                ///< sim detail groups; 0 = default
    double deadlineMs = 0;         ///< 0 = server default deadline
    /** stats only: "" (= full) | counters | full | flight. */
    std::string statsScope;

    bool hasKernel = false;
    KernelDescriptor kernel;

    bool hasActivity = false;  ///< client posted a pre-collected trace
    KernelActivity activity;
};

/** One estimation response (also the shed/deadline/error shapes). */
struct EstimateResponse
{
    std::string status = "ok"; ///< ok | shed | deadline | error
    std::string id;
    std::string degraded = "none"; ///< none | reduced_fidelity | cached
    bool replayed = false;         ///< idempotent replay of a past result
    double retryAfterMs = 0;       ///< shed only: structured backpressure

    double powerW = 0;
    double energyJ = 0;
    double elapsedSec = 0;
    double constW = 0;
    double staticW = 0;
    double idleSmW = 0;
    double dynamicW = 0;

    std::string errorCause;   ///< error only: stable failCauseName-style
    std::string errorMessage; ///< error only: human-readable
};

/** Request -> JSON payload (the client's encoder). */
std::string requestToJson(const EstimateRequest &req);

/** JSON -> request. False (with `error` set) on any malformed field;
 *  never fatal()s — the daemon must survive arbitrary payloads. */
bool parseRequest(const obs::JsonValue &v, EstimateRequest &out,
                  std::string &error);

/** Response -> JSON payload (the server's encoder). */
std::string responseToJson(const EstimateResponse &resp);

/** responseToJson appended into an existing buffer — the server builds
 *  replies into a reused per-session scratch string. */
void appendResponseJson(const EstimateResponse &resp, std::string &out);

/** JSON -> response (the client's decoder). False on malformed. */
bool parseResponse(const obs::JsonValue &v, EstimateResponse &out,
                   std::string &error);

/**
 * Content key of an estimate request: a stable hash over everything
 * that determines the answer (card, variant, clock, detail, kernel or
 * activity blob) and nothing that does not (id, deadline). Drives the
 * daemon's memo table and the cached-fallback degradation tier.
 */
std::string requestContentKey(const EstimateRequest &req);

} // namespace aw::service
