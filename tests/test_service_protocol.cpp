/**
 * @file
 * Tests for the awd wire protocol: frame codec round trips, the
 * incremental decoder's totality (fuzz: arbitrary bytes can never
 * crash, hang, or buffer past the bound — only frames, NeedMore, or a
 * structured error), dead-after-error semantics, the request/response
 * JSON codecs with adversarial payloads, and content-key stability.
 */
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "service/protocol.hpp"
#include "workloads/deepbench.hpp"
#include "workloads/validation.hpp"

using namespace aw;
using namespace aw::service;

namespace {

EstimateRequest
sampleRequest()
{
    EstimateRequest req;
    req.id = "req-1";
    req.card = "volta";
    req.variant = "sass";
    req.freqGhz = 1.132;
    req.detail = 2;
    req.deadlineMs = 1500;
    req.hasKernel = true;
    req.kernel = makeKernel("proto_k",
                            {{OpClass::FpFma, 0.5},
                             {OpClass::LdGlobal, 0.3},
                             {OpClass::IntAdd, 0.2}},
                            64, 4);
    req.kernel.memFootprintKb = 512.25;
    req.kernel.pointerChase = true;
    req.kernel.seed = 42;
    return req;
}

/** Every field of two kernel descriptors is identical. */
void
expectSameKernel(const KernelDescriptor &a, const KernelDescriptor &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.ctas, b.ctas) << a.name;
    EXPECT_EQ(a.warpsPerCta, b.warpsPerCta) << a.name;
    EXPECT_EQ(a.ctasPerSm, b.ctasPerSm) << a.name;
    EXPECT_EQ(a.smLimit, b.smLimit) << a.name;
    EXPECT_EQ(a.bodyInsts, b.bodyInsts) << a.name;
    EXPECT_EQ(a.iterations, b.iterations) << a.name;
    EXPECT_EQ(a.ilpDegree, b.ilpDegree) << a.name;
    EXPECT_EQ(a.activeLanes, b.activeLanes) << a.name;
    EXPECT_EQ(a.memFootprintKb, b.memFootprintKb) << a.name;
    EXPECT_EQ(a.pointerChase, b.pointerChase) << a.name;
    EXPECT_EQ(a.transactionsPerMemAccess, b.transactionsPerMemAccess)
        << a.name;
    EXPECT_EQ(a.seed, b.seed) << a.name;
    ASSERT_EQ(a.mix.size(), b.mix.size()) << a.name;
    for (size_t i = 0; i < a.mix.size(); ++i) {
        EXPECT_EQ(a.mix[i].op, b.mix[i].op) << a.name;
        EXPECT_EQ(a.mix[i].weight, b.mix[i].weight) << a.name;
    }
}

/** Encode, parse and decode a request; false (with `error`) when the
 *  parser refuses it. */
bool
roundTrip(const EstimateRequest &req, EstimateRequest &back,
          std::string &error)
{
    obs::JsonValue v;
    EXPECT_TRUE(obs::tryParseJson(requestToJson(req), v));
    return parseRequest(v, back, error);
}

/** Drain every complete frame; EXPECT the decoder never errors. */
std::vector<std::string>
drainFrames(FrameDecoder &dec)
{
    std::vector<std::string> frames;
    std::string frame, err;
    FrameDecoder::Status st;
    while ((st = dec.poll(frame, err)) == FrameDecoder::Status::Frame)
        frames.push_back(frame);
    EXPECT_NE(st, FrameDecoder::Status::Error) << err;
    return frames;
}

TEST(ServiceFrame, RoundTripSingle)
{
    const std::string payload = "{\"type\":\"ping\"}";
    std::string wire = encodeFrame(payload);
    ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());

    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    auto frames = drainFrames(dec);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], payload);
    EXPECT_EQ(dec.buffered(), 0u);
}

TEST(ServiceFrame, RoundTripManyByteAtATime)
{
    std::string wire;
    std::vector<std::string> sent;
    for (int i = 0; i < 7; ++i) {
        sent.push_back("payload-" + std::to_string(i) +
                       std::string(static_cast<size_t>(i) * 100, 'x'));
        wire += encodeFrame(sent.back());
    }
    FrameDecoder dec;
    std::vector<std::string> got;
    for (char c : wire) {
        dec.feed(&c, 1);
        for (auto &f : drainFrames(dec))
            got.push_back(f);
    }
    EXPECT_EQ(got, sent);
}

TEST(ServiceFrame, EmptyPayloadFrame)
{
    std::string wire = encodeFrame("");
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    auto frames = drainFrames(dec);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "");
}

TEST(ServiceFrame, TruncatedFrameNeedsMoreForever)
{
    std::string wire = encodeFrame("hello world");
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size() - 3);
    std::string frame, err;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(dec.poll(frame, err), FrameDecoder::Status::NeedMore);
    // The missing tail completes the frame.
    dec.feed(wire.data() + wire.size() - 3, 3);
    EXPECT_EQ(dec.poll(frame, err), FrameDecoder::Status::Frame);
    EXPECT_EQ(frame, "hello world");
}

TEST(ServiceFrame, OversizedLengthIsAStructuredErrorAndDecoderDies)
{
    // Length prefix far past kMaxFrameBytes.
    std::string wire = "\xff\xff\xff\xff";
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    std::string frame, err;
    EXPECT_EQ(dec.poll(frame, err), FrameDecoder::Status::Error);
    EXPECT_NE(err.find("exceeds"), std::string::npos);
    EXPECT_TRUE(dec.dead());

    // Dead after error: further input is ignored, the error persists.
    std::string good = encodeFrame("ok");
    dec.feed(good.data(), good.size());
    EXPECT_EQ(dec.poll(frame, err), FrameDecoder::Status::Error);
    EXPECT_EQ(dec.buffered(), 0u);
}

TEST(ServiceFrame, FuzzArbitraryBytesNeverCrashOrOverBuffer)
{
    // Deterministic fuzz: random byte soup fed in random chunk sizes.
    // The decoder must always terminate each poll loop, never buffer
    // more than header + bound, and only ever report Frame / NeedMore /
    // a sticky Error.
    Rng rng(0xF0552);
    for (int iter = 0; iter < 300; ++iter) {
        FrameDecoder dec;
        const size_t total =
            1 + static_cast<size_t>(rng.uniform() * 4096);
        std::string soup(total, '\0');
        for (char &c : soup)
            c = static_cast<char>(rng.uniform() * 256);
        // Bias some iterations toward plausible small lengths so the
        // fuzz also exercises the complete-frame path.
        if (iter % 3 == 0 && soup.size() >= 4) {
            soup[0] = 0;
            soup[1] = 0;
            soup[2] = 0;
        }
        size_t fed = 0;
        bool dead = false;
        while (fed < soup.size()) {
            const size_t chunk =
                std::min(soup.size() - fed,
                         1 + static_cast<size_t>(rng.uniform() * 97));
            dec.feed(soup.data() + fed, chunk);
            fed += chunk;
            std::string frame, err;
            for (int polls = 0; polls < 10000; ++polls) {
                FrameDecoder::Status st = dec.poll(frame, err);
                if (st == FrameDecoder::Status::Frame) {
                    EXPECT_LE(frame.size(), kMaxFrameBytes);
                    continue;
                }
                if (st == FrameDecoder::Status::Error) {
                    EXPECT_FALSE(err.empty());
                    dead = true;
                }
                break;
            }
            ASSERT_LE(dec.buffered(), kFrameHeaderBytes + kMaxFrameBytes);
            if (dead)
                break;
        }
    }
}

TEST(ServiceCodec, RequestRoundTrip)
{
    EstimateRequest req = sampleRequest();
    const std::string payload = requestToJson(req);

    obs::JsonValue v;
    ASSERT_TRUE(obs::tryParseJson(payload, v));
    EstimateRequest back;
    std::string err;
    ASSERT_TRUE(parseRequest(v, back, err)) << err;

    EXPECT_EQ(back.type, "estimate");
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.card, req.card);
    EXPECT_EQ(back.variant, req.variant);
    EXPECT_DOUBLE_EQ(back.freqGhz, req.freqGhz);
    EXPECT_EQ(back.detail, req.detail);
    EXPECT_DOUBLE_EQ(back.deadlineMs, req.deadlineMs);
    ASSERT_TRUE(back.hasKernel);
    EXPECT_EQ(back.kernel.name, req.kernel.name);
    EXPECT_EQ(back.kernel.ctas, req.kernel.ctas);
    EXPECT_EQ(back.kernel.warpsPerCta, req.kernel.warpsPerCta);
    EXPECT_DOUBLE_EQ(back.kernel.memFootprintKb,
                     req.kernel.memFootprintKb);
    EXPECT_TRUE(back.kernel.pointerChase);
    EXPECT_EQ(back.kernel.seed, req.kernel.seed);
    ASSERT_EQ(back.kernel.mix.size(), req.kernel.mix.size());
    for (size_t i = 0; i < back.kernel.mix.size(); ++i) {
        EXPECT_EQ(back.kernel.mix[i].op, req.kernel.mix[i].op);
        EXPECT_DOUBLE_EQ(back.kernel.mix[i].weight,
                         req.kernel.mix[i].weight);
    }

    // Every descriptor the library ships, a one-class mix of every op
    // class, and seeds either side of 2^53 travel intact: identical
    // fields, identical bytes when re-encoded, identical content key.
    // Barrier mixes are the exception the codec states: refused, with
    // a structured error.
    std::vector<KernelDescriptor> kernels;
    for (const ValidationKernel &vk : validationSuite())
        kernels.push_back(vk.kernel);
    for (const DeepBenchWorkload &w : deepbenchSuite())
        kernels.insert(kernels.end(), w.kernels.begin(), w.kernels.end());
    for (size_t i = 0; i < kNumOpClasses; ++i) {
        kernels.push_back(req.kernel);
        kernels.back().mix = {{static_cast<OpClass>(i), 1.0}};
    }
    for (uint64_t seed : {uint64_t{1} << 53, (uint64_t{1} << 53) + 1,
                          std::numeric_limits<uint64_t>::max()}) {
        kernels.push_back(req.kernel);
        kernels.back().seed = seed;
    }
    int refused = 0;
    for (const KernelDescriptor &k : kernels) {
        EstimateRequest kreq;
        kreq.hasKernel = true;
        kreq.kernel = k;
        EstimateRequest kback;
        std::string kerr;
        if (k.mixFraction(OpClass::Bar) > 0) {
            EXPECT_FALSE(roundTrip(kreq, kback, kerr)) << k.name;
            EXPECT_NE(kerr.find("'bar'"), std::string::npos) << kerr;
            ++refused;
            continue;
        }
        ASSERT_TRUE(roundTrip(kreq, kback, kerr)) << k.name << ": " << kerr;
        expectSameKernel(kback.kernel, k);
        EXPECT_EQ(requestToJson(kback), requestToJson(kreq)) << k.name;
        EXPECT_EQ(requestContentKey(kback), requestContentKey(kreq))
            << k.name;
    }
    // walsh_K1, msort_K1, bprop_K1 and the bar-only mix.
    EXPECT_EQ(refused, 4);
}

TEST(ServiceCodec, RequestBytesAndContentKeysArePinned)
{
    // Spelled by the codec before op tokens and seed strings changed;
    // a request valid then must encode and key exactly as it did.
    EstimateRequest req = sampleRequest();
    EXPECT_EQ(requestToJson(req),
              "{\"type\":\"estimate\",\"id\":\"req-1\",\"card\":\"volta\","
              "\"variant\":\"sass\",\"freq_ghz\":1.132,\"detail\":2,"
              "\"deadline_ms\":1500,\"kernel\":{\"name\":\"proto_k\","
              "\"ctas\":64,\"warps_per_cta\":4,\"ctas_per_sm\":2,"
              "\"sm_limit\":0,\"body_insts\":64,\"iterations\":16,\"ilp\":4,"
              "\"active_lanes\":32,\"mem_footprint_kb\":512.25,"
              "\"pointer_chase\":true,\"txn_per_access\":1,\"seed\":42,"
              "\"mix\":[{\"op\":\"ffma\",\"w\":0.5},{\"op\":\"ldg\",\"w\":0.3},"
              "{\"op\":\"iadd\",\"w\":0.2}]}}");
    EXPECT_EQ(requestContentKey(req), "457373eef0809051");

    // The largest numeric seed; one more is a decimal string.
    req.kernel.seed = uint64_t{1} << 53;
    EXPECT_EQ(requestContentKey(req), "4e1cdfbca28ff32c");
    EXPECT_NE(requestToJson(req).find("\"seed\":9007199254740992,"),
              std::string::npos);
    req.kernel.seed += 1;
    EXPECT_NE(requestToJson(req).find("\"seed\":\"9007199254740993\","),
              std::string::npos);
}

TEST(ServiceCodec, ActivityBlobRoundTrip)
{
    EstimateRequest req;
    req.hasActivity = true;
    req.activity.kernelName = "blob";
    req.activity.totalCycles = 12345;
    req.activity.elapsedSec = 1e-5;
    ActivitySample s;
    s.cycles = 500;
    s.avgActiveSms = 80;
    s.intAddInsts = 3;
    req.activity.samples.push_back(s);

    obs::JsonValue v;
    ASSERT_TRUE(obs::tryParseJson(requestToJson(req), v));
    EstimateRequest back;
    std::string err;
    ASSERT_TRUE(parseRequest(v, back, err)) << err;
    ASSERT_TRUE(back.hasActivity);
    EXPECT_FALSE(back.hasKernel);
    ASSERT_EQ(back.activity.samples.size(), 1u);
    EXPECT_DOUBLE_EQ(back.activity.samples[0].cycles, 500);
    EXPECT_DOUBLE_EQ(back.activity.totalCycles, 12345);
}

TEST(ServiceCodec, AdversarialRequestsRejectedWithStructuredErrors)
{
    const char *bad[] = {
        "[1,2,3]",                               // not an object
        "{\"type\":\"nuke\"}",                   // unknown type
        "{\"type\":\"estimate\"}",               // neither kernel nor blob
        "{\"type\":\"estimate\",\"kernel\":{},"
        "\"activity\":{}}",                      // both
        "{\"type\":\"estimate\",\"kernel\":42}", // kernel not an object
        "{\"type\":\"estimate\",\"kernel\":{\"mix\":[]}}",
        "{\"type\":\"estimate\",\"kernel\":"
        "{\"mix\":[{\"op\":\"warpdrive\",\"w\":1}]}}",
        "{\"type\":\"estimate\",\"kernel\":"
        "{\"mix\":[{\"op\":\"fadd\",\"w\":-1}]}}",
        "{\"type\":\"estimate\",\"ctas\":1e99,\"kernel\":"
        "{\"mix\":[{\"op\":\"fadd\",\"w\":1}],\"ctas\":1e99}}",
        "{\"type\":\"estimate\",\"detail\":-3,\"kernel\":"
        "{\"mix\":[{\"op\":\"fadd\",\"w\":1}]}}",
        "{\"type\":\"estimate\",\"deadline_ms\":\"soon\",\"kernel\":"
        "{\"mix\":[{\"op\":\"fadd\",\"w\":1}]}}",
    };
    for (const char *seed : {"\"\"", "\"-1\"", "\"+1\"", "\" 7\"", "\"7 \"",
                             "\"1e3\"", "\"0x10\"", "\"18446744073709551616\"",
                             "-1", "1e17", "true", "[7]"}) {
        const std::string payload =
            std::string("{\"type\":\"estimate\",\"kernel\":{\"seed\":") +
            seed + ",\"mix\":[{\"op\":\"fadd\",\"w\":1}]}}";
        obs::JsonValue v;
        ASSERT_TRUE(obs::tryParseJson(payload, v)) << payload;
        EstimateRequest req;
        std::string err;
        EXPECT_FALSE(parseRequest(v, req, err)) << payload;
        EXPECT_NE(err.find("seed"), std::string::npos) << payload;
    }
    for (const char *payload : bad) {
        obs::JsonValue v;
        ASSERT_TRUE(obs::tryParseJson(payload, v)) << payload;
        EstimateRequest req;
        std::string err;
        EXPECT_FALSE(parseRequest(v, req, err)) << payload;
        EXPECT_FALSE(err.empty()) << payload;
    }
}

TEST(ServiceCodec, StatsScopeRoundTripAndValidation)
{
    // Every legal scope survives the writer -> strict parser loop.
    for (const char *scope : {"", "counters", "full", "flight"}) {
        EstimateRequest req;
        req.type = "stats";
        req.statsScope = scope;
        obs::JsonValue v;
        ASSERT_TRUE(obs::tryParseJson(requestToJson(req), v)) << scope;
        EstimateRequest back;
        std::string err;
        ASSERT_TRUE(parseRequest(v, back, err)) << err;
        EXPECT_EQ(back.type, "stats");
        EXPECT_EQ(back.statsScope, scope);
    }
    // The default scope is not emitted at all — a stats request from a
    // new client stays byte-identical to a PR 8 one.
    EstimateRequest bare;
    bare.type = "stats";
    EXPECT_EQ(requestToJson(bare).find("scope"), std::string::npos);

    // Unknown or mistyped scopes are structured errors (and the field
    // is range-checked on every request type, not just stats).
    const char *bad[] = {
        "{\"type\":\"stats\",\"scope\":\"everything\"}",
        "{\"type\":\"stats\",\"scope\":\"FULL\"}",
        "{\"type\":\"stats\",\"scope\":42}",
        "{\"type\":\"stats\",\"scope\":[\"full\"]}",
        "{\"type\":\"ping\",\"scope\":\"bogus\"}",
    };
    for (const char *payload : bad) {
        obs::JsonValue v;
        ASSERT_TRUE(obs::tryParseJson(payload, v)) << payload;
        EstimateRequest req;
        std::string err;
        EXPECT_FALSE(parseRequest(v, req, err)) << payload;
        EXPECT_FALSE(err.empty()) << payload;
    }
}

TEST(ServiceCodec, StatsScopeFuzzParsesOrRejectsCleanly)
{
    // Deterministic fuzz over the scope field: random legal tokens,
    // near-miss strings, wrong kinds, garbage bytes. The parser must
    // either accept a legal scope verbatim or reject with a non-empty
    // error — never crash, never let an illegal scope through.
    Rng rng(0xF0553);
    const char *tokens[] = {"counters", "full",  "flight",
                            "flightt",  "count", ""};
    for (int iter = 0; iter < 2000; ++iter) {
        std::string payload = "{\"type\":\"stats\"";
        if (rng.next() & 1) {
            payload += ",\"scope\":";
            switch (rng.next() % 4) {
              case 0:
                payload += std::string("\"") + tokens[rng.next() % 6] +
                           "\"";
                break;
              case 1:
                payload += std::to_string(rng.next() % 1000);
                break;
              case 2:
                payload += "null";
                break;
              default: {
                payload += '"';
                const int len = static_cast<int>(rng.next() % 24);
                for (int i = 0; i < len; ++i)
                    payload += static_cast<char>(
                        'a' + static_cast<char>(rng.next() % 26));
                payload += '"';
                break;
              }
            }
        }
        if (rng.next() & 1)
            payload += ",\"id\":\"fz\"";
        payload += "}";
        obs::JsonValue v;
        ASSERT_TRUE(obs::tryParseJson(payload, v)) << payload;
        EstimateRequest req;
        std::string err;
        if (parseRequest(v, req, err)) {
            EXPECT_TRUE(req.statsScope.empty() ||
                        req.statsScope == "counters" ||
                        req.statsScope == "full" ||
                        req.statsScope == "flight")
                << payload;
        } else {
            EXPECT_FALSE(err.empty()) << payload;
        }
    }
}

TEST(ServiceCodec, ResponseRoundTripAllStatuses)
{
    EstimateResponse ok;
    ok.status = "ok";
    ok.id = "a";
    ok.degraded = "reduced_fidelity";
    ok.powerW = 123.5;
    ok.energyJ = 1.5e-4;
    ok.elapsedSec = 2e-6;
    ok.constW = 40;
    ok.staticW = 30;
    ok.idleSmW = 5;
    ok.dynamicW = 48.5;

    EstimateResponse shed;
    shed.status = "shed";
    shed.retryAfterMs = 250;

    EstimateResponse deadline;
    deadline.status = "deadline";
    deadline.id = "b";

    EstimateResponse error;
    error.status = "error";
    error.errorCause = "protocol_error";
    error.errorMessage = "bad \"quoted\" thing";

    for (const EstimateResponse &resp : {ok, shed, deadline, error}) {
        obs::JsonValue v;
        ASSERT_TRUE(obs::tryParseJson(responseToJson(resp), v));
        EstimateResponse back;
        std::string err;
        ASSERT_TRUE(parseResponse(v, back, err)) << err;
        EXPECT_EQ(back.status, resp.status);
        EXPECT_EQ(back.id, resp.id);
        EXPECT_EQ(back.degraded, resp.degraded);
        EXPECT_DOUBLE_EQ(back.retryAfterMs, resp.retryAfterMs);
        EXPECT_DOUBLE_EQ(back.powerW, resp.powerW);
        EXPECT_DOUBLE_EQ(back.constW, resp.constW);
        EXPECT_DOUBLE_EQ(back.dynamicW, resp.dynamicW);
        EXPECT_EQ(back.errorCause, resp.errorCause);
        EXPECT_EQ(back.errorMessage, resp.errorMessage);
    }
}

TEST(ServiceCodec, ContentKeyIgnoresIdAndDeadlineOnly)
{
    EstimateRequest a = sampleRequest();
    EstimateRequest b = a;
    b.id = "different-id";
    b.deadlineMs = 9999;
    EXPECT_EQ(requestContentKey(a), requestContentKey(b));

    EstimateRequest c = a;
    c.kernel.iterations += 1;
    EXPECT_NE(requestContentKey(a), requestContentKey(c));

    EstimateRequest d = a;
    d.freqGhz = 0.9;
    EXPECT_NE(requestContentKey(a), requestContentKey(d));

    EstimateRequest e = a;
    e.variant = "ptx";
    EXPECT_NE(requestContentKey(a), requestContentKey(e));
}

} // namespace
