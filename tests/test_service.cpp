/**
 * @file
 * End-to-end tests of the awd daemon: a real server on an ephemeral
 * loopback port, driven through the real retrying client. Covers the
 * issue's acceptance points — correct answers (vs the in-process
 * model), memo / idempotency semantics, deadlines, admission control
 * with structured shedding, dead-peer retry exhaustion, and a clean
 * SIGTERM-style drain.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>

#include "cache_packs.hpp"
#include "common/log.hpp"
#include "core/calibration.hpp"
#include "core/result_cache.hpp"
#include "obs/json.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service_obs.hpp"
#include "trace/workload.hpp"
#include "workloads/validation.hpp"

using namespace aw;

namespace {

/** A deterministic kernel with a unique name (so tests never collide in
 *  the daemon's memo table or the on-disk result cache). */
KernelDescriptor
testKernel(const std::string &name, int iterations = 4)
{
    KernelDescriptor k = makeKernel(
        name,
        {{OpClass::FpFma, 0.5}, {OpClass::LdGlobal, 0.3},
         {OpClass::IntAdd, 0.2}},
        /*ctas=*/80, /*warpsPerCta=*/4);
    k.iterations = iterations;
    k.bodyInsts = 32;
    k.seed = 7;
    return k;
}

/** Kernel names unique to this process run: deadline, coalescing and
 *  shared-memo tests must never be satisfied by a memo or on-disk
 *  cache entry left over from an earlier run. */
std::string
runUnique(const std::string &stem)
{
    static const std::string tag = std::to_string(
        std::chrono::steady_clock::now().time_since_epoch().count());
    return stem + "_" + tag;
}

service::EstimateRequest
estimateOf(const KernelDescriptor &k)
{
    service::EstimateRequest req;
    req.hasKernel = true;
    req.kernel = k;
    return req;
}

/** Minimal blocking raw-socket client for protocol-level tests the
 *  retrying AwdClient cannot express (frame pipelining, clients that
 *  never read their replies). */
struct RawConn
{
    int fd = -1;

    ~RawConn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool connectTo(int port, int rcvbufBytes = 0)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return false;
        if (rcvbufBytes > 0)
            ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbufBytes,
                         sizeof rcvbufBytes);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(port));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        return ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof addr) == 0;
    }

    /** Abortive close: RST instead of FIN. A clean close() is
     *  indistinguishable from a half-close (the peer may still be
     *  reading replies), so the server only treats the *error* path as
     *  "this subscriber is gone" — tests that need the disconnect
     *  noticed promptly must reset, as a crashing client would. */
    void abortConn()
    {
        if (fd < 0)
            return;
        struct linger lg = {1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
        ::close(fd);
        fd = -1;
    }

    bool sendAll(const std::string &bytes)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(fd, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** Blocking-read `count` response frames (raw JSON payloads). */
    bool readResponses(size_t count, std::vector<std::string> &out)
    {
        service::FrameDecoder dec;
        char buf[16384];
        std::string frame, err;
        while (out.size() < count) {
            service::FrameDecoder::Status st = dec.poll(frame, err);
            if (st == service::FrameDecoder::Status::Frame) {
                out.push_back(frame);
                continue;
            }
            if (st == service::FrameDecoder::Status::Error)
                return false;
            ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n <= 0)
                return false;
            dec.feed(buf, static_cast<size_t>(n));
        }
        return true;
    }
};

/** Fast-failing client for tests that expect errors. */
service::ClientOptions
quickClientOptions(int port, int maxAttempts = 1)
{
    service::ClientOptions opts;
    opts.port = port;
    opts.retry.maxAttempts = maxAttempts;
    opts.retry.initialBackoffSec = 0.01;
    opts.retry.maxBackoffSec = 0.05;
    opts.retry.backoffBudgetSec = 0.5;
    return opts;
}

} // namespace

/** One warmed shared daemon for the happy-path tests; the overload,
 *  drain and dead-port tests build their own. */
class ServiceE2E : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        service::ServerOptions opts;
        opts.port = 0;
        opts.threads = 2;
        opts.maxQueue = 64;
        opts.defaultDeadlineMs = 60e3; // tests set tight ones explicitly
        server_ = std::make_unique<service::AwdServer>(opts);
        std::string error;
        if (!server_->start(error))
            FAIL() << "server start: " << error;
    }

    static void TearDownTestSuite()
    {
        server_->requestStop();
        EXPECT_EQ(server_->wait(), 0) << "shared daemon drain was forced";
        server_.reset();
    }

    static service::AwdClient client()
    {
        service::ClientOptions opts;
        opts.port = server_->port();
        return service::AwdClient(opts);
    }

    static std::unique_ptr<service::AwdServer> server_;
};

std::unique_ptr<service::AwdServer> ServiceE2E::server_;

TEST_F(ServiceE2E, PingAndStats)
{
    service::AwdClient c = client();
    Result<service::EstimateResponse> pong = c.ping();
    ASSERT_TRUE(pong) << pong.error().message;
    EXPECT_EQ(pong->status, "ok");

    Result<std::string> stats = c.stats();
    ASSERT_TRUE(stats) << stats.error().message;
    EXPECT_NE(stats->find("\"queue_depth\""), std::string::npos);
    EXPECT_NE(stats->find("\"served\""), std::string::npos);
}

TEST_F(ServiceE2E, EstimateMatchesDirectModelEvaluation)
{
    const KernelDescriptor k = testKernel("svc_e2e_direct");
    service::AwdClient c = client();
    Result<service::EstimateResponse> r = c.estimate(estimateOf(k));
    ASSERT_TRUE(r) << r.error().message;
    EXPECT_EQ(r->status, "ok");
    EXPECT_EQ(r->degraded, "none");
    EXPECT_GT(r->powerW, 0);
    EXPECT_GT(r->energyJ, 0);

    // The daemon must agree with an in-process run of the same model
    // on the same activity (both sides share the on-disk result cache
    // and the deterministic calibration).
    AccelWattchCalibrator &cal = sharedVoltaCalibrator();
    const AccelWattchModel &model = cal.variant(Variant::SassSim).model;
    SimOptions opts;
    const KernelActivity act = runSassCached(cal.simulator(), k, opts);
    const double direct = model.evaluateKernel(act).totalW();
    EXPECT_NEAR(r->powerW, direct, 1e-6 * direct);
    EXPECT_NEAR(r->elapsedSec, act.elapsedSec, 1e-12);
    EXPECT_NEAR(r->energyJ, direct * act.elapsedSec,
                1e-6 * r->energyJ);
    // Breakdown adds up to the total.
    EXPECT_NEAR(r->constW + r->staticW + r->idleSmW + r->dynamicW,
                r->powerW, 1e-6 * r->powerW);
}

TEST_F(ServiceE2E, ActivityBlobSkipsSimulation)
{
    const KernelDescriptor k = testKernel("svc_e2e_blob");
    AccelWattchCalibrator &cal = sharedVoltaCalibrator();
    SimOptions opts;
    const KernelActivity act = runSassCached(cal.simulator(), k, opts);

    service::EstimateRequest req;
    req.hasActivity = true;
    req.activity = act;
    service::AwdClient c = client();
    Result<service::EstimateResponse> r = c.estimate(req);
    ASSERT_TRUE(r) << r.error().message;

    const AccelWattchModel &model = cal.variant(Variant::SassSim).model;
    const double direct = model.evaluateKernel(act).totalW();
    EXPECT_NEAR(r->powerW, direct, 1e-6 * direct);
}

TEST_F(ServiceE2E, RepeatRequestIsServedFromMemo)
{
    const service::EstimateRequest req =
        estimateOf(testKernel("svc_e2e_memo"));
    service::AwdClient c = client();
    Result<service::EstimateResponse> first = c.estimate(req);
    ASSERT_TRUE(first) << first.error().message;
    EXPECT_EQ(first->degraded, "none");

    Result<service::EstimateResponse> second = c.estimate(req);
    ASSERT_TRUE(second) << second.error().message;
    EXPECT_EQ(second->degraded, "cached");
    EXPECT_NEAR(second->powerW, first->powerW, 1e-12);
}

TEST_F(ServiceE2E, IdempotencyKeyReplaysTheRecordedResponse)
{
    service::EstimateRequest req =
        estimateOf(testKernel("svc_e2e_idem"));
    req.id = "svc-e2e-idem-1";
    service::AwdClient c = client();
    Result<service::EstimateResponse> first = c.estimate(req);
    ASSERT_TRUE(first) << first.error().message;
    EXPECT_FALSE(first->replayed);

    Result<service::EstimateResponse> second = c.estimate(req);
    ASSERT_TRUE(second) << second.error().message;
    EXPECT_TRUE(second->replayed);
    EXPECT_EQ(second->id, req.id);
    EXPECT_NEAR(second->powerW, first->powerW, 1e-12);
}

TEST_F(ServiceE2E, ImpossibleDeadlineIsAStructuredDeadlineFailure)
{
    // Unique heavy kernel: never memoized, never in the result cache.
    // Uncached it takes tens of milliseconds, so the 1 ms deadline
    // always expires before the answer exists; the watchdog cancels the
    // run at its next tick, so the test does not wait for it.
    service::EstimateRequest req = estimateOf(
        testKernel(runUnique("svc_e2e_deadline"), /*iterations=*/4096));
    req.deadlineMs = 1;
    service::AwdClient c(quickClientOptions(server_->port()));
    Result<service::EstimateResponse> r = c.estimate(req);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().cause, FailCause::ServiceDeadline);
}

TEST_F(ServiceE2E, UnknownCardIsAStructuredProtocolError)
{
    service::EstimateRequest req =
        estimateOf(testKernel("svc_e2e_badcard"));
    req.card = "fermi";
    service::AwdClient c(quickClientOptions(server_->port()));
    Result<service::EstimateResponse> r = c.estimate(req);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().cause, FailCause::ProtocolError);
    EXPECT_NE(r.error().message.find("unknown card"), std::string::npos);
}

TEST(ServiceCards, OpsOnAUnitTheCardLacksAreRefused)
{
    // Pascal has no tensor cores. A tensor kernel on it is refused,
    // naming the unit, instead of simulated into the cycle cap and
    // answered with seconds of runtime; the same kernel on Volta, and an
    // FP kernel on Pascal, are answered.
    service::ServerOptions opts;
    opts.cards = {"volta", "pascal"};
    opts.threads = 1;
    opts.warmup = false;
    opts.defaultDeadlineMs = 120e3;
    service::AwdServer server(opts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    service::AwdClient c(quickClientOptions(server.port()));

    KernelDescriptor tensor = testKernel(runUnique("svc_tensor_mix"));
    tensor.mix = {{OpClass::Tensor, 0.5}, {OpClass::LdShared, 0.5}};
    service::EstimateRequest req = estimateOf(tensor);
    req.card = "pascal";
    Result<service::EstimateResponse> refused = c.estimate(req);
    ASSERT_FALSE(refused);
    EXPECT_EQ(refused.error().cause, FailCause::ProtocolError);
    EXPECT_NE(refused.error().message.find("tensor unit"), std::string::npos)
        << refused.error().message;

    req.card = "volta";
    Result<service::EstimateResponse> volta = c.estimate(req);
    ASSERT_TRUE(volta) << volta.error().message;
    EXPECT_EQ(volta->status, "ok");
    EXPECT_LT(volta->elapsedSec, 0.01);

    service::EstimateRequest fp =
        estimateOf(testKernel(runUnique("svc_pascal_fp")));
    fp.card = "pascal";
    Result<service::EstimateResponse> pascal = c.estimate(fp);
    ASSERT_TRUE(pascal) << pascal.error().message;
    EXPECT_EQ(pascal->status, "ok");
    server.requestStop();
    EXPECT_EQ(server.wait(), 0);
}

TEST_F(ServiceE2E, OversizedIdIsRejectedWithoutKillingTheDaemon)
{
    // A legal sub-4MiB frame can carry a multi-MiB id. Validation
    // rejects it, but the error reply must truncate the echo — echoing
    // it raw would overflow the frame bound and (pre-fix) hit
    // encodeFrame's fatal(), letting one malformed request kill the
    // daemon.
    service::EstimateRequest req =
        estimateOf(testKernel("svc_e2e_bigid"));
    req.id = std::string(3u << 20, 'x');
    service::AwdClient c(quickClientOptions(server_->port()));
    Result<service::EstimateResponse> r = c.estimate(req);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().cause, FailCause::ProtocolError);
    EXPECT_NE(r.error().message.find("id longer"), std::string::npos);

    // The daemon survives to serve the next request.
    Result<service::EstimateResponse> pong = client().ping();
    ASSERT_TRUE(pong) << pong.error().message;
}

TEST_F(ServiceE2E, FullWidthSeedMatchesDirectSimulation)
{
    // makeKernel seeds every descriptor with hash64(name), far above
    // 2^53; the request carries it as a decimal string. The reply must
    // be exactly what an uncached simulation of the same descriptor
    // gives, so the daemon simulated the seed the client sent.
    const auto &suite = validationSuite();
    const auto it = std::find_if(
        suite.begin(), suite.end(), [](const ValidationKernel &vk) {
            return vk.kernel.seed > (uint64_t{1} << 53) &&
                   vk.kernel.mixFraction(OpClass::Bar) == 0;
        });
    ASSERT_NE(it, suite.end());
    const KernelDescriptor &k = it->kernel;
    EXPECT_NE(service::requestToJson(estimateOf(k))
                  .find("\"seed\":\"" + std::to_string(k.seed) + "\""),
              std::string::npos);

    service::AwdClient c = client();
    Result<service::EstimateResponse> r = c.estimate(estimateOf(k));
    ASSERT_TRUE(r) << k.name << ": " << r.error().message;
    ASSERT_EQ(r->status, "ok");

    AccelWattchCalibrator &cal = sharedVoltaCalibrator();
    const AccelWattchModel &model = cal.variant(Variant::SassSim).model;
    const KernelActivity act = cal.simulator().runSass(k, SimOptions{});
    EXPECT_EQ(r->powerW, model.evaluateKernel(act).totalW()) << k.name;
    EXPECT_EQ(r->elapsedSec, act.elapsedSec) << k.name;
}

TEST_F(ServiceE2E, ControlOpOnlyMixesAreSimulatedOrRefused)
{
    // Control-flow and issue-only classes alone make degenerate
    // kernels. Each must be simulated and answered, or refused with a
    // structured error (bar, see protocol.cpp) — never take the daemon
    // down or hang; the deadline turns a simulation that never ends
    // into a failed assertion.
    for (OpClass op : {OpClass::Branch, OpClass::Bar, OpClass::Mov,
                       OpClass::Nop, OpClass::Exit, OpClass::NanoSleep}) {
        KernelDescriptor k = testKernel(
            std::string("svc_e2e_only_") + opClassToken(op));
        k.mix = {{op, 1.0}};
        service::EstimateRequest req = estimateOf(k);
        req.deadlineMs = 30e3;
        service::AwdClient c(quickClientOptions(server_->port()));
        Result<service::EstimateResponse> r = c.estimate(req);
        if (op == OpClass::Bar) {
            ASSERT_FALSE(r);
            EXPECT_EQ(r.error().cause, FailCause::ProtocolError);
            continue;
        }
        ASSERT_TRUE(r) << opClassToken(op) << ": " << r.error().message;
        EXPECT_EQ(r->status, "ok") << opClassToken(op);
        EXPECT_GT(r->powerW, 0) << opClassToken(op);
    }
    Result<service::EstimateResponse> pong = client().ping();
    ASSERT_TRUE(pong) << pong.error().message;
}

TEST(ServiceClient, DeadPortExhaustsRetriesWithoutHanging)
{
    // Nothing listens on port 1 of the loopback; every attempt must
    // fail fast as ServiceUnavailable and the policy must give up with
    // RetriesExhausted after its 3 attempts.
    service::ClientOptions opts;
    opts.port = 1;
    opts.retry.maxAttempts = 3;
    opts.retry.initialBackoffSec = 0.005;
    opts.retry.maxBackoffSec = 0.01;
    opts.retry.backoffBudgetSec = 0.1;
    service::AwdClient c(opts);
    Result<service::EstimateResponse> r = c.ping();
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().cause, FailCause::RetriesExhausted);
}

TEST(ServiceOverload, HardLimitShedsWithRetryAfter)
{
    // One worker, queue of 2 (soft limit 1): a burst of slow unique
    // kernels must produce at least one structured shed, and sheds
    // must carry the retry-after hint in the client-visible message.
    // Each kernel simulates for tens of milliseconds uncached, so the
    // whole burst arrives while the first one runs; its names are
    // unique per run, so the on-disk result cache cannot answer it.
    service::ServerOptions sopts;
    sopts.threads = 1;
    sopts.maxQueue = 2;
    sopts.defaultDeadlineMs = 120e3;
    sopts.warmup = true; // calibration is disk-cached by the suite above
    service::AwdServer server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    constexpr int kBurst = 8;
    std::atomic<int> ok{0}, shed{0}, other{0};
    std::vector<std::thread> clients;
    clients.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i)
        clients.emplace_back([&, i] {
            service::ClientOptions copts =
                quickClientOptions(server.port(), /*maxAttempts=*/1);
            copts.ioTimeoutSec = 120; // queued behind slow unique sims
            service::AwdClient c(copts);
            service::EstimateRequest req = estimateOf(testKernel(
                runUnique("svc_overload_" + std::to_string(i)),
                /*iterations=*/4096));
            Result<service::EstimateResponse> r = c.estimate(req);
            if (r) {
                ++ok;
            } else if (r.error().message.find("retry_after_ms") !=
                       std::string::npos) {
                // maxAttempts=1 wraps the retryable shed as exhausted;
                // the structured retry-after hint must survive that.
                ++shed;
            } else {
                ADD_FAILURE() << "unexpected failure: "
                              << r.error().message;
                ++other;
            }
        });
    for (std::thread &t : clients)
        t.join();

    EXPECT_GE(shed.load(), 1) << "hard limit never shed";
    EXPECT_GE(ok.load(), 1) << "admission starved everything";
    EXPECT_EQ(other.load(), 0);
    EXPECT_EQ(ok.load() + shed.load(), kBurst);

    server.requestStop();
    EXPECT_EQ(server.wait(), 0);
}

TEST(ServiceOverload, DegradeAdmittedResultIsNotMemoized)
{
    // One worker, queue of 5 (soft limit 3): a single pipelined burst
    // lands the probe in the Degrade band whether or not the worker
    // already popped the head job — the probe classifies at depth 3 or
    // 4, both >= soft and < hard.
    service::ServerOptions sopts;
    sopts.threads = 1;
    sopts.maxQueue = 5;
    sopts.defaultDeadlineMs = 120e3;
    sopts.warmup = true;
    service::AwdServer server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    // The head job must still run while the burst is classified, on any
    // host and at any simulator speed: at detail 8 its kernel would
    // simulate eight SM groups to the cycle cap, for seconds, and its
    // own 100 ms deadline cancels it. It is unique per run so a warm
    // on-disk result cache can never answer it.
    const std::string runTag = std::to_string(
        std::chrono::steady_clock::now().time_since_epoch().count());
    const KernelDescriptor probe = testKernel("svc_degrade_probe");
    auto requestFrame = [](const std::string &id,
                           const KernelDescriptor &k, int detail,
                           double deadlineMs = 0) {
        service::EstimateRequest req = estimateOf(k);
        req.id = id;
        req.detail = detail;
        req.deadlineMs = deadlineMs;
        return service::encodeFrame(service::requestToJson(req));
    };
    std::string burst;
    burst += requestFrame("busy",
                          testKernel("svc_degrade_busy_" + runTag, 1 << 16),
                          /*detail=*/8, /*deadlineMs=*/100);
    burst += requestFrame("f1", testKernel("svc_degrade_f1"), 0);
    burst += requestFrame("f2", testKernel("svc_degrade_f2"), 0);
    burst += requestFrame("f3", testKernel("svc_degrade_f3"), 0);
    burst += requestFrame("probe", probe, /*detail=*/4);

    RawConn conn;
    ASSERT_TRUE(conn.connectTo(server.port()));
    ASSERT_TRUE(conn.sendAll(burst));
    std::vector<std::string> frames;
    ASSERT_TRUE(conn.readResponses(5, frames));

    std::string probeDegraded = "missing";
    for (const std::string &f : frames) {
        obs::JsonValue v;
        ASSERT_TRUE(obs::tryParseJson(f, v)) << f;
        service::EstimateResponse resp;
        std::string perr;
        ASSERT_TRUE(service::parseResponse(v, resp, perr)) << perr;
        if (resp.id == "busy") {
            EXPECT_EQ(resp.status, "deadline")
                << "the head job finished before its deadline";
            continue;
        }
        EXPECT_EQ(resp.status, "ok") << resp.errorMessage;
        if (resp.id == "probe")
            probeDegraded = resp.degraded;
    }
    ASSERT_EQ(probeDegraded, "reduced_fidelity")
        << "probe was not Degrade-admitted; queue choreography broke";

    // The reduced-fidelity answer ran at detail 1, not the detail-4
    // fidelity its content key encodes — it must not be memoized. A
    // fresh identical request (no id, so no idempotent replay) gets a
    // fresh full-fidelity run, not a relabeled 'cached' serve.
    service::ClientOptions copts = quickClientOptions(server.port());
    copts.ioTimeoutSec = 120;
    service::AwdClient c(copts);
    service::EstimateRequest again = estimateOf(probe);
    again.detail = 4;
    Result<service::EstimateResponse> r = c.estimate(again);
    ASSERT_TRUE(r) << r.error().message;
    EXPECT_FALSE(r->replayed);
    EXPECT_EQ(r->degraded, "none")
        << "reduced-fidelity result was served from the memo";

    server.requestStop();
    EXPECT_EQ(server.wait(), 0);
}

TEST(ServiceDrain, NeverReadingClientCannotHangTheForcedDrain)
{
    service::ServerOptions sopts;
    sopts.warmup = false;
    sopts.drainTimeoutMs = 300;
    sopts.idleTimeoutMs = 60e3; // keep the idle reaper out of the way
    service::AwdServer server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    // Pipeline thousands of stats requests and never read a byte of
    // the replies: once the kernel socket buffers fill, the session's
    // out-buffer stays non-empty across the whole drain. Pre-fix the
    // shutdown condition demanded empty out-buffers even in the forced
    // arm, so this hung wait() forever.
    RawConn conn;
    ASSERT_TRUE(conn.connectTo(server.port(), /*rcvbufBytes=*/4096));
    const std::string statsFrame =
        service::encodeFrame("{\"type\":\"stats\"}");
    std::string chunk;
    for (int i = 0; i < 1000; ++i)
        chunk += statsFrame;
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(conn.sendAll(chunk));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    const auto t0 = std::chrono::steady_clock::now();
    server.requestStop();
    const int rc = server.wait();
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_LT(sec, 5.0) << "drain did not honor its timeout";
    // Forced (1) when replies are still stuck in the out-buffer; clean
    // (0) only if the kernel buffers swallowed everything.
    EXPECT_TRUE(rc == 0 || rc == 1) << rc;
}

TEST(ServiceDrain, StopWithoutTrafficExitsCleanly)
{
    service::ServerOptions sopts;
    sopts.warmup = false; // ping-only: no calibration needed
    service::AwdServer server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_GT(server.port(), 0);

    service::AwdClient c(quickClientOptions(server.port(), 2));
    Result<service::EstimateResponse> pong = c.ping();
    ASSERT_TRUE(pong) << pong.error().message;

    server.requestStop();
    EXPECT_EQ(server.wait(), 0);

    // And the port is actually released: a fresh client can't connect.
    Result<service::EstimateResponse> dead = c.ping();
    EXPECT_FALSE(dead);
}

TEST(ServiceLatency, PipelinedHitsDoNotWaitForTheNextRequest)
{
    // One persistent connection carrying memo hits at a fixed spacing.
    // Past its first few dozen exchanges the client acknowledges a
    // reply only with its next request. Then a single reply sent while
    // the previous one is unacknowledged — here a miss finishing
    // between two hits — is enough, with Nagle's algorithm on the
    // daemon's socket, to hold every later reply until the next request
    // releases it: each hit then takes one spacing instead of
    // microseconds.
    using namespace std::chrono;
    constexpr auto kSpacing = milliseconds(10);
    constexpr int kWarmupHits = 30; // past the client's quick-ACK phase
    constexpr int kMeasuredHits = 40;
    constexpr int kMaxSlots = 600;

    service::ServerOptions opts;
    opts.port = 0;
    opts.threads = 2;
    opts.defaultDeadlineMs = 60e3;
    service::AwdServer server(opts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    RawConn conn;
    ASSERT_TRUE(conn.connectTo(server.port()));
    int one = 1;
    ASSERT_EQ(::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one,
                           sizeof one),
              0);
    timeval rcvTimeout{20, 0}; // a lost reply fails instead of hanging
    ::setsockopt(conn.fd, SOL_SOCKET, SO_RCVTIMEO, &rcvTimeout,
                 sizeof rcvTimeout);

    auto frameOf = [](service::EstimateRequest req, const std::string &id) {
        req.id = id;
        return service::encodeFrame(service::requestToJson(req));
    };
    const service::EstimateRequest hit =
        estimateOf(testKernel("svc_latency_hit"));
    std::vector<std::string> primed;
    ASSERT_TRUE(conn.sendAll(frameOf(hit, "prime")));
    ASSERT_TRUE(conn.readResponses(1, primed));

    // The trigger must really simulate, for several spacings (4096
    // iterations take tens of milliseconds uncached): a result-cache
    // entry from an earlier run would answer it at once.
    const std::string triggerName =
        "svc_latency_trigger_" + std::to_string(::getpid()) + "_" +
        std::to_string(steady_clock::now().time_since_epoch().count());
    const service::EstimateRequest trigger =
        estimateOf(testKernel(triggerName, /*iterations=*/4096));

    // Reply arrival times by request id ("h<slot>", "trigger").
    std::vector<steady_clock::time_point> sentAt(kMaxSlots);
    std::map<std::string, steady_clock::time_point> gotAt;
    steady_clock::time_point triggerSentAt;
    std::atomic<bool> triggerAnswered{false};
    std::atomic<bool> readerOk{true};
    std::thread reader([&] {
        service::FrameDecoder dec;
        char buf[16384];
        std::string frame, err;
        while (true) {
            const service::FrameDecoder::Status st = dec.poll(frame, err);
            if (st == service::FrameDecoder::Status::Error)
                break;
            if (st == service::FrameDecoder::Status::NeedMore) {
                const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
                if (n <= 0)
                    break;
                dec.feed(buf, static_cast<size_t>(n));
                continue;
            }
            const auto now = steady_clock::now();
            obs::JsonValue v;
            service::EstimateResponse resp;
            std::string perr;
            if (!obs::tryParseJson(frame, v) ||
                !service::parseResponse(v, resp, perr) ||
                resp.status != "ok")
                break;
            if (resp.id == "end")
                return;
            gotAt[resp.id] = now;
            if (resp.id == "trigger")
                triggerAnswered.store(true);
        }
        readerOk.store(false);
    });

    // Hits on a fixed grid; the trigger takes slot kWarmupHits. Only
    // hits sent after the trigger's reply arrived are measured, so a
    // slow simulation on a loaded host cannot hide the stall.
    std::vector<int> measured;
    bool sent = true;
    const auto start = steady_clock::now();
    for (int slot = 0; sent && slot < kMaxSlots &&
                       static_cast<int>(measured.size()) < kMeasuredHits;
         ++slot) {
        std::this_thread::sleep_until(start + slot * kSpacing);
        if (slot == kWarmupHits) {
            triggerSentAt = steady_clock::now();
            sent = conn.sendAll(frameOf(trigger, "trigger"));
            continue;
        }
        const bool afterTrigger = triggerAnswered.load();
        sentAt[static_cast<size_t>(slot)] = steady_clock::now();
        sent = conn.sendAll(frameOf(hit, "h" + std::to_string(slot)));
        if (afterTrigger)
            measured.push_back(slot);
    }
    service::EstimateRequest end;
    end.type = "ping";
    sent = sent && conn.sendAll(frameOf(end, "end"));
    if (!sent)
        ::shutdown(conn.fd, SHUT_RDWR); // unblock the reader
    reader.join();
    ASSERT_TRUE(sent);
    ASSERT_TRUE(readerOk.load()) << "a reply was lost or not ok";
    ASSERT_EQ(static_cast<int>(measured.size()), kMeasuredHits)
        << "the trigger was never answered";

    std::vector<double> latMs;
    for (int slot : measured) {
        const auto got = gotAt.find("h" + std::to_string(slot));
        ASSERT_NE(got, gotAt.end()) << "no reply to hit " << slot;
        latMs.push_back(duration<double, std::milli>(
                            got->second - sentAt[static_cast<size_t>(slot)])
                            .count());
    }
    std::nth_element(latMs.begin(), latMs.begin() + latMs.size() / 2,
                     latMs.end());
    const double medianMs = latMs[latMs.size() / 2];
    const double spacingMs = duration<double, std::milli>(kSpacing).count();
    EXPECT_LT(medianMs, spacingMs / 4)
        << "memo hits wait for the next request on their connection "
           "(trigger answered after "
        << duration<double, std::milli>(gotAt["trigger"] - triggerSentAt)
               .count()
        << " ms)";

    server.requestStop();
    EXPECT_EQ(server.wait(), 0);
}

TEST(ServiceQueue, AdmissionLadderIsDeterministic)
{
    service::RequestQueue q(/*softLimit=*/1, /*hardLimit=*/2);
    auto jobAt = [](uint64_t tag) {
        service::Job j;
        j.tag = tag;
        return j;
    };

    EXPECT_EQ(q.classify(), service::Admission::Accept);
    EXPECT_TRUE(q.push(jobAt(1)));
    EXPECT_EQ(q.classify(), service::Admission::Degrade);
    EXPECT_TRUE(q.push(jobAt(2)));
    EXPECT_EQ(q.classify(), service::Admission::Shed);
    EXPECT_FALSE(q.push(jobAt(3))) << "push past the hard limit";

    // close() drains: the two admitted jobs still come out, then pop
    // reports exhaustion, and nothing new is admitted.
    q.close();
    EXPECT_FALSE(q.push(jobAt(4)));
    service::Job out;
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.tag, 1u);
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.tag, 2u);
    EXPECT_FALSE(q.pop(out));
}

// ---------------------------------------------------------------------------
// Duplicate-work elimination: singleflight coalescing and the
// cross-process shared memo (DESIGN.md §10).

namespace {

namespace fs = std::filesystem;

/** One numeric counter out of the daemon's stats payload. */
long
statOf(service::AwdServer &server, const std::string &key)
{
    obs::JsonValue v;
    if (!obs::tryParseJson(server.statsJson(), v))
        return -1;
    return static_cast<long>(v.at("stats").at(key).asNumber());
}

/** Polls the daemon's stats until counter `key` reads `value` or 10 s
 *  pass; returns the last reading. */
long
awaitStat(service::AwdServer &server, const std::string &key, long value)
{
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    long v = statOf(server, key);
    while (v != value && std::chrono::steady_clock::now() < giveUp) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        v = statOf(server, key);
    }
    return v;
}

std::string
frameOf(const service::EstimateRequest &req)
{
    return service::encodeFrame(service::requestToJson(req));
}

service::EstimateResponse
parsedResponse(const std::string &payload)
{
    obs::JsonValue v;
    EXPECT_TRUE(obs::tryParseJson(payload, v)) << payload;
    service::EstimateResponse resp;
    std::string perr;
    EXPECT_TRUE(service::parseResponse(v, resp, perr)) << perr;
    return resp;
}

} // namespace

TEST(ServiceCoalesce, FollowerCancelSemantics)
{
    service::ServerOptions sopts;
    sopts.threads = 2;
    sopts.maxQueue = 64;
    sopts.defaultDeadlineMs = 120e3;
    sopts.warmup = true;
    service::AwdServer server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    // Each duplicate is sent as soon as its leader is admitted, and the
    // hang-ups follow as soon as it has attached: about a millisecond in
    // all, well inside the leader's tens of milliseconds of simulation.
    // The reactor notices an aborted connection at once (it polls every
    // session socket).
    constexpr int kSlow = 4096;
    const auto sendLeader = [&](RawConn &leader, const std::string &frame) {
        const long admitted = statOf(server, "admitted");
        return leader.connectTo(server.port()) && leader.sendAll(frame) &&
               awaitStat(server, "admitted", admitted + 1) == admitted + 1;
    };
    const auto settle = [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
    };

    // Phase 1: the follower hangs up; the leader must keep its
    // computation and still receive a full-fidelity answer.
    {
        const std::string frame =
            frameOf(estimateOf(testKernel(runUnique("svc_coal_a"), kSlow)));
        RawConn leader, follower;
        ASSERT_TRUE(sendLeader(leader, frame)) << "leader was not admitted";
        ASSERT_TRUE(follower.connectTo(server.port()));
        ASSERT_TRUE(follower.sendAll(frame));
        ASSERT_EQ(awaitStat(server, "coalesced", 1), 1)
            << "duplicate did not attach; leader finished too fast";
        follower.abortConn();
        settle();
        EXPECT_EQ(statOf(server, "coalesce_cancelled"), 0)
            << "follower hangup cancelled a flight with a live leader";

        std::vector<std::string> frames;
        ASSERT_TRUE(leader.readResponses(1, frames));
        const service::EstimateResponse resp = parsedResponse(frames[0]);
        EXPECT_EQ(resp.status, "ok") << resp.errorMessage;
        EXPECT_EQ(resp.degraded, "none");
    }

    // Phase 2: the *leader* hangs up; the follower inherits the running
    // computation and is answered under its own request id.
    {
        service::EstimateRequest req =
            estimateOf(testKernel(runUnique("svc_coal_b"), kSlow));
        req.id = "coal-leader";
        const std::string leaderFrame = frameOf(req);
        req.id = "coal-follower";
        const std::string followerFrame = frameOf(req);

        RawConn leader, follower;
        ASSERT_TRUE(sendLeader(leader, leaderFrame))
            << "leader was not admitted";
        ASSERT_TRUE(follower.connectTo(server.port()));
        ASSERT_TRUE(follower.sendAll(followerFrame));
        ASSERT_EQ(awaitStat(server, "coalesced", 2), 2);
        leader.abortConn();
        settle();
        EXPECT_EQ(statOf(server, "coalesce_cancelled"), 0)
            << "leader hangup cancelled a flight with a live follower";

        std::vector<std::string> frames;
        ASSERT_TRUE(follower.readResponses(1, frames));
        const service::EstimateResponse resp = parsedResponse(frames[0]);
        EXPECT_EQ(resp.status, "ok") << resp.errorMessage;
        EXPECT_EQ(resp.id, "coal-follower")
            << "follower was answered under the departed leader's id";
    }

    // Phase 3: every subscriber hangs up; only then is the computation
    // cancelled (nobody is left to answer).
    {
        const std::string frame =
            frameOf(estimateOf(testKernel(runUnique("svc_coal_c"), kSlow)));
        RawConn leader, follower;
        ASSERT_TRUE(sendLeader(leader, frame)) << "leader was not admitted";
        ASSERT_TRUE(follower.connectTo(server.port()));
        ASSERT_TRUE(follower.sendAll(frame));
        ASSERT_EQ(awaitStat(server, "coalesced", 3), 3);
        leader.abortConn();
        follower.abortConn();
        settle();
        EXPECT_EQ(statOf(server, "coalesce_cancelled"), 1)
            << "orphaned flight was not cancelled";
    }

    // The daemon survives the whole choreography and drains cleanly.
    Result<service::EstimateResponse> pong =
        service::AwdClient(quickClientOptions(server.port())).ping();
    ASSERT_TRUE(pong) << pong.error().message;
    server.requestStop();
    EXPECT_EQ(server.wait(), 0);
}

TEST(ServiceSharedMemo, SecondDaemonAnswersByteIdenticalWithoutSimulating)
{
    // The library result cache holds no PTX activity, so for a ptx
    // request the shared tier is all that spares daemon B a calibration
    // and a simulation.
    for (const char *variant : {"sass", "ptx"}) {
        SCOPED_TRACE(variant);
        const std::string dir = "awd_shared_memo_test_dir";
        fs::remove_all(dir);
        service::EstimateRequest req =
            estimateOf(testKernel(runUnique("svc_shared_hit")));
        req.variant = variant;
        const std::string frame = frameOf(req);

        service::ServerOptions sopts;
        sopts.threads = 1;
        sopts.maxQueue = 64;
        sopts.defaultDeadlineMs = 120e3;
        sopts.warmup = true;
        sopts.sharedMemoDir = dir;

        // Daemon A computes the answer (publishing it to the shared
        // tier) and then serves the repeat from its in-process memo.
        std::string memoServed;
        {
            service::AwdServer a(sopts);
            std::string error;
            ASSERT_TRUE(a.start(error)) << error;
            RawConn conn;
            ASSERT_TRUE(conn.connectTo(a.port()));
            ASSERT_TRUE(conn.sendAll(frame));
            std::vector<std::string> frames;
            ASSERT_TRUE(conn.readResponses(1, frames));
            EXPECT_EQ(parsedResponse(frames[0]).degraded, "none");
            ASSERT_TRUE(conn.sendAll(frame));
            frames.clear();
            ASSERT_TRUE(conn.readResponses(1, frames));
            memoServed = frames[0];
            EXPECT_EQ(parsedResponse(memoServed).degraded, "cached");
            EXPECT_EQ(statOf(a, "admitted"), 1);
            a.requestStop();
            EXPECT_EQ(a.wait(), 0);
        }

        // Daemon B — a different process in spirit, sharing only the
        // memo directory — answers the same request from the shared
        // tier without admitting a single job, byte-identical to A's
        // memo-served reply.
        {
            service::ServerOptions bopts = sopts;
            bopts.warmup = false; // nothing should ever reach the simulator
            service::AwdServer b(bopts);
            std::string error;
            ASSERT_TRUE(b.start(error)) << error;
            RawConn conn;
            ASSERT_TRUE(conn.connectTo(b.port()));
            ASSERT_TRUE(conn.sendAll(frame));
            std::vector<std::string> frames;
            ASSERT_TRUE(conn.readResponses(1, frames));
            EXPECT_EQ(frames[0], memoServed);
            EXPECT_EQ(statOf(b, "shared_memo_hits"), 1);
            EXPECT_EQ(statOf(b, "admitted"), 0)
                << "second daemon simulated instead of using the shared "
                   "memo";
            b.requestStop();
            EXPECT_EQ(b.wait(), 0);
        }
        fs::remove_all(dir);
    }
}

TEST(ServiceSharedMemo, NegativeEntryReplaysTheFailureWithinTtl)
{
    const std::string dir = "awd_shared_memo_negative_dir";
    fs::remove_all(dir);
    service::EstimateRequest req =
        estimateOf(testKernel(runUnique("svc_shared_neg")));
    req.card = "fermi"; // deterministic estimator-side failure
    const std::string frame = frameOf(req);

    service::ServerOptions sopts;
    sopts.threads = 1;
    sopts.defaultDeadlineMs = 120e3;
    sopts.warmup = false;
    sopts.sharedMemoDir = dir;

    std::string firstError;
    {
        service::AwdServer a(sopts);
        std::string error;
        ASSERT_TRUE(a.start(error)) << error;
        RawConn conn;
        ASSERT_TRUE(conn.connectTo(a.port()));
        ASSERT_TRUE(conn.sendAll(frame));
        std::vector<std::string> frames;
        ASSERT_TRUE(conn.readResponses(1, frames));
        firstError = frames[0];
        EXPECT_EQ(parsedResponse(firstError).status, "error");
        a.requestStop();
        EXPECT_EQ(a.wait(), 0);
    }
    {
        service::AwdServer b(sopts);
        std::string error;
        ASSERT_TRUE(b.start(error)) << error;
        RawConn conn;
        ASSERT_TRUE(conn.connectTo(b.port()));
        ASSERT_TRUE(conn.sendAll(frame));
        std::vector<std::string> frames;
        ASSERT_TRUE(conn.readResponses(1, frames));
        EXPECT_EQ(frames[0], firstError);
        EXPECT_EQ(statOf(b, "shared_memo_negative_hits"), 1);
        EXPECT_EQ(statOf(b, "admitted"), 0);
        b.requestStop();
        EXPECT_EQ(b.wait(), 0);
    }
    fs::remove_all(dir);
}

TEST(ServiceSharedMemo, ExpiredNegativeEntryGivesWayToTheRecompute)
{
    // A negative entry past its TTL is a miss. The daemon that then
    // computes the key re-stores it, and from then on that newer record,
    // not the expired failure, answers: a second daemon serves it from
    // the shared memo without admitting a job.
    const std::string dir = "awd_shared_memo_expired_dir";
    fs::remove_all(dir);
    const service::EstimateRequest req =
        estimateOf(testKernel(runUnique("svc_shared_expired")));
    const std::string frame = frameOf(req);
    {
        service::EstimateResponse failed;
        failed.status = "error";
        failed.errorCause = "internal";
        failed.errorMessage = "a transient failure";
        const double storedUnix =
            std::chrono::duration<double>(
                std::chrono::system_clock::now().time_since_epoch())
                .count() -
            2 * service::kSharedMemoNegativeTtlSec;
        std::string value =
            "{\"stored_unix\":" + obs::jsonNumber(storedUnix) +
            ",\"response\":";
        service::appendResponseJson(failed, value);
        value += "}";
        FileEntryStore(dir).storeText(service::requestContentKey(req),
                                      "awd_memo", value);
    }

    service::ServerOptions sopts;
    sopts.threads = 1;
    sopts.maxQueue = 64;
    sopts.defaultDeadlineMs = 120e3;
    sopts.warmup = true;
    sopts.sharedMemoDir = dir;
    for (const char *daemon : {"A", "B"}) {
        SCOPED_TRACE(daemon);
        const bool first = std::string(daemon) == "A";
        service::AwdServer server(sopts);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        RawConn conn;
        ASSERT_TRUE(conn.connectTo(server.port()));
        ASSERT_TRUE(conn.sendAll(frame));
        std::vector<std::string> frames;
        ASSERT_TRUE(conn.readResponses(1, frames));
        const service::EstimateResponse resp = parsedResponse(frames[0]);
        EXPECT_EQ(resp.status, "ok") << resp.errorMessage;
        EXPECT_EQ(statOf(server, "shared_memo_negative_hits"), 0);
        EXPECT_EQ(statOf(server, "shared_memo_hits"), first ? 0 : 1);
        EXPECT_EQ(statOf(server, "admitted"), first ? 1 : 0);
        server.requestStop();
        EXPECT_EQ(server.wait(), 0);
    }
    fs::remove_all(dir);
}

TEST(ServiceSharedMemo, TornEntryIsDetectedAndRecomputed)
{
    const std::string dir = "awd_shared_memo_torn_dir";
    fs::remove_all(dir);
    const service::EstimateRequest req =
        estimateOf(testKernel(runUnique("svc_shared_torn")));
    const std::string frame = frameOf(req);

    service::ServerOptions sopts;
    sopts.threads = 1;
    sopts.maxQueue = 64;
    sopts.defaultDeadlineMs = 120e3;
    sopts.warmup = true;
    sopts.sharedMemoDir = dir;

    {
        service::AwdServer a(sopts);
        std::string error;
        ASSERT_TRUE(a.start(error)) << error;
        RawConn conn;
        ASSERT_TRUE(conn.connectTo(a.port()));
        ASSERT_TRUE(conn.sendAll(frame));
        std::vector<std::string> frames;
        ASSERT_TRUE(conn.readResponses(1, frames));
        EXPECT_EQ(parsedResponse(frames[0]).status, "ok");
        a.requestStop();
        EXPECT_EQ(a.wait(), 0);
    }

    // Simulate a daemon dying mid-write: chop the published record in
    // half, so its pack ends inside it. It must be rejected — a torn
    // entry is a miss, never a wrong answer — both by the index that
    // holds it and by one that scans the pack afresh (a second spelling
    // of the directory gets its own index, as another process would).
    FileEntryStore store(dir);
    const std::string key = service::requestContentKey(req);
    const std::vector<test::PackedRecord> recs = test::recordsOf(dir, key);
    ASSERT_EQ(recs.size(), 1u) << dir;
    fs::resize_file(recs[0].pack, recs[0].offset + test::kPackHeaderBytes +
                                      recs[0].entry.size() / 2);
    std::string raw;
    EXPECT_FALSE(store.fetchText(key, "awd_memo", raw))
        << "torn entry passed validation";
    EXPECT_FALSE(FileEntryStore("./" + dir).fetchText(key, "awd_memo", raw))
        << "torn entry passed validation on a fresh scan";

    // A fresh daemon treats the torn entry as a miss, recomputes, and
    // republishes a valid entry over it.
    {
        service::AwdServer b(sopts);
        std::string error;
        ASSERT_TRUE(b.start(error)) << error;
        RawConn conn;
        ASSERT_TRUE(conn.connectTo(b.port()));
        ASSERT_TRUE(conn.sendAll(frame));
        std::vector<std::string> frames;
        ASSERT_TRUE(conn.readResponses(1, frames));
        const service::EstimateResponse resp = parsedResponse(frames[0]);
        EXPECT_EQ(resp.status, "ok") << resp.errorMessage;
        EXPECT_EQ(resp.degraded, "none")
            << "corrupt entry was served instead of recomputed";
        EXPECT_EQ(statOf(b, "shared_memo_hits"), 0);
        EXPECT_EQ(statOf(b, "admitted"), 1);
        b.requestStop();
        EXPECT_EQ(b.wait(), 0);
    }
    EXPECT_TRUE(store.fetchText(key, "awd_memo", raw))
        << "recompute did not republish a valid shared entry";
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Request-lifecycle observability: spans, the flight recorder, stats
// scopes, and counter exactness (DESIGN.md §10.11).

TEST(ServiceObservability, FlightRecorderRingWrapsOldestFirst)
{
    service::FlightRecorder rec(4);
    for (uint64_t i = 1; i <= 6; ++i) {
        service::RequestSpan s;
        s.tag = i;
        s.verdict = service::SpanVerdict::Accept;
        s.outcome = "ok";
        s.bytes = 10 * i;
        s.tAcceptNs = static_cast<int64_t>(1000 * i);
        s.tEncodeNs = static_cast<int64_t>(1000 * i + 500);
        rec.push(s);
    }
    EXPECT_EQ(rec.recorded(), 6u);
    EXPECT_EQ(rec.capacity(), 4u);

    obs::JsonValue v;
    ASSERT_TRUE(obs::tryParseJson(rec.dumpJson(), v));
    EXPECT_EQ(v.at("schema").asString(), "aw.awd_flight.v1");
    EXPECT_DOUBLE_EQ(v.at("capacity").asNumber(), 4.0);
    EXPECT_DOUBLE_EQ(v.at("recorded").asNumber(), 6.0);
    // Capacity 4, six pushed: tags 3..6 survive, oldest first.
    ASSERT_EQ(v.at("records").array.size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
        const obs::JsonValue &r = v.at("records").array[i];
        EXPECT_DOUBLE_EQ(r.at("tag").asNumber(),
                         static_cast<double>(3 + i));
        EXPECT_EQ(r.at("verdict").asString(), "accept");
        EXPECT_EQ(r.at("outcome").asString(), "ok");
        // Unreached phases are omitted, not emitted as zeros.
        EXPECT_EQ(r.find("sim_start_us"), nullptr);
        EXPECT_DOUBLE_EQ(r.at("encode_us").asNumber(), 0.5);
    }
}

TEST(ServiceObservability, SpansDumpAndSlowLogWithKnobsOn)
{
    const std::string traceFile = "awd_obs_trace_test.json";
    const std::string dumpFile = "awd_obs_flight_test.json";
    fs::remove(traceFile);
    fs::remove(dumpFile);

    service::ServerOptions sopts;
    sopts.threads = 1;
    sopts.maxQueue = 16;
    sopts.defaultDeadlineMs = 120e3;
    sopts.warmup = true;
    sopts.tracePath = traceFile;
    sopts.flightN = 8;
    sopts.slowMs = 1e-6; // everything counts as slow
    sopts.flightDumpPath = dumpFile;
    service::AwdServer server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    service::ClientOptions copts = quickClientOptions(server.port());
    copts.ioTimeoutSec = 120;
    service::AwdClient c(copts);
    const service::EstimateRequest req =
        estimateOf(testKernel(runUnique("svc_obs_on")));
    Result<service::EstimateResponse> first = c.estimate(req);
    ASSERT_TRUE(first) << first.error().message;
    Result<service::EstimateResponse> second = c.estimate(req);
    ASSERT_TRUE(second) << second.error().message;
    EXPECT_EQ(second->degraded, "cached");
    ASSERT_TRUE(c.ping()); // pings are never recorded

    // scope=counters stops at the flat stats object.
    Result<std::string> counters = c.stats("counters");
    ASSERT_TRUE(counters) << counters.error().message;
    obs::JsonValue vc;
    ASSERT_TRUE(obs::tryParseJson(*counters, vc));
    EXPECT_NE(vc.find("stats"), nullptr);
    EXPECT_EQ(vc.find("timers"), nullptr);
    EXPECT_EQ(vc.find("flight"), nullptr);

    // scope=flight inlines the ring: accept span then memo-hit span.
    Result<std::string> flight = c.stats("flight");
    ASSERT_TRUE(flight) << flight.error().message;
    obs::JsonValue vf;
    ASSERT_TRUE(obs::tryParseJson(*flight, vf));
    EXPECT_DOUBLE_EQ(vf.at("stats").at("slow").asNumber(), 2.0);
    EXPECT_TRUE(vf.at("flight_recorder").at("enabled").boolean);
    const obs::JsonValue &ring = vf.at("flight");
    EXPECT_EQ(ring.at("schema").asString(), "aw.awd_flight.v1");
    ASSERT_EQ(ring.at("records").array.size(), 2u);
    const obs::JsonValue &accepted = ring.at("records").array[0];
    const obs::JsonValue &memoHit = ring.at("records").array[1];
    EXPECT_EQ(accepted.at("verdict").asString(), "accept");
    EXPECT_EQ(accepted.at("outcome").asString(), "ok");
    // The queued span reached every phase, in order.
    EXPECT_GT(accepted.at("t_accept_ns").asNumber(), 0.0);
    EXPECT_LE(accepted.at("admit_us").asNumber(),
              accepted.at("pop_us").asNumber());
    EXPECT_LE(accepted.at("sim_start_us").asNumber(),
              accepted.at("sim_end_us").asNumber());
    EXPECT_LE(accepted.at("sim_end_us").asNumber(),
              accepted.at("encode_us").asNumber());
    EXPECT_GT(accepted.at("bytes").asNumber(), 0.0);
    EXPECT_EQ(memoHit.at("verdict").asString(), "memo_hit");
    EXPECT_EQ(memoHit.find("sim_start_us"), nullptr)
        << "an inline memo serve must not claim simulator time";

    // The full (default) scope carries the always-on latency timers.
    obs::JsonValue vd;
    ASSERT_TRUE(obs::tryParseJson(server.statsJson(), vd));
    EXPECT_DOUBLE_EQ(vd.at("timers").at("e2e").at("count").asNumber(),
                     1.0);
    EXPECT_DOUBLE_EQ(
        vd.at("timers").at("queue_wait").at("count").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(vd.at("timers").at("sim").at("count").asNumber(),
                     1.0);
    EXPECT_GT(vd.at("timers").at("e2e").at("p99_ms").asNumber(), 0.0);

    // requestFlightDump() lands the aw.awd_flight.v1 artifact on disk
    // within a couple of reactor poll cycles.
    server.requestFlightDump();
    bool dumped = false;
    for (int i = 0; i < 250 && !dumped; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        dumped = fs::exists(dumpFile);
    }
    ASSERT_TRUE(dumped) << "flight dump never appeared";
    {
        std::ifstream in(dumpFile);
        std::stringstream ss;
        ss << in.rdbuf();
        obs::JsonValue dump;
        ASSERT_TRUE(obs::tryParseJson(ss.str(), dump));
        EXPECT_EQ(dump.at("schema").asString(), "aw.awd_flight.v1");
        EXPECT_DOUBLE_EQ(dump.at("recorded").asNumber(), 2.0);
    }

    server.requestStop();
    EXPECT_EQ(server.wait(), 0);

    // Span trace exported at drain: parseable Chrome trace JSON with
    // the request slice plus its queue/simulate children.
    {
        std::ifstream in(traceFile);
        ASSERT_TRUE(in.good()) << "trace file missing";
        std::stringstream ss;
        ss << in.rdbuf();
        obs::JsonValue trace;
        ASSERT_TRUE(obs::tryParseJson(ss.str(), trace));
        bool sawRequest = false, sawSim = false;
        for (const obs::JsonValue &e : trace.at("traceEvents").array) {
            const std::string &name = e.at("name").asString();
            sawRequest |= name.rfind("awd/request", 0) == 0;
            sawSim |= name == "awd/simulate";
        }
        EXPECT_TRUE(sawRequest);
        EXPECT_TRUE(sawSim);
    }
    fs::remove(traceFile);
    fs::remove(dumpFile);
}

TEST(ServiceObservability, KnobsOffIsInertAndAnswersByteIdentical)
{
    const std::string traceFile = "awd_obs_inert_trace.json";
    fs::remove(traceFile);
    const std::string frame =
        frameOf(estimateOf(testKernel(runUnique("svc_obs_inert"))));

    auto oneResponse = [&](service::AwdServer &server) {
        RawConn conn;
        EXPECT_TRUE(conn.connectTo(server.port()));
        EXPECT_TRUE(conn.sendAll(frame));
        std::vector<std::string> frames;
        EXPECT_TRUE(conn.readResponses(1, frames));
        return frames.empty() ? std::string() : frames[0];
    };

    std::string offResp, onResp;
    {
        service::ServerOptions sopts; // every obs knob at its default
        sopts.threads = 1;
        sopts.maxQueue = 16;
        sopts.defaultDeadlineMs = 120e3;
        service::AwdServer off(sopts);
        std::string error;
        ASSERT_TRUE(off.start(error)) << error;
        offResp = oneResponse(off);
        // The stats endpoint reports the recorder off and an absent
        // ring instead of failing the scope.
        service::AwdClient c(quickClientOptions(off.port()));
        Result<std::string> flight = c.stats("flight");
        ASSERT_TRUE(flight) << flight.error().message;
        obs::JsonValue v;
        ASSERT_TRUE(obs::tryParseJson(*flight, v));
        EXPECT_FALSE(v.at("flight_recorder").at("enabled").boolean);
        EXPECT_TRUE(v.at("flight").isNull());
        off.requestStop();
        EXPECT_EQ(off.wait(), 0);
    }
    {
        service::ServerOptions sopts;
        sopts.threads = 1;
        sopts.maxQueue = 16;
        sopts.defaultDeadlineMs = 120e3;
        sopts.flightN = 4;
        sopts.slowMs = 1e-6;
        sopts.tracePath = traceFile;
        service::AwdServer on(sopts);
        std::string error;
        ASSERT_TRUE(on.start(error)) << error;
        onResp = oneResponse(on);
        on.requestStop();
        EXPECT_EQ(on.wait(), 0);
    }
    // Observability must never change an answer, byte for byte.
    ASSERT_FALSE(offResp.empty());
    EXPECT_EQ(offResp, onResp);
    fs::remove(traceFile);
}

TEST(ServiceStats, CountersExactlyMatchScriptedOutcomes)
{
    service::ServerOptions sopts;
    sopts.threads = 1;
    sopts.maxQueue = 2; // soft limit 1: bursts reliably shed
    sopts.defaultDeadlineMs = 120e3;
    sopts.warmup = true;
    service::AwdServer server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    // Phase 1: a pipelined burst of unique slow kernels. Which of them
    // shed depends on worker timing, so the ledger is built from the
    // *observed* responses — the counters must agree with it exactly.
    long okFull = 0, okDegraded = 0, shedObserved = 0;
    {
        constexpr int kBurst = 6;
        std::string burst;
        for (int i = 0; i < kBurst; ++i)
            burst += frameOf(estimateOf(testKernel(
                runUnique("svc_ledger_" + std::to_string(i)),
                /*iterations=*/64)));
        RawConn conn;
        ASSERT_TRUE(conn.connectTo(server.port()));
        ASSERT_TRUE(conn.sendAll(burst));
        std::vector<std::string> frames;
        ASSERT_TRUE(conn.readResponses(kBurst, frames));
        for (const std::string &f : frames) {
            const service::EstimateResponse resp = parsedResponse(f);
            if (resp.status == "shed") {
                ++shedObserved;
            } else {
                ASSERT_EQ(resp.status, "ok") << resp.errorMessage;
                resp.degraded == "reduced_fidelity" ? ++okDegraded
                                                    : ++okFull;
            }
        }
    }

    service::ClientOptions copts = quickClientOptions(server.port());
    copts.ioTimeoutSec = 120;
    service::AwdClient c(copts);

    // Phase 2: one memo hit (same kernel twice, serially).
    const service::EstimateRequest repeat =
        estimateOf(testKernel(runUnique("svc_ledger_memo")));
    ASSERT_TRUE(c.estimate(repeat));
    Result<service::EstimateResponse> cached = c.estimate(repeat);
    ASSERT_TRUE(cached);
    ASSERT_EQ(cached->degraded, "cached");

    // Phase 3: one idempotent replay (same id twice, serially).
    service::EstimateRequest tagged =
        estimateOf(testKernel(runUnique("svc_ledger_idem")));
    tagged.id = "svc-ledger-replay";
    ASSERT_TRUE(c.estimate(tagged));
    Result<service::EstimateResponse> replayed = c.estimate(tagged);
    ASSERT_TRUE(replayed);
    ASSERT_TRUE(replayed->replayed);

    // Phase 4: one protocol error (a frame that is not JSON).
    {
        RawConn conn;
        ASSERT_TRUE(conn.connectTo(server.port()));
        ASSERT_TRUE(conn.sendAll(service::encodeFrame("{not json")));
        std::vector<std::string> frames;
        ASSERT_TRUE(conn.readResponses(1, frames));
        EXPECT_EQ(parsedResponse(frames[0]).status, "error");
    }

    // Phase 5: one coalesced pair (duplicate attaches to the running
    // leader; both answered from one computation). The duplicate is
    // sent as soon as the leader is admitted, which the leader's tens
    // of milliseconds of simulation outlast by far.
    {
        const std::string frame = frameOf(estimateOf(
            testKernel(runUnique("svc_ledger_coal"), /*iterations=*/4096)));
        const long admitted = statOf(server, "admitted");
        RawConn leader, follower;
        ASSERT_TRUE(leader.connectTo(server.port()));
        ASSERT_TRUE(leader.sendAll(frame));
        ASSERT_EQ(awaitStat(server, "admitted", admitted + 1), admitted + 1)
            << "leader was not admitted";
        ASSERT_TRUE(follower.connectTo(server.port()));
        ASSERT_TRUE(follower.sendAll(frame));
        std::vector<std::string> one, two;
        ASSERT_TRUE(leader.readResponses(1, one));
        ASSERT_TRUE(follower.readResponses(1, two));
        EXPECT_EQ(parsedResponse(one[0]).status, "ok");
        EXPECT_EQ(parsedResponse(two[0]).status, "ok");
    }
    ASSERT_EQ(statOf(server, "coalesced"), 1)
        << "duplicate did not attach; leader finished too fast";

    // The registry snapshot must reproduce the ledger exactly: every
    // scripted outcome appears in its counter, nothing more.
    // Admitted: burst survivors + memo first + idem first + leader.
    EXPECT_EQ(statOf(server, "admitted"),
              (6 - shedObserved) + 3);
    // Served: computed answers (burst survivors, memo first, idem
    // first, coalesce leader) plus the follower fan-out.
    EXPECT_EQ(statOf(server, "served"), (6 - shedObserved) + 4);
    EXPECT_EQ(statOf(server, "shed"), shedObserved);
    EXPECT_EQ(statOf(server, "degraded"), okDegraded);
    EXPECT_EQ(statOf(server, "memo_hits"), 1);
    EXPECT_EQ(statOf(server, "replayed"), 1);
    EXPECT_EQ(statOf(server, "protocol_errors"), 1);
    EXPECT_EQ(statOf(server, "coalesce_cancelled"), 0);
    EXPECT_EQ(statOf(server, "deadline"), 0);
    EXPECT_EQ(statOf(server, "shared_memo_hits"), 0);

    server.requestStop();
    EXPECT_EQ(server.wait(), 0);
}

// ---------------------------------------------------------------------------
// Environment knobs: the names fromEnvironment() reads are the only
// list of knobs, and any other AW_SERVICE_* variable that is set is
// named in a warning instead of silently doing nothing.

namespace {

std::vector<std::string> g_warnings;

void
collectWarning(LogLevel level, const std::string &message)
{
    if (level == LogLevel::Warn)
        g_warnings.push_back(message);
}

/** Clears the caller's AW_SERVICE_* variables and collects warnings for
 *  one scope; restores both on exit. */
class ServiceEnvScope
{
  public:
    ServiceEnvScope()
    {
        for (char **e = environ; *e; ++e) {
            const std::string var(*e);
            const size_t eq = var.find('=');
            if (var.starts_with("AW_SERVICE_"))
                saved_.emplace_back(var.substr(0, eq), var.substr(eq + 1));
        }
        for (const auto &[name, value] : saved_)
            ::unsetenv(name.c_str());
        g_warnings.clear();
        setLogObserver(&collectWarning);
    }

    ~ServiceEnvScope()
    {
        setLogObserver(nullptr);
        for (const std::string &name : set_)
            ::unsetenv(name.c_str());
        for (const auto &[name, value] : saved_)
            ::setenv(name.c_str(), value.c_str(), 1);
    }

    void set(const std::string &name, const std::string &value)
    {
        ::setenv(name.c_str(), value.c_str(), 1);
        set_.push_back(name);
    }

  private:
    std::vector<std::pair<std::string, std::string>> saved_;
    std::vector<std::string> set_;
};

} // namespace

TEST(ServiceOptions, UnreadServiceVariablesAreNamedInAWarning)
{
    {
        ServiceEnvScope env;
        env.set("AW_SERVICE_SHARED_MEMO_BYTES", "1024");
        const service::ServerOptions opts =
            service::ServerOptions::fromEnvironment();
        ASSERT_EQ(g_warnings.size(), 1u);
        EXPECT_NE(g_warnings[0].find("AW_SERVICE_SHARED_MEMO_BYTES"),
                  std::string::npos)
            << g_warnings[0];
        EXPECT_TRUE(opts == service::ServerOptions{});
    }
    {
        ServiceEnvScope env;
        env.set("AW_SERVICE_PORT", "4321");
        env.set("AW_SERVICE_THREADS", "3");
        env.set("AW_SERVICE_MAX_QUEUE", "64");
        env.set("AW_SERVICE_DEADLINE_MS", "500");
        env.set("AW_SERVICE_IDLE_MS", "2000");
        env.set("AW_SERVICE_CARDS", "volta,pascal");
        env.set("AW_SERVICE_SHARED_MEMO_DIR", "awd_env_memo_dir");
        env.set("AW_SERVICE_TRACE", "awd_env_trace.json");
        env.set("AW_SERVICE_SLOW_MS", "5");
        env.set("AW_SERVICE_FLIGHT_N", "16");
        env.set("AW_SERVICE_FLIGHT_DUMP", "awd_env_flight.json");
        const service::ServerOptions opts =
            service::ServerOptions::fromEnvironment();
        EXPECT_TRUE(g_warnings.empty()) << g_warnings.front();
        EXPECT_EQ(opts.port, 4321);
        EXPECT_EQ(opts.threads, 3);
        EXPECT_EQ(opts.maxQueue, 64);
        EXPECT_EQ(opts.defaultDeadlineMs, 500);
        EXPECT_EQ(opts.idleTimeoutMs, 2000);
        EXPECT_EQ(opts.cards, (std::vector<std::string>{"volta", "pascal"}));
        EXPECT_EQ(opts.sharedMemoDir, "awd_env_memo_dir");
        EXPECT_EQ(opts.tracePath, "awd_env_trace.json");
        EXPECT_EQ(opts.slowMs, 5);
        EXPECT_EQ(opts.flightN, 16);
        EXPECT_EQ(opts.flightDumpPath, "awd_env_flight.json");
    }
}
