/**
 * @file
 * awd_mixed: an in-process AwdServer with default ServerOptions, fed by
 * one generator thread over four persistent, pipelined connections (one
 * receiver thread reads all four).
 *
 * The nominal phase is open loop: request i is due at i / rate and its
 * latency runs from that due time to its reply. Each block of 200 slots
 * holds 179 memo hits on the wire-expressible validation kernels, 16
 * fresh detail-1 kernels, 4 repeats of those fresh kernels on another
 * connection 1-3 slots later (singleflight coalescing), and one fresh
 * detail-8 kernel, in a seeded order. The shares are chosen, not
 * measured; NOTES.md says why each is what it is. The saturation phase
 * pushes more of the mixed traffic with a bounded number of requests in
 * flight and reports the reply rate. A traced run instead ends with
 * windows of memo hits only, closed loop, to time the CPU of the hit
 * path.
 */
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/calibration.hpp"
#include "core/result_cache.hpp"
#include "harness.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "workloads/validation.hpp"

namespace perfbench {

namespace {

using namespace aw;
using namespace aw::service;

constexpr int kConnections = 4;
constexpr double kNominalRate = 1000; ///< requests per second
constexpr int kBlock = 200;
constexpr int kBlockMissLeaders = 16;
constexpr int kBlockMissDups = 4;
constexpr int kBlockMissD8 = 1;
constexpr size_t kSaturationRequests = 4000;
constexpr double kSecondsPerWindow = 4; ///< run seconds per saturation window
constexpr size_t kSaturationWindow = 64; ///< below the queue's soft limit
constexpr uint64_t kSeedMask = (uint64_t{1} << 53) - 1;
constexpr int kSetups = 3; ///< daemon starts per untraced run
constexpr size_t kHitWindowRequests = 5000; ///< memo hits per hit window
constexpr int kHitWindows = 5;

enum class Kind : uint8_t { Hit, Miss, MissDup, MissD8 };

struct Item
{
    double due = 0; ///< seconds from phase start
    int conn = 0;
    Kind kind = Kind::Hit;
    size_t kernel = 0; ///< index into Schedule::kernels
};

struct Schedule
{
    std::vector<KernelDescriptor> kernels; ///< hot set first, then fresh
    std::vector<Item> items;
};

bool
wireExpressible(const KernelDescriptor &k)
{
    EstimateRequest req;
    req.hasKernel = true;
    req.kernel = k;
    obs::JsonValue v;
    EstimateRequest back;
    std::string err;
    return obs::tryParseJson(requestToJson(req), v) &&
           parseRequest(v, back, err);
}

/**
 * The validation kernels the wire protocol can carry. requestToJson
 * writes 64-bit seeds and "?" for ops without a wire token (Branch, Bar,
 * Mov, Nop, Exit), and parseRequest rejects both: seeds are masked below
 * 2^53, and the kernels that still do not round-trip are left out.
 */
std::vector<KernelDescriptor>
hotSet()
{
    std::vector<KernelDescriptor> out;
    for (const ValidationKernel &vk : validationSuite()) {
        KernelDescriptor k = vk.kernel;
        k.seed &= kSeedMask;
        if (wireExpressible(k))
            out.push_back(std::move(k));
    }
    return out;
}

/** A fresh kernel: a hot-set shape under a new seed and name. */
KernelDescriptor
freshKernel(const KernelDescriptor &shape, Rng &rng)
{
    KernelDescriptor k = shape;
    k.seed = rng.next() & kSeedMask;
    k.name += "~" + hex16(k.seed).substr(6);
    return k;
}

/**
 * `count` requests of the mixed traffic, due at i / rate. `stream`
 * separates phases so each phase's fresh kernels are its own. Fresh
 * kernels take the hot-set shapes in rotation (from a seeded offset):
 * shapes differ several-fold in simulation cost, and a random pick would
 * let the seed change how much work a run does.
 */
Schedule
makeSchedule(uint64_t seed, uint64_t stream, size_t count, double rate,
             const std::vector<KernelDescriptor> &hot)
{
    Rng rng(splitmix64(seed ^ splitmix64(stream + 0x5eed)));
    Schedule s;
    s.kernels = hot;
    size_t nextShape[2] = {rng.next() % hot.size(), rng.next() % hot.size()};
    std::vector<Kind> block;
    while (s.items.size() < count) {
        block.assign(kBlock - kBlockMissDups - kBlockMissLeaders -
                         kBlockMissD8,
                     Kind::Hit);
        block.insert(block.end(), kBlockMissLeaders, Kind::Miss);
        block.insert(block.end(), kBlockMissD8, Kind::MissD8);
        for (size_t i = block.size(); i > 1; --i)
            std::swap(block[i - 1], block[rng.next() % i]);
        // Which leaders get a repeat, and how many items later.
        std::vector<size_t> leaderSlots;
        for (size_t i = 0; i < block.size(); ++i)
            if (block[i] == Kind::Miss)
                leaderSlots.push_back(i);
        std::vector<int> dupGap(block.size(), 0);
        for (int d = 0; d < kBlockMissDups; ++d) {
            size_t pick;
            do {
                pick = leaderSlots[rng.next() % leaderSlots.size()];
            } while (dupGap[pick] != 0);
            dupGap[pick] = 1 + static_cast<int>(rng.next() % 3);
        }
        auto emit = [&](Kind kind, size_t kernel) {
            Item it;
            it.kind = kind;
            it.kernel = kernel;
            s.items.push_back(it);
        };
        std::vector<std::pair<int, size_t>> pending; // (countdown, kernel)
        for (size_t i = 0; i < block.size(); ++i) {
            size_t kernel = 0;
            if (block[i] == Kind::Hit) {
                kernel = rng.next() % hot.size();
            } else {
                size_t &shape = nextShape[block[i] == Kind::MissD8];
                kernel = s.kernels.size();
                s.kernels.push_back(
                    freshKernel(hot[shape++ % hot.size()], rng));
            }
            emit(block[i], kernel);
            for (auto &p : pending)
                --p.first;
            while (!pending.empty() && pending.front().first <= 0) {
                emit(Kind::MissDup, pending.front().second);
                pending.erase(pending.begin());
                for (auto &p : pending)
                    --p.first;
            }
            if (dupGap[i])
                pending.push_back({dupGap[i], kernel});
        }
        for (auto &p : pending)
            emit(Kind::MissDup, p.second);
    }
    s.items.resize(count);
    // Round-robin over connections: a repeat 1-3 items after its leader
    // always lands on another connection.
    for (size_t i = 0; i < s.items.size(); ++i) {
        s.items[i].due = static_cast<double>(i) / rate;
        s.items[i].conn = static_cast<int>(i % kConnections);
    }
    return s;
}

/** `count` memo hits on the hot set, in a seeded order (closed loop, so
 *  no due times). */
Schedule
hitSchedule(uint64_t seed, uint64_t stream, size_t count,
            const std::vector<KernelDescriptor> &hot)
{
    Rng rng(splitmix64(seed ^ splitmix64(stream + 0x5eed)));
    Schedule s;
    s.kernels = hot;
    for (size_t i = 0; i < count; ++i)
        s.items.push_back({0, static_cast<int>(i % kConnections), Kind::Hit,
                           rng.next() % hot.size()});
    return s;
}

int
detailOf(Kind k)
{
    return k == Kind::MissD8 ? 8 : 1;
}

/** Frames of a schedule, ids "<prefix><index>". */
std::vector<std::string>
framesFor(const Schedule &s, const std::string &idPrefix,
          std::vector<std::string> *payloads = nullptr)
{
    std::vector<std::string> frames;
    frames.reserve(s.items.size());
    for (size_t i = 0; i < s.items.size(); ++i) {
        const Item &it = s.items[i];
        EstimateRequest req;
        req.id = idPrefix + std::to_string(i);
        req.detail = detailOf(it.kind);
        req.hasKernel = true;
        req.kernel = s.kernels[it.kernel];
        std::string payload = requestToJson(req);
        frames.push_back(encodeFrame(payload));
        if (payloads)
            payloads->push_back(std::move(payload));
    }
    return frames;
}

/** Four persistent pipelined connections to the daemon. */
class Connections
{
  public:
    Connections() = default;
    Connections(const Connections &) = delete;
    Connections &operator=(const Connections &) = delete;
    ~Connections() { close(); }

    bool open(int port, std::string &error)
    {
        for (int i = 0; i < kConnections; ++i) {
            int fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (fd < 0) {
                error = std::strerror(errno);
                return false;
            }
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(static_cast<uint16_t>(port));
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr) != 0) {
                error = std::strerror(errno);
                ::close(fd);
                return false;
            }
            fds_.push_back(fd);
        }
        return true;
    }

    void close()
    {
        for (int fd : fds_)
            ::close(fd);
        fds_.clear();
    }

    int fd(int i) const { return fds_[static_cast<size_t>(i)]; }

  private:
    std::vector<int> fds_;
};

bool
sendAll(int fd, const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

/** What happened to each request of one phase. */
struct PhaseResult
{
    double start = 0;                   ///< wall time of due time 0
    double genCpuSec = 0;               ///< generator thread CPU
    std::vector<double> sent, received; ///< wall times; received 0 = lost
    std::vector<std::string> replies;   ///< raw reply payloads
};

/**
 * Send a schedule — open loop at the due times, or closed loop with at
 * most `window` requests in flight when window > 0 — and collect every
 * reply, matched by request id.
 */
PhaseResult
runPhase(Connections &conns, const Schedule &s,
         const std::vector<std::string> &frames, const std::string &idPrefix,
         size_t window, double timeoutSec)
{
    const size_t n = s.items.size();
    PhaseResult r;
    r.sent.assign(n, 0);
    r.received.assign(n, 0);
    r.replies.assign(n, {});
    std::atomic<size_t> receivedCount{0};
    std::atomic<bool> sendFailed{false};
    // Closed loop: the generator sleeps until the receiver frees a slot.
    std::mutex slotMu;
    std::condition_variable slotFreed;
    r.start = nowSec() + 0.005;
    const double deadline = r.start + s.items.back().due + timeoutSec;
    const std::string idKey = "\"id\":\"" + idPrefix;

    std::thread receiver([&] {
        FrameDecoder dec[kConnections];
        pollfd pfds[kConnections];
        for (int i = 0; i < kConnections; ++i)
            pfds[i] = {conns.fd(i), POLLIN, 0};
        char buf[65536];
        std::string frame, err;
        while (receivedCount.load() < n && nowSec() < deadline &&
               !sendFailed.load()) {
            if (::poll(pfds, kConnections, 20) <= 0)
                continue;
            for (int i = 0; i < kConnections; ++i) {
                if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                    continue;
                ssize_t got =
                    ::recv(pfds[i].fd, buf, sizeof buf, MSG_DONTWAIT);
                if (got == 0)
                    pfds[i].fd = -1; // hung up: stop polling it
                if (got <= 0)
                    continue;
                const double t = nowSec();
                dec[i].feed(buf, static_cast<size_t>(got));
                while (dec[i].poll(frame, err) ==
                       FrameDecoder::Status::Frame) {
                    size_t p = frame.find(idKey);
                    if (p == std::string::npos)
                        continue;
                    const size_t idx = std::strtoull(
                        frame.c_str() + p + idKey.size(), nullptr, 10);
                    if (idx >= n || r.received[idx] != 0)
                        continue;
                    r.received[idx] = t;
                    r.replies[idx] = std::move(frame);
                    receivedCount.fetch_add(1);
                }
            }
            if (window > 0) {
                { std::lock_guard<std::mutex> lock(slotMu); }
                slotFreed.notify_one();
            }
        }
    });

    std::thread generator([&] {
        // Wake on time: the default 50 us timer slack would show up as
        // lateness in every open-loop latency.
        prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
        const double cpu0 = threadCpuSec();
        for (size_t i = 0; i < n; ++i) {
            const Item &it = s.items[i];
            if (window == 0) {
                const double wait = r.start + it.due - nowSec();
                if (wait > 0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(wait));
            } else {
                std::unique_lock<std::mutex> lock(slotMu);
                while (i - receivedCount.load() >= window &&
                       nowSec() < deadline)
                    slotFreed.wait_for(lock, std::chrono::milliseconds(5));
            }
            r.sent[i] = nowSec();
            if (!sendAll(conns.fd(it.conn), frames[i])) {
                sendFailed.store(true);
                break;
            }
        }
        r.genCpuSec = threadCpuSec() - cpu0;
    });
    generator.join();
    receiver.join();
    return r;
}

/** A started daemon with its connections (stopped on destruction). */
struct Daemon
{
    std::unique_ptr<AwdServer> server;
    Connections conns;

    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;
    ~Daemon()
    {
        // Hang up first so the drain has no idle sessions to wait on.
        conns.close();
        if (server) {
            server->requestStop();
            server->wait();
        }
    }
};

/**
 * Start a daemon on the result cache in `cacheDir`, which the caller
 * emptied (so the warm-up calibration is a cold one), connect, and
 * prime the memo with the hot set.
 */
std::unique_ptr<Daemon>
startDaemon(const std::string &cacheDir,
            const std::vector<KernelDescriptor> &hot, Report &report,
            int setupIndex)
{
    ResultCache::instance().configure(cacheDir);
    ResultCache::instance().setEnabled(true);
    auto d = std::make_unique<Daemon>();
    d->server = std::make_unique<AwdServer>(ServerOptions{});
    std::string error;
    if (!d->server->start(error) ||
        !d->conns.open(d->server->port(), error)) {
        report.fail("awd start failed: " + error);
        return nullptr;
    }
    Schedule prime;
    prime.kernels = hot;
    for (size_t i = 0; i < hot.size(); ++i)
        prime.items.push_back(
            {0, static_cast<int>(i % kConnections), Kind::Miss, i});
    const std::string prefix = "p" + std::to_string(setupIndex) + "-";
    PhaseResult r = runPhase(d->conns, prime, framesFor(prime, prefix),
                             prefix, hot.size(), 60);
    for (size_t i = 0; i < r.received.size(); ++i) {
        report.attempted += 1;
        if (r.received[i] == 0 ||
            r.replies[i].find("\"status\":\"ok\"") == std::string::npos) {
            report.failed += 1;
            report.fail("priming request " + std::to_string(i) + " failed");
        }
    }
    return d;
}

/** An ok reply, decoded; ok false for anything else. */
struct Reply
{
    bool ok = false;
    EstimateResponse resp;
};

Reply
parseReply(const std::string &payload)
{
    Reply r;
    obs::JsonValue v;
    std::string err;
    if (!payload.empty() && obs::tryParseJson(payload, v) &&
        parseResponse(v, r.resp, err))
        r.ok = r.resp.status == "ok";
    return r;
}

bool
fetchStats(int port, obs::JsonValue &doc)
{
    ClientOptions co;
    co.port = port;
    AwdClient client(co);
    Result<std::string> r = client.stats("full");
    return r && obs::tryParseJson(*r, doc);
}

/** A number at `path` in a stats reply; 0 when absent. */
double
statsNumber(const obs::JsonValue &doc, std::initializer_list<const char *> path)
{
    const obs::JsonValue *v = &doc;
    for (const char *key : path)
        if (!(v = v->find(key)))
            return 0;
    return v->isNumber() ? v->number : 0;
}

/** Latencies by request kind, and what went wrong, for one phase. */
struct PhaseStats
{
    std::vector<double> hit, miss, d8, all, late;
    long failed = 0, mismatched = 0, lost = 0, checked = 0;
};

/**
 * The power_w the daemon must answer, recomputed outside it through an
 * uncached GpuSimulator::runSass and evaluateKernel with the card's
 * calibrated SASS model. Uncached, so that a divergence in the daemon's
 * own simulation cannot pass by reading back the result-cache entry the
 * daemon stored. The hot set's powers are computed once.
 */
class Expected
{
  public:
    Expected(const GpuSimulator &sim, AccelWattchModel model,
             const std::vector<KernelDescriptor> &hot)
        : sim_(sim), model_(std::move(model))
    {
        for (const KernelDescriptor &k : hot)
            hotW_.push_back(powerW(k, detailOf(Kind::Hit)));
    }

    /** Expected power_w of item `it` of schedule `s`. */
    double operator()(const Schedule &s, const Item &it) const
    {
        return it.kind == Kind::Hit
                   ? hotW_[it.kernel]
                   : powerW(s.kernels[it.kernel], detailOf(it.kind));
    }

  private:
    double powerW(const KernelDescriptor &k, int detail) const
    {
        SimOptions opts;
        opts.detailSms = detail;
        return model_.evaluateKernel(sim_.runSass(k, opts)).totalW();
    }

    const GpuSimulator &sim_;
    AccelWattchModel model_;
    std::vector<double> hotW_;
};

/**
 * Every reply that is missing or not ok fails; a seeded 1-in-16 sample
 * of ok replies must match the Expected power_w exactly.
 */
PhaseStats
analyse(const Schedule &s, const PhaseResult &r, const Expected &expected,
        uint64_t seed, bool openLoop)
{
    PhaseStats ps;
    for (size_t i = 0; i < s.items.size(); ++i) {
        const Item &it = s.items[i];
        if (r.received[i] == 0) {
            ++ps.failed;
            ++ps.lost;
            continue;
        }
        const Reply rep = parseReply(r.replies[i]);
        if (!rep.ok) {
            ++ps.failed;
            continue;
        }
        if (splitmix64(seed ^ (i * 0x9e3779b97f4a7c15ULL)) % 16 == 0) {
            const double w = expected(s, it);
            ++ps.checked;
            if (std::memcmp(&w, &rep.resp.powerW, sizeof w) != 0) {
                ++ps.failed;
                ++ps.mismatched;
                continue;
            }
        }
        const double due = r.start + it.due;
        const double lat = r.received[i] - (openLoop ? due : r.sent[i]);
        ps.all.push_back(lat);
        ps.late.push_back(r.sent[i] - due);
        if (it.kind == Kind::Hit)
            ps.hit.push_back(lat);
        else if (it.kind == Kind::MissD8)
            ps.d8.push_back(lat);
        else
            ps.miss.push_back(lat);
    }
    return ps;
}

void
account(const PhaseStats &ps, size_t requests, const char *phase,
        Report &report)
{
    report.attempted += static_cast<long>(requests);
    report.failed += ps.failed;
    if (ps.mismatched)
        report.fail(std::string(phase) + ": " +
                    std::to_string(ps.mismatched) +
                    " replies differ from the library");
    if (ps.lost)
        report.fail(std::string(phase) + ": " + std::to_string(ps.lost) +
                    " requests got no reply");
}

/** Percentile in ms; a tail too thin to report is noted, and fails
 *  the run when `required`. */
double
pctMs(const std::vector<double> &v, double p, const char *what,
      bool required, Report &report)
{
    double x = 0;
    if (percentile(v, p, x))
        report.note(what, 1e3 * x);
    else if (required)
        report.fail(std::string("too few samples for ") + what + " (" +
                    std::to_string(v.size()) + ")");
    return 1e3 * x;
}

/** Simulated cycles per thread-CPU second of direct runSass calls on
 *  the schedule's first `limit` kernels of one kind. */
double
cyclesPerCpuSec(const GpuSimulator &sim, const Schedule &s, Kind kind,
                size_t limit)
{
    obs::Counter &cycles = obs::metrics().counter("sim.cycles_simulated");
    double c = 0, cpu = 0;
    size_t done = 0;
    for (size_t i = 0; i < s.items.size() && done < limit; ++i) {
        if (s.items[i].kind != kind)
            continue;
        SimOptions opts;
        opts.detailSms = detailOf(kind);
        const double c0 = cycles.value(), t0 = threadCpuSec();
        sim.runSass(s.kernels[s.items[i].kernel], opts);
        cpu += threadCpuSec() - t0;
        c += cycles.value() - c0;
        ++done;
    }
    return cpu > 0 ? c / cpu : 0;
}

/** Process-wide counter deltas over one window (start to stop()). */
class CounterWindow
{
  public:
    CounterWindow()
    {
        for (size_t i = 0; i < std::size(kNames); ++i)
            delta_[i] = -obs::metrics().counter(kNames[i]).value();
    }
    void stop()
    {
        for (size_t i = 0; i < std::size(kNames); ++i)
            delta_[i] += obs::metrics().counter(kNames[i]).value();
    }
    double delta(const char *name) const
    {
        for (size_t i = 0; i < std::size(kNames); ++i)
            if (std::strcmp(kNames[i], name) == 0)
                return delta_[i];
        return 0;
    }

  private:
    static constexpr const char *kNames[] = {
        "sim.kernels",  "sim.cycles_simulated",     "sim.sm.insts_issued",
        "cache.writes", "model.kernel_evaluations", "cache.hits",
        "cache.misses"};
    double delta_[std::size(kNames)];
};

} // namespace

std::string
awdScheduleDigest(uint64_t seed, size_t count)
{
    const Schedule s = makeSchedule(seed, 1, count, kNominalRate, hotSet());
    uint64_t h = fnv1a(nullptr, 0);
    for (const std::string &f : framesFor(s, "n"))
        h = fnv1a(f.data(), f.size(), h);
    for (const Item &it : s.items) {
        h = fnv1a(&it.due, sizeof it.due, h);
        h = fnv1a(&it.conn, sizeof it.conn, h);
    }
    return hex16(h);
}

int
runAwdMixed(const Options &opts, Report &report)
{
    setLogLevel(LogLevel::Warn);
    const std::vector<KernelDescriptor> hot = hotSet();
    report.note("hot_set", static_cast<double>(hot.size()));
    if (hot.size() != 23)
        report.fail("expected 23 wire-expressible validation kernels, got " +
                    std::to_string(hot.size()));

    // --- set-up: daemon start + warm-up calibration + hot-set priming --
    // Timed in process CPU seconds, like the campaigns' set-up: its wall
    // time swings with the cores the host gives. Emptying the previous
    // start's cache is not timed, so every start does the same work.
    std::vector<double> setupSamples, setupWalls;
    std::unique_ptr<Daemon> daemon;
    const std::string cacheDir = opts.workdir + "/cache_awd";
    for (int i = 0; i < (opts.trace ? 1 : kSetups); ++i) {
        daemon.reset();
        freshDirectory(cacheDir);
        const double cpu0 = processCpuSec(), t0 = nowSec();
        daemon = startDaemon(cacheDir, hot, report, i);
        setupSamples.push_back(processCpuSec() - cpu0);
        setupWalls.push_back(nowSec() - t0);
        if (!daemon)
            return 1;
    }
    const int port = daemon->server->port();

    // The card's calibrated SASS model, from the cache the daemon filled.
    AccelWattchCalibrator verifier(sharedVoltaCard());
    const GpuSimulator &sim = verifier.simulator();
    const Expected expected(sim, verifier.variant(Variant::SassSim).model,
                            hot);

    // --- nominal phase: open loop at the nominal rate -------------------
    const double nominalSec =
        opts.trace ? opts.seconds : std::max(1.0, 0.5 * opts.seconds);
    const auto count = static_cast<size_t>(nominalSec * kNominalRate);
    const Schedule nominal =
        makeSchedule(opts.seed, 1, count, kNominalRate, hot);
    std::vector<std::string> payloads;
    const std::vector<std::string> frames =
        framesFor(nominal, "n", &payloads);
    obs::JsonValue before;
    if (opts.trace && !fetchStats(port, before))
        report.fail("stats request failed");
    CounterWindow counters;
    const double cpu0 = processCpuSec();
    const PhaseResult r = runPhase(daemon->conns, nominal, frames, "n", 0, 30);
    const double nominalCpu = processCpuSec() - cpu0;
    counters.stop();
    const PhaseStats ps = analyse(nominal, r, expected, opts.seed, true);
    account(ps, count, "nominal", report);
    report.note("nominal_requests", static_cast<double>(count));
    report.note("nominal_cpu_s", nominalCpu);
    report.note("checked_replies", static_cast<double>(ps.checked));

    // Latency by request kind at the nominal rate (context when
    // untraced, per-layer metrics when traced), with sample counts.
    report.note("hit_n", static_cast<double>(ps.hit.size()));
    report.note("miss_n", static_cast<double>(ps.miss.size()));
    report.note("miss_d8_n", static_cast<double>(ps.d8.size()));
    const double hitP50 = pctMs(ps.hit, 50, "hit_p50_ms", opts.trace, report);
    const double hitP99 = pctMs(ps.hit, 99, "hit_p99_ms", opts.trace, report);
    const double missP50 =
        pctMs(ps.miss, 50, "miss_p50_ms", opts.trace, report);
    const double missP99 =
        pctMs(ps.miss, 99, "miss_p99_ms", opts.trace, report);
    const double d8P50 =
        pctMs(ps.d8, 50, "miss_d8_p50_ms", opts.trace, report);

    if (!opts.trace) {
        // --- saturation: the same mix with a bounded in-flight window,
        // in windows of fresh kernels; the median reply rate.
        std::vector<double> rates;
        const int windows =
            std::max(3, static_cast<int>(opts.seconds / kSecondsPerWindow));
        for (int w = 0; w < windows; ++w) {
            const Schedule sat =
                makeSchedule(opts.seed, 2 + static_cast<uint64_t>(w),
                             kSaturationRequests, kNominalRate, hot);
            const std::string prefix = "s" + std::to_string(w) + "-";
            const PhaseResult sr =
                runPhase(daemon->conns, sat, framesFor(sat, prefix), prefix,
                         kSaturationWindow, 60);
            const PhaseStats ss =
                analyse(sat, sr, expected, opts.seed, false);
            account(ss, sat.items.size(), "saturation", report);
            double last = sr.start;
            for (double t : sr.received)
                last = std::max(last, t);
            rates.push_back(static_cast<double>(sat.items.size()) /
                            (last - sr.start));
        }

        report.note("saturation_rps", joinNumbers(rates));
        report.note("setup_cpu_s", joinNumbers(setupSamples));
        report.note("setup_wall_s", joinNumbers(setupWalls));
        report.set("setup_s", median(setupSamples), "s");
        report.set("wall_s", 1e-3 * pctMs(ps.all, 50, "p50_ms", true, report),
                   "s");
        report.set("cpu_s", nominalCpu, "s");
        report.set("peak_rss_mb", peakRssMb(), "MB");
        report.set("max_rps", median(rates), "1/s");
        return 0;
    }

    // --- traced: daemon counters and timers, codec and sim outside ------
    obs::JsonValue after;
    if (!fetchStats(port, after))
        report.fail("stats request failed");

    // Hit windows: memo hits only, closed loop, each window's process
    // CPU (decode, memo lookup, encode, reactor and socket work, the
    // client's share included). In the mixed traffic the misses'
    // simulation CPU dwarfs the hit path.
    std::vector<double> hitCpu;
    for (int w = 0; w < kHitWindows; ++w) {
        const Schedule hits = hitSchedule(
            opts.seed, 100 + static_cast<uint64_t>(w), kHitWindowRequests, hot);
        const std::string prefix = "h" + std::to_string(w) + "-";
        const std::vector<std::string> hitFrames = framesFor(hits, prefix);
        const double c0 = processCpuSec();
        const PhaseResult hr = runPhase(daemon->conns, hits, hitFrames, prefix,
                                        kSaturationWindow, 60);
        hitCpu.push_back(processCpuSec() - c0);
        account(analyse(hits, hr, expected, opts.seed, false),
                hits.items.size(), "hits", report);
    }
    report.note("hit_window_cpu_s", joinNumbers(hitCpu));
    report.set("service.hit_cpu_us",
               1e6 * median(hitCpu) / static_cast<double>(kHitWindowRequests),
               "us");
    auto delta = [&](const char *name) {
        return statsNumber(after, {"stats", name}) -
               statsNumber(before, {"stats", name});
    };
    auto timer = [&](const char *name, const char *field) {
        return statsNumber(after, {"timers", name, field});
    };

    double decodeSec = 0;
    for (const std::string &p : payloads) {
        const double t0 = nowSec();
        obs::JsonValue v;
        EstimateRequest req;
        std::string err;
        const bool ok = obs::tryParseJson(p, v) && parseRequest(v, req, err);
        decodeSec += nowSec() - t0;
        if (!ok)
            report.fail("own request failed to decode: " + err);
    }
    double encodeSec = 0;
    size_t encoded = 0;
    std::string buf;
    for (const std::string &p : r.replies) {
        const Reply rep = parseReply(p);
        if (!rep.ok)
            continue;
        const double t0 = nowSec();
        buf.clear();
        appendFrame(buf, responseToJson(rep.resp));
        encodeSec += nowSec() - t0;
        ++encoded;
    }
    const double decodeUs =
        1e6 * decodeSec / static_cast<double>(payloads.size());
    const double encodeUs =
        encoded ? 1e6 * encodeSec / static_cast<double>(encoded) : 0;
    const double e2eMean = timer("e2e", "mean_ms");
    const double simCount =
        timer("sim", "count") - statsNumber(before, {"timers", "sim", "count"});
    double late99 = 0;
    percentile(ps.late, 99, late99);
    const double lookups =
        counters.delta("cache.hits") + counters.delta("cache.misses");

    report.set("hit_p50_ms", hitP50, "ms");
    report.set("hit_p99_ms", hitP99, "ms");
    report.set("miss_p50_ms", missP50, "ms");
    report.set("miss_p99_ms", missP99, "ms");
    report.set("miss_d8_p50_ms", d8P50, "ms");
    report.set("sim.self_s", 1e-3 * timer("sim", "mean_ms") * simCount, "s");
    report.set("sim.calls", counters.delta("sim.kernels"), "count");
    report.set("sim.cycles", counters.delta("sim.cycles_simulated"), "cycles");
    report.set("sim.insts", counters.delta("sim.sm.insts_issued"), "count");
    report.set("sim.cycles_per_cpu_s",
               cyclesPerCpuSec(sim, nominal, Kind::Miss, 40), "cycles/s");
    report.set("sim.d8_cycles_per_cpu_s",
               cyclesPerCpuSec(sim, nominal, Kind::MissD8, 12), "cycles/s");
    report.set("core.evaluations",
               counters.delta("model.kernel_evaluations"), "count");
    report.set("core.cache.reads", lookups, "count");
    report.set("core.cache.hit_ratio",
               lookups > 0 ? counters.delta("cache.hits") / lookups : 0,
               "ratio");
    report.set("core.cache.writes", counters.delta("cache.writes"), "count");
    report.set("service.decode_us", decodeUs, "us");
    report.set("service.encode_us", encodeUs, "us");
    report.set("service.e2e_p50_ms", timer("e2e", "p50_ms"), "ms");
    report.set("service.e2e_p99_ms", timer("e2e", "p99_ms"), "ms");
    report.set("service.flush_gap_ms", hitP50 - 1e-3 * (decodeUs + encodeUs),
               "ms");
    report.set("service.queue_wait_p50_ms", timer("queue_wait", "p50_ms"),
               "ms");
    report.set("service.queue_wait_p99_ms", timer("queue_wait", "p99_ms"),
               "ms");
    report.set("service.sim_p50_ms", timer("sim", "p50_ms"), "ms");
    report.set("service.sim_p99_ms", timer("sim", "p99_ms"), "ms");
    report.set("service.memo_hit_ratio",
               delta("memo_hits") / static_cast<double>(count), "ratio");
    report.set("service.coalesced", delta("coalesced"), "count");
    report.set("service.admitted", delta("admitted"), "count");
    report.set("service.shed", delta("shed"), "count");
    report.set("service.degraded", delta("degraded"), "count");
    report.set("service.deadline", delta("deadline"), "count");
    report.set("bench.coverage",
               e2eMean > 0 ? (timer("queue_wait", "mean_ms") +
                              timer("sim", "mean_ms")) /
                                 e2eMean
                           : 0,
               "ratio");
    report.set("bench.gen_late_p99_ms", 1e3 * late99, "ms");
    report.set("bench.gen_cpu_s", r.genCpuSec, "s");
    return 0;
}

} // namespace perfbench
