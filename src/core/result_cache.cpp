#include "core/result_cache.hpp"

#include <chrono>
#include <cstdlib>
#include <fcntl.h>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "hw/fault_injector.hpp"
#include "hw/nsight.hpp"
#include "hw/nvml.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace fs = std::filesystem;

namespace aw {

namespace {

/** Round-trippable double spelling, shared with the stored values so a
 *  key is stable across platforms that print doubles differently. */
std::string
num(double v)
{
    return obs::jsonNumber(v);
}

std::string
hex16(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
describeCacheGeometry(const CacheGeometry &c)
{
    std::ostringstream os;
    os << c.sizeKb << '/' << c.lineBytes << '/' << c.ways << '/'
       << num(c.latencyCycles);
    return os.str();
}

// --- KernelActivity <-> JSON -----------------------------------------------

void
appendSampleJson(std::ostringstream &os, const ActivitySample &s)
{
    os << "{\"cycles\":" << num(s.cycles) << ",\"freqGhz\":"
       << num(s.freqGhz) << ",\"voltage\":" << num(s.voltage)
       << ",\"accesses\":[";
    for (size_t i = 0; i < s.accesses.size(); ++i)
        os << (i ? "," : "") << num(s.accesses[i]);
    os << "],\"avgActiveSms\":" << num(s.avgActiveSms)
       << ",\"avgActiveLanesPerWarp\":" << num(s.avgActiveLanesPerWarp)
       << ",\"unitInsts\":[";
    for (size_t i = 0; i < s.unitInsts.size(); ++i)
        os << (i ? "," : "") << num(s.unitInsts[i]);
    os << "],\"intAddInsts\":" << num(s.intAddInsts)
       << ",\"intMulInsts\":" << num(s.intMulInsts) << "}";
}

} // namespace

std::string
activityToJson(const KernelActivity &a)
{
    std::ostringstream os;
    os << "{\"kernelName\":\"" << obs::jsonEscape(a.kernelName)
       << "\",\"totalCycles\":" << num(a.totalCycles)
       << ",\"elapsedSec\":" << num(a.elapsedSec) << ",\"samples\":[";
    for (size_t i = 0; i < a.samples.size(); ++i) {
        if (i)
            os << ",";
        appendSampleJson(os, a.samples[i]);
    }
    os << "]}";
    return os.str();
}

namespace {

bool
getNumber(const obs::JsonValue &obj, const char *key, double &out)
{
    const obs::JsonValue *v = obj.find(key);
    if (!v || !v->isNumber())
        return false;
    out = v->number;
    return true;
}

template <typename Array>
bool
getFixedArray(const obs::JsonValue &obj, const char *key, Array &out)
{
    const obs::JsonValue *v = obj.find(key);
    if (!v || !v->isArray() || v->array.size() != out.size())
        return false;
    for (size_t i = 0; i < out.size(); ++i) {
        if (!v->array[i].isNumber())
            return false;
        out[i] = v->array[i].number;
    }
    return true;
}

bool
sampleFromJson(const obs::JsonValue &v, ActivitySample &out)
{
    if (!v.isObject())
        return false;
    return getNumber(v, "cycles", out.cycles) &&
           getNumber(v, "freqGhz", out.freqGhz) &&
           getNumber(v, "voltage", out.voltage) &&
           getFixedArray(v, "accesses", out.accesses) &&
           getNumber(v, "avgActiveSms", out.avgActiveSms) &&
           getNumber(v, "avgActiveLanesPerWarp",
                     out.avgActiveLanesPerWarp) &&
           getFixedArray(v, "unitInsts", out.unitInsts) &&
           getNumber(v, "intAddInsts", out.intAddInsts) &&
           getNumber(v, "intMulInsts", out.intMulInsts);
}

// The text decoder walks the bytes appendSampleJson / activityToJson
// write, literal by literal: each member's name and the punctuation
// before it are one expected literal.

void
expectLiteral(obs::JsonCursor &cur, std::string_view lit)
{
    if (!cur.consumeLiteral(lit))
        cur.die("unexpected member");
}

double
numberAfter(obs::JsonCursor &cur, std::string_view lit)
{
    expectLiteral(cur, lit);
    return cur.number();
}

template <typename Array>
void
fixedArrayAfter(obs::JsonCursor &cur, std::string_view lit, Array &out)
{
    expectLiteral(cur, lit);
    cur.expect('[');
    for (size_t i = 0; i < out.size(); ++i) {
        if (i)
            cur.expect(',');
        out[i] = cur.number();
    }
    cur.expect(']');
}

void
readSample(obs::JsonCursor &cur, ActivitySample &s)
{
    s.cycles = numberAfter(cur, "{\"cycles\":");
    s.freqGhz = numberAfter(cur, ",\"freqGhz\":");
    s.voltage = numberAfter(cur, ",\"voltage\":");
    fixedArrayAfter(cur, ",\"accesses\":", s.accesses);
    s.avgActiveSms = numberAfter(cur, ",\"avgActiveSms\":");
    s.avgActiveLanesPerWarp =
        numberAfter(cur, ",\"avgActiveLanesPerWarp\":");
    fixedArrayAfter(cur, ",\"unitInsts\":", s.unitInsts);
    s.intAddInsts = numberAfter(cur, ",\"intAddInsts\":");
    s.intMulInsts = numberAfter(cur, ",\"intMulInsts\":");
    cur.expect('}');
}

} // namespace

bool
activityFromJson(const obs::JsonValue &v, KernelActivity &out)
{
    if (!v.isObject())
        return false;
    const obs::JsonValue *name = v.find("kernelName");
    const obs::JsonValue *samples = v.find("samples");
    if (!name || !name->isString() || !samples || !samples->isArray())
        return false;
    out.kernelName = name->str;
    if (!getNumber(v, "totalCycles", out.totalCycles) ||
        !getNumber(v, "elapsedSec", out.elapsedSec))
        return false;
    out.samples.clear();
    out.samples.reserve(samples->array.size());
    for (const auto &s : samples->array) {
        ActivitySample sample;
        if (!sampleFromJson(s, sample))
            return false;
        out.samples.push_back(sample);
    }
    return true;
}

bool
activityFromJson(std::string_view text, KernelActivity &out)
{
    obs::JsonCursor cur{text};
    KernelActivity a;
    try {
        expectLiteral(cur, "{\"kernelName\":");
        cur.string(a.kernelName);
        a.totalCycles = numberAfter(cur, ",\"totalCycles\":");
        a.elapsedSec = numberAfter(cur, ",\"elapsedSec\":");
        expectLiteral(cur, ",\"samples\":[");
        if (!cur.consume(']')) {
            do
                readSample(cur, a.samples.emplace_back());
            while (cur.consume(','));
            cur.expect(']');
        }
        cur.expect('}');
    } catch (const obs::JsonError &) {
        return false;
    }
    if (cur.pos != text.size())
        return false;
    out = std::move(a);
    return true;
}

uint64_t
fnv1a64(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

std::string
describeGpuConfig(const GpuConfig &g)
{
    std::ostringstream os;
    os << "gpu{" << g.name << ";sms=" << g.numSms << ";sub="
       << g.subcoresPerSm << ";lanes=" << g.lanesPerSm << ";maxwps="
       << g.maxWarpsPerSubcore << ";ws=" << g.warpSize << ";int="
       << g.int32PerSubcore << ";fp=" << g.fp32PerSubcore << ";dp="
       << g.fp64PerSubcore << ";sfu=" << g.sfuPerSubcore << ";tc="
       << g.tensorPerSubcore << ";ldst=" << g.ldstPerSubcore << ";hasTc="
       << (g.hasTensorCores ? 1 : 0) << ";l0i="
       << describeCacheGeometry(g.l0i) << ";l1i="
       << describeCacheGeometry(g.l1i) << ";l1d="
       << describeCacheGeometry(g.l1d) << ";cl1="
       << describeCacheGeometry(g.constL1) << ";l2="
       << describeCacheGeometry(g.l2) << ";shm=" << g.sharedMemKbPerSm
       << ";rf=" << g.regFileKbPerSubcore << ";l2bw="
       << num(g.l2BandwidthGBs) << ";drambw=" << num(g.dramBandwidthGBs)
       << ";dramlat=" << num(g.dramLatencyCycles) << ";noclat="
       << num(g.nocLatencyCycles) << ";clk=" << num(g.defaultClockGhz)
       << ";vf=" << num(g.vf.v0) << '+' << num(g.vf.slope) << '*'
       << num(g.vf.fMinGhz) << ".." << num(g.vf.fMaxGhz) << ";plim="
       << num(g.powerLimitW) << ";node=" << g.techNodeNm << "}";
    return os.str();
}

std::string
describeSimOptions(const SimOptions &o)
{
    std::ostringstream os;
    os << "sim{freq=" << num(o.freqGhz) << ";interval="
       << o.sampleIntervalCycles << ";max=" << o.maxCycles << ";sched="
       << static_cast<int>(o.scheduler);
    // Detail groups change simulation *results* (distinct SM groups
    // with decorrelated address streams) and therefore the key; thread
    // count never does and must stay out so warm caches survive any
    // AW_SIM_THREADS setting. The default detail (1) is omitted so
    // existing cache entries and golden keys stay byte-identical.
    if (int detail = effectiveSimDetail(o); detail > 1)
        os << ";detail=" << detail;
    os << "}";
    return os.str();
}

ResultCache::ResultCache()
{
    const char *toggle = std::getenv("AW_CACHE");
    if (toggle &&
        (std::string(toggle) == "off" || std::string(toggle) == "0" ||
         std::string(toggle) == "false"))
        enabled_ = false;
    const char *dir = std::getenv("AW_CACHE_DIR");
    dir_ = dir && *dir ? dir : "results/cache";
}

ResultCache &
ResultCache::instance()
{
    // Leaked on purpose: measurements may still store results while
    // other static destructors run.
    static ResultCache *cache = new ResultCache;
    return *cache;
}

void
ResultCache::configure(std::string directory)
{
    dir_ = std::move(directory);
}

namespace {

std::string
entryPathIn(const std::string &dir, const std::string &key)
{
    return dir + "/" + hex16(fnv1a64(key)) + ".json";
}

} // namespace

std::string
ResultCache::pathFor(const std::string &key) const
{
    return entryPathIn(dir_, key);
}

namespace {

/** The one number that fills `text` (a power entry's value) into
 *  `out`; false, leaving `out` untouched, on anything else. */
bool
numberFromText(std::string_view text, double &out)
{
    obs::JsonCursor cur{text};
    try {
        const double v = cur.number();
        if (cur.pos != text.size())
            return false;
        out = v;
        return true;
    } catch (const obs::JsonError &) {
        return false;
    }
}

/** Read the whole file at `path` with one open, an fstat for its size
 *  and one read; false when it cannot be opened. */
bool
readWholeFile(const std::string &path, std::string &out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st{};
    const size_t size =
        ::fstat(fd, &st) == 0 ? static_cast<size_t>(st.st_size) : 0;
    out.resize(size);
    size_t done = 0;
    while (done < size) {
        const ssize_t n = ::read(fd, out.data() + done, size - done);
        if (n > 0)
            done += static_cast<size_t>(n);
        else if (n == 0 || errno != EINTR)
            break;
    }
    ::close(fd);
    out.resize(done);
    return true;
}

/**
 * Shared fetch. Reads the entry once and walks it in the order
 * storeEntryIn writes it — schema, kind, key, vcrc, value — judging it
 * by its first defect:
 *   - another schema: removed silently (the writer will replace it);
 *   - another kind or key: an FNV collision or a foreign file named
 *     like our hash, warned about and kept. Checked before the
 *     integrity gates, so a foreign entry is never removed as "ours
 *     but damaged";
 *   - any other departure from the written layout: corrupt, removed;
 *   - value text whose FNV-1a differs from vcrc: torn (and corrupt),
 *     removed. A payload truncated or bit-flipped by an interrupted
 *     write can still decode; the checksum convicts it regardless.
 * The verified value text, exactly the bytes the writer checksummed,
 * then goes to `decode(std::string_view) -> bool`; text it cannot read
 * is corrupt and removed. Every false return counts a miss.
 */
template <typename Decode>
bool
fetchEntryIn(const std::string &dir, const std::string &key,
             const char *kind, Decode &&decode)
{
    auto &reg = obs::metrics();
    const std::string path = entryPathIn(dir, key);
    auto miss = [&] {
        reg.counter("cache.misses").add(1);
        return false;
    };
    auto remove = [&] {
        std::error_code ec;
        fs::remove(path, ec);
    };
    auto corrupt = [&](const char *what) {
        warn("result cache: %s %s; removing", what, path.c_str());
        remove();
        reg.counter("cache.corrupt").add(1);
        return miss();
    };

    std::string text;
    if (!readWholeFile(path, text))
        return miss();
    obs::JsonCursor cur{text};
    std::string field, vcrc;
    std::string_view value;
    try {
        expectLiteral(cur, "{\"schema\":");
        if (cur.number() != kResultCacheSchemaVersion) {
            remove(); // stale: silently discard; the writer replaces it
            return miss();
        }
        expectLiteral(cur, ",\"kind\":");
        cur.string(field);
        const bool kindMatches = field == kind;
        expectLiteral(cur, ",\"key\":");
        cur.string(field);
        if (!kindMatches || field != key) {
            warn("result cache: key collision on %s; ignoring entry",
                 path.c_str());
            return miss();
        }
        expectLiteral(cur, ",\"vcrc\":");
        cur.string(vcrc);
        expectLiteral(cur, ",\"value\":");
        // The value runs to the entry's closing brace, after which only
        // whitespace (the writer's newline) may follow.
        const size_t close = text.find_last_not_of(" \t\n\r");
        if (close == std::string::npos || close < cur.pos ||
            text[close] != '}')
            cur.die("no closing brace after the value");
        value = std::string_view(text).substr(cur.pos, close - cur.pos);
    } catch (const obs::JsonError &) {
        return corrupt("malformed entry");
    }
    if (hex16(fnv1a64(value)) != vcrc) {
        reg.counter("cache.torn").add(1);
        return corrupt("torn entry (value checksum mismatch)");
    }
    if (!decode(value))
        return corrupt("unreadable value in");
    reg.counter("cache.hits").add(1);
    return true;
}

/** A lock this old belongs to a writer that crashed mid-store. */
constexpr double kStaleLockSec = 10.0;

/**
 * The mutex that serializes this process's stores. Threads of one
 * process would otherwise create, write and rename entries in one
 * directory at once and contend for its lock inside the kernel, which
 * costs more CPU than the stores themselves; a waiter on this mutex
 * sleeps instead. Leaked on purpose, like ResultCache::instance().
 */
std::mutex &
storeMutex()
{
    static std::mutex *mu = new std::mutex;
    return *mu;
}

/**
 * Per-entry multi-process write lock: `<hash>.json.lock` taken with
 * O_CREAT|O_EXCL, the only primitive POSIX guarantees to be atomic on
 * every filesystem. The lock file is also the entry's temp file: its
 * holder writes the payload into the returned descriptor and renames
 * the lock onto the entry, so one rename publishes the entry and
 * releases the lock. Two awd daemon workers (separate processes)
 * racing the same key serialize here instead of interleaving bytes or
 * renames. A lock older than kStaleLockSec is stolen — its owner
 * crashed mid-store and left a partial payload that no reader opens —
 * so a killed daemon can never wedge the cache. (Two writers stealing
 * one stale lock at once can both proceed; if one renames the other's
 * unfinished file into place, the reader's vcrc check convicts it.)
 * Acquisition failure is not an error: entries are content-addressed,
 * so whoever holds the lock is writing the identical bytes and the
 * loser simply skips its redundant store. Returns the descriptor with
 * `serial` (on storeMutex()) locked, or -1 with it unlocked to skip the
 * store. `serial` is never held across the backoff sleep, so a store
 * waiting out another process's lock does not stall this process's
 * other stores.
 */
int
acquireEntryLock(const std::string &lockPath,
                 std::unique_lock<std::mutex> &serial)
{
    for (int attempt = 0; attempt < 50; ++attempt) {
        serial.lock();
        int fd = ::open(lockPath.c_str(), O_CREAT | O_EXCL | O_WRONLY,
                        0666);
        if (fd >= 0)
            return fd;
        const int err = errno;
        serial.unlock();
        if (err != EEXIST)
            return -1;
        if (attempt == 0)
            obs::metrics().counter("cache.lock_contended").add(1);
        // Steal a stale lock left by a crashed writer.
        std::error_code ec;
        auto mtime = fs::last_write_time(lockPath, ec);
        if (!ec) {
            auto age = std::chrono::duration<double>(
                           fs::file_time_type::clock::now() - mtime)
                           .count();
            if (age > kStaleLockSec) {
                warn("result cache: stealing stale lock %s (%.0fs old)",
                     lockPath.c_str(), age);
                fs::remove(lockPath, ec);
                continue;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    obs::metrics().counter("cache.lock_skipped").add(1);
    return -1;
}

void
storeEntryIn(const std::string &dir, const std::string &key,
             const char *kind, const std::string &valueJson)
{
    // `value` is the last member on purpose: a truncated file loses the
    // payload first, and the vcrc checksum (FNV-1a of the raw value
    // text) convicts any remains that still happen to parse.
    std::string payload;
    {
        std::ostringstream os;
        os << "{\"schema\":" << kResultCacheSchemaVersion
           << ",\"kind\":\"" << kind << "\",\"key\":\""
           << obs::jsonEscape(key) << "\",\"vcrc\":\""
           << hex16(fnv1a64(valueJson)) << "\",\"value\":" << valueJson
           << "}\n";
        payload = os.str();
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::string path = entryPathIn(dir, key);
    std::string lockPath = path + ".lock";
    // Create, write and rename under storeMutex(); `serial` releases it
    // on every early return. Nothing between here and close() throws,
    // so the descriptor cannot leak.
    std::unique_lock<std::mutex> serial(storeMutex(), std::defer_lock);
    int fd = acquireEntryLock(lockPath, serial);
    if (fd < 0) {
        AW_DEBUGF("core", "result cache: store of %s skipped (lock held "
                  "by a concurrent writer)", path.c_str());
        return;
    }
    size_t done = 0;
    while (done < payload.size()) {
        ssize_t n = ::write(fd, payload.data() + done, payload.size() - done);
        if (n > 0)
            done += static_cast<size_t>(n);
        else if (n == 0 || errno != EINTR)
            break;
    }
    if (::close(fd) != 0 || done != payload.size()) {
        warn("result cache: cannot write %s", lockPath.c_str());
        fs::remove(lockPath, ec);
        return;
    }
    // Atomic publish: a concurrent reader sees the old entry or the new
    // one, never a torn file.
    fs::rename(lockPath, path, ec);
    if (ec) {
        warn("result cache: cannot publish %s: %s", path.c_str(),
             ec.message().c_str());
        fs::remove(lockPath, ec);
        return;
    }
    serial.unlock();
    obs::metrics().counter("cache.writes").add(1);

    // Fault injection: simulate a torn write (crash on a filesystem
    // whose rename is not atomic) by truncating the published entry.
    // Stateless in (chaos seed, key), so the same keys tear on every
    // run regardless of thread count — and the reader's recovery path
    // is exercised deterministically.
    FaultConfig cfg = FaultInjector::globalConfig();
    double rate = cfg.rate(FaultClass::CacheCorrupt);
    if (rate > 0) {
        uint64_t salt = fnv1a64(key);
        if (faultRoll(cfg.seed, FaultClass::CacheCorrupt, salt) < rate) {
            double frac =
                0.2 + 0.6 * faultRoll(cfg.seed, FaultClass::CacheCorrupt,
                                      splitmix64(salt));
            auto cut = static_cast<uintmax_t>(
                static_cast<double>(payload.size()) * frac);
            fs::resize_file(path, cut, ec);
            obs::metrics()
                .counter("faults.injected.cache_corrupt")
                .add(1);
            AW_DEBUGF("core", "fault: tore cache entry %s at %ju/%zu "
                      "bytes", path.c_str(), cut, payload.size());
        }
    }
}

} // namespace

std::string
FileEntryStore::pathFor(const std::string &key) const
{
    return entryPathIn(dir_, key);
}

bool
FileEntryStore::fetchText(const std::string &key, const char *kind,
                          std::string &valueOut)
{
    return fetchEntryIn(dir_, key, kind, [&](std::string_view value) {
        valueOut.assign(value);
        return true;
    });
}

void
FileEntryStore::storeText(const std::string &key, const char *kind,
                          const std::string &valueJson)
{
    storeEntryIn(dir_, key, kind, valueJson);
}

bool
ResultCache::fetchPower(const std::string &key, double &out)
{
    if (!enabled())
        return false;
    return fetchEntryIn(directory(), key, "power",
                        [&](std::string_view value) {
                            return numberFromText(value, out);
                        });
}

void
ResultCache::storePower(const std::string &key, double value)
{
    if (!enabled())
        return;
    storeEntryIn(directory(), key, "power", num(value));
}

bool
ResultCache::fetchActivity(const std::string &key, KernelActivity &out)
{
    if (!enabled())
        return false;
    return fetchEntryIn(directory(), key, "activity",
                        [&](std::string_view value) {
                            return activityFromJson(value, out);
                        });
}

void
ResultCache::storeActivity(const std::string &key, const KernelActivity &act)
{
    if (!enabled())
        return;
    storeEntryIn(directory(), key, "activity", activityToJson(act));
}

namespace {

/**
 * Key suffix for fault-injected runs: results measured under chaos are
 * perturbed, so they must never collide with (or poison) the clean
 * cache. The canonical spec includes the seed, so two chaos campaigns
 * with different seeds are also kept apart. Empty when faults are off —
 * keys (and thus warm caches) are bit-identical to the historical ones.
 */
std::string
faultKeySuffix()
{
    FaultConfig cfg = FaultInjector::globalConfig();
    if (!cfg.enabled())
        return "";
    return ";faults{" + cfg.describe() + "}";
}

} // namespace

std::string
powerMeasurementKey(const SiliconOracle &oracle,
                    const KernelDescriptor &desc, double lockedFreqGhz,
                    int repetitions)
{
    std::ostringstream os;
    os << "power;card=" << hex16(oracle.cacheSalt()) << ";"
       << describeGpuConfig(oracle.config()) << ";" << describeKernel(desc)
       << ";lock=" << num(lockedFreqGhz) << ";reps=" << repetitions
       << faultKeySuffix();
    return os.str();
}

std::string
activityKey(const ActivityProvider &provider, const KernelDescriptor &desc,
            const MeasurementConditions &cond)
{
    std::ostringstream os;
    os << "activity;variant=" << variantName(provider.variant());
    if (provider.variant() == Variant::Hybrid) {
        os << ";hybrid=[";
        const auto &comps = provider.hybridComponents();
        for (size_t i = 0; i < comps.size(); ++i)
            os << (i ? "," : "") << static_cast<int>(comps[i]);
        os << "]";
    }
    // HW counters observe the card, so its hidden identity keys those
    // variants; the pure-software variants depend only on the config.
    if ((provider.variant() == Variant::Hw ||
         provider.variant() == Variant::Hybrid) &&
        provider.nsight())
        os << ";card=" << hex16(provider.nsight()->oracle().cacheSalt());
    os << ";" << describeGpuConfig(provider.sim().gpu()) << ";"
       << describeKernel(desc) << ";" << describeConditions(cond);
    // Only the counter-backed variants see injected faults; the pure
    // software variants stay on the clean keys.
    if (provider.variant() == Variant::Hw ||
        provider.variant() == Variant::Hybrid)
        os << faultKeySuffix();
    return os.str();
}

std::string
sassRunKey(const GpuSimulator &sim, const KernelDescriptor &desc,
           const SimOptions &opts)
{
    std::ostringstream os;
    os << "sass;" << describeGpuConfig(sim.gpu()) << ";"
       << describeKernel(desc) << ";" << describeSimOptions(opts);
    return os.str();
}

namespace {

/** Salt distinguishing the fault stream's seed from the NVML noise
 *  seed, both of which derive from the same cache key. */
constexpr uint64_t kFaultStreamSalt = 0xFA017ULL;

} // namespace

Result<double>
tryMeasurePowerCached(const SiliconOracle &oracle,
                      const KernelDescriptor &desc, double lockedFreqGhz,
                      int repetitions)
{
    std::string key =
        powerMeasurementKey(oracle, desc, lockedFreqGhz, repetitions);
    auto &cache = ResultCache::instance();
    double value = 0;
    if (cache.fetchPower(key, value))
        return value;
    // One fault stream per measurement, seeded from the cache key just
    // like the noise stream: which faults fire depends only on *what*
    // is measured, never on thread count or campaign order, and a
    // replayed measurement reproduces the identical fault sequence.
    // The stream is shared across retry attempts, so each attempt
    // advances it — a retry can clear a transient fault.
    FaultStream faults(FaultInjector::globalConfig(),
                       splitmix64(fnv1a64(key) ^ kFaultStreamSalt));
    const uint64_t noiseSeed = splitmix64(fnv1a64(key) ^ 0xA11CEULL);
    Result<double> r = retryWithPolicy<double>(
        defaultRetryPolicy(), desc.name.c_str(), [&](int attempt) {
            // Fresh session per attempt — a driver reset tears down the
            // old one (and its clock lock). Attempt 0 keeps the
            // historical noise seed so fault-free runs stay
            // bit-identical; later attempts (which only exist under
            // faults) re-seed so they draw fresh noise.
            uint64_t seed = attempt == 0
                                ? noiseSeed
                                : splitmix64(noiseSeed +
                                             static_cast<uint64_t>(attempt));
            NvmlEmu session(oracle, seed);
            if (faults.active())
                session.setFaultStream(&faults);
            if (lockedFreqGhz > 0)
                session.lockClocks(lockedFreqGhz);
            return session.tryMeasureAveragePowerW(desc, repetitions);
        });
    if (r)
        cache.storePower(key, *r);
    return r;
}

double
measurePowerCached(const SiliconOracle &oracle, const KernelDescriptor &desc,
                   double lockedFreqGhz, int repetitions)
{
    Result<double> r =
        tryMeasurePowerCached(oracle, desc, lockedFreqGhz, repetitions);
    if (!r)
        fatal("%s", r.error().message.c_str());
    return *r;
}

KernelActivity
collectActivityCached(const ActivityProvider &provider,
                      const KernelDescriptor &desc,
                      const MeasurementConditions &cond)
{
    std::string key = activityKey(provider, desc, cond);
    auto &cache = ResultCache::instance();
    KernelActivity act;
    if (cache.fetchActivity(key, act))
        return act;
    FaultStream faults(FaultInjector::globalConfig(),
                       splitmix64(fnv1a64(key) ^ kFaultStreamSalt));
    Result<KernelActivity> r = retryWithPolicy<KernelActivity>(
        defaultRetryPolicy(), desc.name.c_str(), [&](int) {
            return provider.tryCollect(
                desc, cond, faults.active() ? &faults : nullptr);
        });
    if (r) {
        act = std::move(*r);
    } else {
        // Nsight is persistently down for this kernel: fall back to the
        // pure software activity model (HW -> SASS SIM, Section 5.2's
        // accuracy ordering makes this the best available substitute)
        // rather than killing the campaign.
        warn("%s activity for %s unavailable (%s); falling back to "
             "SASS SIM",
             variantName(provider.variant()).c_str(), desc.name.c_str(),
             r.error().message.c_str());
        obs::metrics().counter("activity.variant_fallbacks").add(1);
        SimOptions opts;
        opts.freqGhz = cond.freqGhz;
        act = runSassCached(provider.sim(), desc, opts);
    }
    cache.storeActivity(key, act);
    return act;
}

KernelActivity
runSassCached(const GpuSimulator &sim, const KernelDescriptor &desc,
              const SimOptions &opts)
{
    std::string key = sassRunKey(sim, desc, opts);
    auto &cache = ResultCache::instance();
    KernelActivity act;
    if (cache.fetchActivity(key, act))
        return act;
    act = sim.runSass(desc, opts);
    // A deadline-cancelled run produced a partial activity stream —
    // return it (the caller is about to discard it anyway) but never
    // let it poison the cache.
    if (!lastSimRunStats().cancelled)
        cache.storeActivity(key, act);
    return act;
}

} // namespace aw
