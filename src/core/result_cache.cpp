#include "core/result_cache.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <filesystem>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>
#include <unordered_map>

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

// --- pack files --------------------------------------------------------------

namespace {

/** Record framing; result_cache.hpp ("Layout") documents it. */
constexpr char kRecordMagic[4] = {'A', 'W', 'R', '1'};
constexpr size_t kHeaderBytes = 24;

/**
 * A directory whose mtime lies within this much of the clock at which it
 * was listed may change again within the same tick of the filesystem's
 * clock without its mtime moving, so such a listing is repeated on the
 * next miss rather than trusted.
 */
constexpr int64_t kRacyListingNs = 100'000'000;

struct RecordHeader
{
    uint32_t length = 0; ///< envelope bytes after the header
    uint64_t keyHash = 0;
    uint64_t stamp = 0;
};

/** One index entry: where a record lives. No heap behind it. */
struct PackRecord
{
    uint64_t keyHash;
    uint64_t stamp;
    uint64_t offset; ///< of the record's header within its pack
    uint32_t length; ///< envelope bytes
    uint32_t pack;   ///< slot in PackDir::packs_
};
static_assert(sizeof(PackRecord) == 32);

void
putLe(char *p, uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        p[i] = static_cast<char>(v >> (8 * i));
}

uint64_t
getLe(const char *p, int bytes)
{
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

void
encodeHeader(char *out, const RecordHeader &h)
{
    std::memcpy(out, kRecordMagic, sizeof kRecordMagic);
    putLe(out + 4, h.length, 4);
    putLe(out + 8, h.keyHash, 8);
    putLe(out + 16, h.stamp, 8);
}

/** False on a bad magic. */
bool
decodeHeader(const char *in, RecordHeader &h)
{
    if (std::memcmp(in, kRecordMagic, sizeof kRecordMagic) != 0)
        return false;
    h.length = static_cast<uint32_t>(getLe(in + 4, 4));
    h.keyHash = getLe(in + 8, 8);
    h.stamp = getLe(in + 16, 8);
    return true;
}

int64_t
realtimeNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/** All `n` bytes at `offset`, or false. */
bool
preadFull(int fd, char *buf, size_t n, uint64_t offset)
{
    size_t done = 0;
    while (done < n) {
        const ssize_t got = ::pread(fd, buf + done, n - done,
                                    static_cast<off_t>(offset + done));
        if (got > 0)
            done += static_cast<size_t>(got);
        else if (got == 0 || errno != EINTR)
            return false;
    }
    return true;
}

bool
pwriteFull(int fd, const char *buf, size_t n, uint64_t offset)
{
    size_t done = 0;
    while (done < n) {
        const ssize_t put = ::pwrite(fd, buf + done, n - done,
                                     static_cast<off_t>(offset + done));
        if (put > 0)
            done += static_cast<size_t>(put);
        else if (put == 0 || errno != EINTR)
            return false;
    }
    return true;
}

/** One pack file as this process sees it. */
struct Pack
{
    std::string name;   ///< file name inside the directory
    ino_t inode = 0;    ///< with the name, what identifies the pack
    int fd = -1;        ///< read-write for the writer, read-only otherwise
    pid_t writer = 0;   ///< the process that appends to it; 0 if foreign
    uint64_t end = 0;   ///< bytes indexed: where the next append or scan starts
    bool stuck = false; ///< a bad magic ended its scan for good
    std::atomic<bool> vanished{false};

    Pack() = default;
    Pack(const Pack &) = delete;
    Pack &operator=(const Pack &) = delete;
    ~Pack()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /** Appends go through this process (a forked child's parent pack
     *  is foreign to the child). */
    bool own() const { return writer == ::getpid(); }
};

/**
 * Index the complete records of `p` between p.end and `size`, reading
 * headers only, into `out`. A record that runs past `size` is a tail
 * still being written: the scan stops there and resumes on a later
 * call. A bad magic ends the scan of `p` for good.
 */
void
scanPack(const std::string &dir, Pack &p, uint64_t size,
         std::vector<PackRecord> &out, uint32_t slot)
{
    constexpr uint64_t kChunk = 64 * 1024;
    std::string buf;
    uint64_t bufAt = 0;
    uint64_t pos = p.end;
    while (!p.stuck && pos + kHeaderBytes <= size) {
        if (pos < bufAt || pos + kHeaderBytes > bufAt + buf.size()) {
            buf.resize(static_cast<size_t>(std::min(kChunk, size - pos)));
            if (!preadFull(p.fd, buf.data(), buf.size(), pos))
                break;
            bufAt = pos;
        }
        RecordHeader h;
        if (!decodeHeader(buf.data() + (pos - bufAt), h)) {
            warn("result cache: bad record magic in %s/%s at offset %llu; "
                 "ignoring the rest of that pack",
                 dir.c_str(), p.name.c_str(),
                 static_cast<unsigned long long>(pos));
            obs::metrics().counter("cache.corrupt").add(1);
            p.stuck = true;
            break;
        }
        const uint64_t next = pos + kHeaderBytes + h.length;
        if (next > size)
            break;
        out.push_back({h.keyHash, h.stamp, pos, h.length, slot});
        pos = next;
    }
    p.end = pos;
}

/** Start of a key hash's probe sequence in a table of mask + 1 slots. */
size_t
home(uint64_t keyHash, size_t mask)
{
    return static_cast<size_t>(keyHash ^ (keyHash >> 29)) & mask;
}

} // namespace

/**
 * The process-wide index of one cache directory: every pack in it, and
 * one fixed-size PackRecord per indexed record in an open-addressing
 * table keyed by the key hash. Lock order: writeMu_, refreshMu_,
 * indexMu_.
 */
class PackDir
{
  public:
    /** A record that may hold a key, and the pack that holds it: the
     *  reference keeps the pack's fd open while a reader preads it
     *  outside the lock, even if a re-list drops the pack meanwhile. */
    struct Candidate
    {
        PackRecord rec;
        std::shared_ptr<Pack> pack;
    };

    /** The index of `dir`, created on first use and leaked on purpose,
     *  like ResultCache::instance(). */
    static PackDir &of(const std::string &dir);

    explicit PackDir(std::string dir) : dir_(std::move(dir)) {}

    /** Re-list the directory: drop the records of packs that vanished,
     *  index new ones, keep the rest. */
    void relist()
    {
        std::lock_guard<std::mutex> lock(refreshMu_);
        relistLocked();
    }

    /** The records hashed like `keyHash`, newest first: the greatest
     *  (stamp, pack name, offset) leads. */
    void candidates(uint64_t keyHash, std::vector<Candidate> &out);

    /** Header and envelope of `c` into `buf`; false when the pack ends
     *  first. */
    bool read(const Candidate &c, std::string &buf) const
    {
        buf.resize(kHeaderBytes + c.rec.length);
        return preadFull(c.pack->fd, buf.data(), buf.size(), c.rec.offset);
    }

    /** Forget `c`; the bytes stay in its pack. */
    void drop(const Candidate &c);

    /** After a miss: pick up packs other processes created and records
     *  they appended since the last look. */
    void refresh();

    /** Append `record` (kHeaderBytes reserved, then the envelope) to
     *  this process's pack, filling in its header. */
    bool append(uint64_t keyHash, std::string &record);

    /** "<dir>/<pack> at offset <n>", for warnings. */
    std::string where(const Candidate &c) const
    {
        return dir_ + "/" + c.pack->name + " at offset " +
               std::to_string(c.rec.offset);
    }

  private:
    static constexpr uint32_t kDropped = UINT32_MAX;

    void relistLocked();
    bool openWriterLocked();
    void insertLocked(const PackRecord &r);
    void rebuildLocked();
    void placeLocked(size_t record);

    const std::string dir_;

    std::shared_mutex indexMu_; ///< packs_, records_, slots_
    /** Null once vanished. Written under refreshMu_ and indexMu_ both,
     *  so either one guards a read. */
    std::vector<std::shared_ptr<Pack>> packs_;
    std::vector<PackRecord> records_;
    std::vector<uint32_t> slots_; ///< record index + 1; 0 is empty

    std::mutex refreshMu_; ///< listing state; one refresh at a time
    bool listed_ = false;
    struct stat dirStat_{}; ///< zeroed when the listing failed
    int64_t listedAtNs_ = 0;

    std::mutex writeMu_; ///< writer_, writerSlot_, lastStamp_, appends
    std::shared_ptr<Pack> writer_;
    uint32_t writerSlot_ = 0;
    uint64_t lastStamp_ = 0;
    bool warnedCreate_ = false;
};

PackDir &
PackDir::of(const std::string &dir)
{
    static auto *mu = new std::mutex;
    static auto *dirs =
        new std::unordered_map<std::string, std::unique_ptr<PackDir>>;
    std::lock_guard<std::mutex> lock(*mu);
    std::unique_ptr<PackDir> &slot = (*dirs)[dir];
    if (!slot)
        slot = std::make_unique<PackDir>(dir);
    return *slot;
}

void
PackDir::candidates(uint64_t keyHash, std::vector<Candidate> &out)
{
    out.clear();
    {
        std::shared_lock<std::shared_mutex> index(indexMu_);
        if (slots_.empty())
            return;
        const size_t mask = slots_.size() - 1;
        for (size_t i = home(keyHash, mask); slots_[i]; i = (i + 1) & mask) {
            const PackRecord &r = records_[slots_[i] - 1];
            if (r.keyHash == keyHash && r.pack != kDropped && packs_[r.pack])
                out.push_back({r, packs_[r.pack]});
        }
    }
    std::sort(out.begin(), out.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.rec.stamp != b.rec.stamp)
                      return a.rec.stamp > b.rec.stamp;
                  if (a.pack != b.pack)
                      return a.pack->name > b.pack->name;
                  return a.rec.offset > b.rec.offset;
              });
}

void
PackDir::drop(const Candidate &c)
{
    std::unique_lock<std::shared_mutex> index(indexMu_);
    const size_t mask = slots_.size() - 1;
    for (size_t i = home(c.rec.keyHash, mask); slots_[i]; i = (i + 1) & mask) {
        PackRecord &r = records_[slots_[i] - 1];
        if (r.pack == c.rec.pack && r.offset == c.rec.offset) {
            r.pack = kDropped;
            return;
        }
    }
}

void
PackDir::placeLocked(size_t record)
{
    const size_t mask = slots_.size() - 1;
    size_t i = home(records_[record].keyHash, mask);
    while (slots_[i])
        i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(record + 1);
}

void
PackDir::rebuildLocked()
{
    records_.erase(std::remove_if(records_.begin(), records_.end(),
                                  [&](const PackRecord &r) {
                                      return r.pack == kDropped ||
                                             !packs_[r.pack];
                                  }),
                   records_.end());
    size_t n = 64;
    while (n < 2 * (records_.size() + 1))
        n *= 2;
    slots_.assign(n, 0);
    for (size_t r = 0; r < records_.size(); ++r)
        placeLocked(r);
}

void
PackDir::insertLocked(const PackRecord &r)
{
    if (2 * (records_.size() + 1) > slots_.size())
        rebuildLocked();
    records_.push_back(r);
    placeLocked(records_.size() - 1);
}

void
PackDir::relistLocked()
{
    struct Listed
    {
        std::string name;
        ino_t inode;
    };
    std::vector<Listed> listed;
    listed_ = true;
    dirStat_ = {};
    listedAtNs_ = realtimeNs();
    if (DIR *d = ::opendir(dir_.c_str())) {
        // The mtime is read before the entries, so a change made while
        // they are read moves it past what is recorded here.
        if (::fstat(::dirfd(d), &dirStat_) != 0)
            dirStat_ = {};
        while (const dirent *e = ::readdir(d)) {
            struct stat st{};
            if (std::strncmp(e->d_name, "pack-", 5) == 0 &&
                ::fstatat(::dirfd(d), e->d_name, &st, 0) == 0 &&
                S_ISREG(st.st_mode))
                listed.push_back({e->d_name, st.st_ino});
        }
        ::closedir(d);
    }

    // A pack is its name and its inode: a file system may hand a
    // deleted pack's inode to the next file it creates.
    std::vector<uint32_t> gone;
    std::vector<const Listed *> added;
    auto same = [](const Pack &p, const Listed &l) {
        return p.name == l.name && p.inode == l.inode;
    };
    for (uint32_t s = 0; s < packs_.size(); ++s)
        if (packs_[s] &&
            std::none_of(listed.begin(), listed.end(),
                         [&](const Listed &l) { return same(*packs_[s], l); }))
            gone.push_back(s);
    for (const Listed &l : listed)
        if (std::none_of(packs_.begin(), packs_.end(),
                         [&](const std::shared_ptr<Pack> &p) {
                             return p && same(*p, l);
                         }))
            added.push_back(&l);

    std::vector<std::shared_ptr<Pack>> opened;
    std::vector<PackRecord> records;
    const auto firstSlot = static_cast<uint32_t>(packs_.size());
    for (const Listed *l : added) {
        const std::string path = dir_ + "/" + l->name;
        const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        struct stat st{};
        if (fd < 0)
            continue;
        auto p = std::make_shared<Pack>();
        p->name = l->name;
        p->fd = fd;
        if (::fstat(fd, &st) != 0)
            continue;
        p->inode = st.st_ino;
        scanPack(dir_, *p, static_cast<uint64_t>(st.st_size), records,
                 firstSlot + static_cast<uint32_t>(opened.size()));
        opened.push_back(std::move(p));
    }

    std::unique_lock<std::shared_mutex> index(indexMu_);
    for (uint32_t s : gone) {
        packs_[s]->vanished.store(true);
        packs_[s] = nullptr;
    }
    for (auto &p : opened)
        packs_.push_back(std::move(p));
    for (const PackRecord &r : records)
        insertLocked(r);
    if (!gone.empty())
        rebuildLocked();
}

void
PackDir::refresh()
{
    std::lock_guard<std::mutex> lock(refreshMu_);
    struct stat st{};
    const auto ns = [](const timespec &t) {
        return static_cast<int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
    };
    const bool relist =
        !listed_ || ::stat(dir_.c_str(), &st) != 0 ||
        st.st_dev != dirStat_.st_dev || st.st_ino != dirStat_.st_ino ||
        ns(st.st_mtim) != ns(dirStat_.st_mtim) ||
        ns(dirStat_.st_mtim) + kRacyListingNs > listedAtNs_;
    if (relist)
        relistLocked();

    // Growth of the packs other processes append to.
    std::vector<PackRecord> records;
    for (uint32_t slot = 0; slot < packs_.size(); ++slot) {
        Pack *p = packs_[slot].get();
        struct stat ps{};
        if (p && !p->own() && !p->stuck && ::fstat(p->fd, &ps) == 0 &&
            static_cast<uint64_t>(ps.st_size) > p->end)
            scanPack(dir_, *p, static_cast<uint64_t>(ps.st_size), records,
                     slot);
    }
    if (!records.empty()) {
        std::unique_lock<std::shared_mutex> index(indexMu_);
        for (const PackRecord &r : records)
            if (packs_[r.pack])
                insertLocked(r);
    }
}

bool
PackDir::openWriterLocked()
{
    std::lock_guard<std::mutex> lock(refreshMu_);
    std::error_code ec;
    fs::create_directories(dir_, ec);
    const pid_t pid = ::getpid();
    int err = 0;
    for (uint64_t attempt = 0; attempt < 4; ++attempt) {
        const std::string name =
            "pack-" + std::to_string(pid) + "-" +
            hex16(splitmix64(static_cast<uint64_t>(realtimeNs()) ^
                             (static_cast<uint64_t>(pid) << 32) ^ attempt));
        const int fd = ::open((dir_ + "/" + name).c_str(),
                              O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
        if (fd < 0) {
            err = errno;
            if (err == EEXIST)
                continue;
            break;
        }
        auto p = std::make_shared<Pack>();
        p->name = name;
        p->fd = fd;
        p->writer = pid;
        struct stat st{};
        if (::fstat(fd, &st) == 0)
            p->inode = st.st_ino;
        std::unique_lock<std::shared_mutex> index(indexMu_);
        writerSlot_ = static_cast<uint32_t>(packs_.size());
        packs_.push_back(p);
        writer_ = std::move(p);
        return true;
    }
    if (!warnedCreate_)
        warn("result cache: cannot create a pack in %s (%s); stores there "
             "are skipped",
             dir_.c_str(), std::strerror(err));
    warnedCreate_ = true;
    return false;
}

bool
PackDir::append(uint64_t keyHash, std::string &record)
{
    const auto length = static_cast<uint32_t>(record.size() - kHeaderBytes);
    std::lock_guard<std::mutex> lock(writeMu_);
    // A forked child inherits its parent's writer and must not append
    // to it; a pack that vanished takes its appends with it.
    if (!writer_ || !writer_->own() || writer_->vanished.load()) {
        writer_.reset();
        if (!openWriterLocked())
            return false;
    }
    Pack &p = *writer_;
    const uint64_t stamp =
        std::max(static_cast<uint64_t>(realtimeNs()), lastStamp_ + 1);
    encodeHeader(record.data(), {length, keyHash, stamp});
    if (!pwriteFull(p.fd, record.data(), record.size(), p.end)) {
        warn("result cache: cannot append to %s/%s (%s); the next store "
             "opens a new pack",
             dir_.c_str(), p.name.c_str(), std::strerror(errno));
        writer_.reset();
        return false;
    }
    lastStamp_ = stamp;
    const PackRecord r{keyHash, stamp, p.end, length, writerSlot_};
    p.end += record.size();
    std::unique_lock<std::shared_mutex> index(indexMu_);
    insertLocked(r);
    return true;
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
    packs_ = &PackDir::of(dir_);
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
    PackDir &packs = PackDir::of(dir_);
    packs.relist();
    packs_.store(&packs);
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

/**
 * Shared fetch. Tries the key's records newest first and walks each in
 * the order storeEntryIn writes it — schema, kind, key, vcrc, value —
 * judging it by its first defect:
 *   - another schema: dropped from the index silently;
 *   - another kind or key: an FNV collision, warned about and skipped.
 *     Checked before the integrity gates, so a foreign record is never
 *     dropped as "ours but damaged";
 *   - a record cut short by the end of its pack, a header that no
 *     longer matches the index, or any other departure from the
 *     written layout: corrupt, dropped;
 *   - value text whose FNV-1a differs from vcrc: torn (and corrupt),
 *     dropped. A payload cut or bit-flipped by an interrupted write can
 *     still decode; the checksum convicts it regardless.
 * The verified value text, exactly the bytes the writer checksummed,
 * then goes to `decode(std::string_view) -> bool`; text it cannot read
 * is corrupt and dropped. The first record that passes answers. When
 * none does, the index picks up what other processes stored since it
 * last looked, and the key's records not tried yet are tried: this
 * refresh or another thread's may have indexed them. One fetch counts
 * one hit or one miss.
 */
template <typename Decode>
bool
fetchEntryIn(PackDir &packs, const std::string &key, const char *kind,
             Decode &&decode)
{
    auto &reg = obs::metrics();
    const uint64_t keyHash = fnv1a64(key);
    std::string text;
    auto judge = [&](const PackDir::Candidate &c) {
        auto corrupt = [&](const char *what) {
            warn("result cache: %s at %s; dropping it", what,
                 packs.where(c).c_str());
            packs.drop(c);
            reg.counter("cache.corrupt").add(1);
            return false;
        };
        RecordHeader h;
        if (!packs.read(c, text))
            return corrupt("record cut short");
        if (!decodeHeader(text.data(), h) || h.length != c.rec.length ||
            h.keyHash != keyHash)
            return corrupt("record header changed");
        const std::string_view entry =
            std::string_view(text).substr(kHeaderBytes);
        obs::JsonCursor cur{entry};
        std::string field, vcrc;
        std::string_view value;
        try {
            expectLiteral(cur, "{\"schema\":");
            if (cur.number() != kResultCacheSchemaVersion) {
                packs.drop(c); // stale: another build's record
                return false;
            }
            expectLiteral(cur, ",\"kind\":");
            cur.string(field);
            const bool kindMatches = field == kind;
            expectLiteral(cur, ",\"key\":");
            cur.string(field);
            if (!kindMatches || field != key) {
                warn("result cache: key collision at %s; ignoring record",
                     packs.where(c).c_str());
                return false;
            }
            expectLiteral(cur, ",\"vcrc\":");
            cur.string(vcrc);
            expectLiteral(cur, ",\"value\":");
            // The value runs to the entry's closing brace, after which
            // only whitespace (the writer's newline) may follow.
            const size_t close = entry.find_last_not_of(" \t\n\r");
            if (close == std::string_view::npos || close < cur.pos ||
                entry[close] != '}')
                cur.die("no closing brace after the value");
            value = entry.substr(cur.pos, close - cur.pos);
        } catch (const obs::JsonError &) {
            return corrupt("malformed entry");
        }
        if (hex16(fnv1a64(value)) != vcrc) {
            reg.counter("cache.torn").add(1);
            return corrupt("torn entry (value checksum mismatch)");
        }
        if (!decode(value))
            return corrupt("unreadable value");
        return true;
    };

    std::vector<PackDir::Candidate> cands, tried;
    for (int pass = 0; pass < 2; ++pass) {
        packs.candidates(keyHash, cands);
        for (const PackDir::Candidate &c : cands) {
            const bool seen = std::any_of(
                tried.begin(), tried.end(), [&](const PackDir::Candidate &t) {
                    return t.pack == c.pack && t.rec.offset == c.rec.offset;
                });
            if (seen)
                continue;
            if (judge(c)) {
                reg.counter("cache.hits").add(1);
                return true;
            }
        }
        if (pass > 0)
            break;
        packs.refresh();
        tried = std::move(cands);
    }
    reg.counter("cache.misses").add(1);
    return false;
}

void
storeEntryIn(PackDir &packs, const std::string &key, const char *kind,
             const std::string &valueJson)
{
    // `value` is the last member on purpose: a cut record loses the
    // payload first, and the vcrc checksum (FNV-1a of the raw value
    // text) convicts any remains that still happen to parse.
    std::string record(kHeaderBytes, '\0');
    record += "{\"schema\":";
    record += std::to_string(kResultCacheSchemaVersion);
    record += ",\"kind\":\"";
    record += kind;
    record += "\",\"key\":\"";
    record += obs::jsonEscape(key);
    record += "\",\"vcrc\":\"";
    record += hex16(fnv1a64(valueJson));
    record += "\",\"value\":";
    record += valueJson;
    record += "}\n";
    const uint64_t keyHash = fnv1a64(key);

    // Fault injection: simulate a torn write by appending the record
    // cut short, its header framing only the bytes that remain.
    // Stateless in (chaos seed, key), so the same keys tear on every
    // run regardless of thread count — and the reader's recovery path
    // is exercised deterministically.
    FaultConfig cfg = FaultInjector::globalConfig();
    const double rate = cfg.rate(FaultClass::CacheCorrupt);
    const size_t whole = record.size() - kHeaderBytes;
    bool torn = false;
    if (rate > 0 &&
        faultRoll(cfg.seed, FaultClass::CacheCorrupt, keyHash) < rate) {
        const double frac =
            0.2 + 0.6 * faultRoll(cfg.seed, FaultClass::CacheCorrupt,
                                  splitmix64(keyHash));
        record.resize(kHeaderBytes +
                      static_cast<size_t>(static_cast<double>(whole) * frac));
        torn = true;
    }
    if (!packs.append(keyHash, record))
        return;
    obs::metrics().counter("cache.writes").add(1);
    if (torn) {
        obs::metrics().counter("faults.injected.cache_corrupt").add(1);
        AW_DEBUGF("core", "fault: tore cache record of %s at %zu/%zu bytes",
                  key.c_str(), record.size() - kHeaderBytes, whole);
    }
}

} // namespace

FileEntryStore::FileEntryStore(std::string directory)
    : dir_(std::move(directory)), packs_(&PackDir::of(dir_))
{}

bool
FileEntryStore::fetchText(const std::string &key, const char *kind,
                          std::string &valueOut)
{
    return fetchEntryIn(*packs_, key, kind, [&](std::string_view value) {
        valueOut.assign(value);
        return true;
    });
}

void
FileEntryStore::storeText(const std::string &key, const char *kind,
                          const std::string &valueJson)
{
    storeEntryIn(*packs_, key, kind, valueJson);
}

bool
ResultCache::fetchPower(const std::string &key, double &out)
{
    if (!enabled())
        return false;
    return fetchEntryIn(*packs_.load(), key, "power",
                        [&](std::string_view value) {
                            return numberFromText(value, out);
                        });
}

void
ResultCache::storePower(const std::string &key, double value)
{
    if (!enabled())
        return;
    storeEntryIn(*packs_.load(), key, "power", num(value));
}

bool
ResultCache::fetchActivity(const std::string &key, KernelActivity &out)
{
    if (!enabled())
        return false;
    return fetchEntryIn(*packs_.load(), key, "activity",
                        [&](std::string_view value) {
                            return activityFromJson(value, out);
                        });
}

void
ResultCache::storeActivity(const std::string &key, const KernelActivity &act)
{
    if (!enabled())
        return;
    storeEntryIn(*packs_.load(), key, "activity", activityToJson(act));
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
