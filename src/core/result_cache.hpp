/**
 * @file
 * Persistent content-addressed result cache for the calibration /
 * validation pipeline.
 *
 * A calibration campaign re-measures the same (card, kernel, clock)
 * points across benches, tests and repeated runs. Every such result is
 * a pure function of its inputs, so it is memoized on disk under a key
 * derived from the *content* of those inputs: the GPU configuration,
 * the kernel descriptor, the measurement/simulation options, the hidden
 * card identity (SiliconOracle::cacheSalt()) and a schema version.
 * Change any input and the key changes; bump kResultCacheSchemaVersion
 * when the meaning of a stored value changes and every old entry is
 * ignored.
 *
 * Layout: each process that stores into a directory ($AW_CACHE_DIR,
 * default `results/cache/`) appends to one pack file of its own,
 * `pack-<pid>-<nonce>` (the nonce is 16 hex digits), created with
 * O_CREAT|O_EXCL on its first store there; other files in the directory
 * are ignored. A pack is a sequence of records, each a 24-byte header
 * and then the entry's envelope:
 *
 *   bytes 0-3    magic "AWR1"
 *   bytes 4-7    envelope length, little-endian
 *   bytes 8-15   fnv1a64(key), little-endian
 *   bytes 16-23  store stamp, little-endian: nanoseconds since the Unix
 *                epoch, strictly increasing within a pack
 *   envelope     {"schema":3,"kind":"<kind>","key":"<key>",
 *                "vcrc":"<hex16>","value":<value>} and a newline
 *
 * A store is one pwrite under a per-directory mutex, so threads never
 * interleave bytes and processes never share a pack; a process compares
 * getpid() with its pack's creator before appending, so a forked child
 * opens a pack of its own. The envelope carries the full key, so hash
 * collisions are detected (not just assumed away), and an FNV-1a
 * checksum of its value text (`vcrc`), so a record cut or bit-flipped
 * by a crash mid-write is rejected even when its remains still parse.
 *
 * Index: one per directory per process, shared by every user that names
 * the directory with the same string, holding a fixed-size entry (key
 * hash, pack, offset, length, stamp) per record. A scan reads headers
 * only; a record that runs past the end of its pack is a tail still
 * being written, and a later scan resumes there; a bad magic ends the
 * scan of that pack with a warning and a `cache.corrupt` count.
 * configure() re-lists the directory: packs that vanished (a pack is
 * its name and its inode) lose their records, new packs are scanned,
 * and an unchanged pack set keeps its index. A miss looks again with
 * one stat of the directory and one fstat per foreign pack, so
 * processes sharing a directory (awd and the CLI, or two daemons) see
 * each other's stores; a hit answers from what the index already holds.
 * When a key has several records, the newest valid one answers: the
 * greatest (stamp, pack name, offset), so a re-store supersedes what it
 * replaces (the awd shared memo re-stores a key once its negative entry
 * expires). There is no compaction: dead and duplicate records stay in
 * their packs.
 *
 * Reads build no JSON tree and take no lock across I/O. A fetch looks
 * the key up under a shared lock, then preads each candidate record,
 * newest first, and walks its envelope in the order a store writes it:
 * schema, kind, key, vcrc, value. It judges the record by its first
 * defect — another schema is dropped from the index silently, another
 * kind or key is a collision (warned about, skipped), any other
 * departure from the written layout is corrupt (warned about, dropped
 * from the index, counted in `cache.corrupt`) — then checks vcrc on the
 * raw value text and decodes that text in place: a power is one number
 * that must fill it, an activity goes through the text
 * activityFromJson. Numbers are parsed with std::from_chars, which
 * rounds correctly as strtod does; that is safe because only this
 * program's jsonNumber wrote them, and the checksum has already vouched
 * for the bytes. `AW_CACHE=off` disables the cache entirely.
 *
 * Fault injection: with a `cache_corrupt` rate configured (AW_FAULTS),
 * stores deterministically append a fraction of records cut short,
 * exercising exactly that recovery path. Fault-injected runs also
 * suffix every key with the canonical fault spec, so chaos campaigns
 * never pollute the clean cache (and vice versa).
 *
 * Doubles are serialized with obs::jsonNumber (shortest form that
 * round-trips exactly), so a warm-cache run is bit-identical to the
 * cold run that populated it.
 *
 * The high-level helpers (measurePowerCached, collectActivityCached,
 * runSassCached) are also where the pipeline's parallel determinism
 * lives: each measurement builds a fresh NvmlEmu seeded from the cache
 * key, so the measurement-noise stream depends only on *what* is
 * measured, never on which thread or in which order — results are
 * bit-identical across any AW_THREADS setting.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "arch/activity.hpp"
#include "arch/gpu_config.hpp"
#include "core/variants.hpp"
#include "hw/silicon_model.hpp"
#include "obs/json.hpp"
#include "sim/gpusim.hpp"
#include "trace/workload.hpp"

namespace aw {

/** Bump to invalidate every existing cache entry.
 *  v2: entries carry a `vcrc` value checksum (torn-write detection).
 *  v3: entries are records in per-writer pack files. */
constexpr int kResultCacheSchemaVersion = 3;

/** FNV-1a 64-bit hash of a byte string (the cache's content address). */
uint64_t fnv1a64(std::string_view s);

/**
 * KernelActivity <-> JSON, the cache entry payload format. Exposed
 * because the awd service protocol reuses it verbatim as the
 * activity-blob encoding (a client posts a trace, the daemon evaluates
 * the power model on it). Doubles are jsonNumber round-trippable.
 *
 * Two decoders, both here with the format. The text one reads exactly
 * what activityToJson writes — members in written order, 22 accesses
 * and 8 unit counts per sample, no whitespace, nothing after the value
 * — straight into `out`, numbers via std::from_chars; it returns false,
 * leaving `out` untouched, on anything else. The cache reads entries
 * with it. The tree one serves the awd wire, whose requests arrive
 * already parsed; it accepts members in any order.
 */
std::string activityToJson(const KernelActivity &a);
bool activityFromJson(std::string_view text, KernelActivity &out);
bool activityFromJson(const obs::JsonValue &v, KernelActivity &out);

/** Canonical one-line key fragments; every field that can change a
 *  result appears here, so the hash covers the full input content.
 *  describeKernel and describeConditions live with the oracle
 *  (hw/silicon_model.hpp), whose execution memo keys on them too. */
std::string describeGpuConfig(const GpuConfig &g);
std::string describeSimOptions(const SimOptions &o);

class PackDir;

/** Process-wide handle to the on-disk cache. */
class ResultCache
{
  public:
    static ResultCache &instance();

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    const std::string &directory() const { return dir_; }

    /** Redirect the cache (benches/tests) and re-list the directory:
     *  the records of packs that vanished are dropped, new packs are
     *  indexed, and an unchanged pack set keeps its index. Does not
     *  create the directory until the first store. Not safe while
     *  other threads fetch or store. */
    void configure(std::string directory);

    /** Switch the cache on or off. Safe while other threads fetch and
     *  store: each call sees the old setting or the new one. */
    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    /** Fetch a scalar result; false on miss (disabled, absent, corrupt,
     *  schema mismatch, or hash collision). */
    bool fetchPower(const std::string &key, double &out);
    void storePower(const std::string &key, double value);

    bool fetchActivity(const std::string &key, KernelActivity &out);
    void storeActivity(const std::string &key, const KernelActivity &act);

  private:
    ResultCache();

    std::atomic<bool> enabled_{true};
    std::string dir_;
    std::atomic<PackDir *> packs_{nullptr};
};

/**
 * A standalone store on the result cache's pack machinery — one
 * append-only pack per writer process, the shared per-directory index,
 * schema / key-collision / vcrc torn-write checks, newest record wins —
 * rooted at an arbitrary directory and carrying opaque value text
 * instead of typed payloads. This is the cross-process tier of the awd
 * estimator memo: K daemons pointed at one directory converge to a
 * single cache (a miss picks up the packs and records the others wrote
 * since), and a reader never trusts a torn record (it is detected,
 * dropped, and recomputed). Every store and the result cache that name
 * a directory by the same string share one index. Like the result
 * cache, the store never compacts: a record leaves the index only when
 * a reader convicts it or its pack vanishes. Fault injection
 * (cache_corrupt) applies to stores here too.
 */
class FileEntryStore
{
  public:
    explicit FileEntryStore(std::string directory);

    const std::string &directory() const { return dir_; }

    /** Fetch the raw value text of the newest valid record stored under
     *  `key`; false on miss (absent, corrupt, torn, schema mismatch,
     *  kind mismatch, or hash collision). The returned text is the
     *  exact bytes a prior storeText published, so round-trips are
     *  byte-identical. */
    bool fetchText(const std::string &key, const char *kind,
                   std::string &valueOut);

    /** Append `valueJson` (must be a complete JSON value) under `key`;
     *  it supersedes every earlier record of the key. */
    void storeText(const std::string &key, const char *kind,
                   const std::string &valueJson);

  private:
    std::string dir_;
    PackDir *packs_;
};

/**
 * Cache keys for the two expensive primitives. Exposed so tests can
 * assert stability; normal code goes through the *Cached helpers.
 */
std::string powerMeasurementKey(const SiliconOracle &oracle,
                                const KernelDescriptor &desc,
                                double lockedFreqGhz, int repetitions);
std::string activityKey(const ActivityProvider &provider,
                        const KernelDescriptor &desc,
                        const MeasurementConditions &cond);
std::string sassRunKey(const GpuSimulator &sim,
                       const KernelDescriptor &desc,
                       const SimOptions &opts);

/**
 * Measure a kernel's average power the Section 4.1 way, memoized.
 * Equivalent to NvmlEmu::lockClocks(lockedFreqGhz) +
 * tryMeasureAveragePowerW(desc, repetitions) on a fresh session whose
 * noise seed derives from the cache key — deterministic regardless of
 * measurement order or thread count.
 *
 * Under an active fault config the measurement runs inside a bounded
 * retry loop (exponential backoff in simulated time) against a
 * FaultStream seeded from the same cache key: replaying a measurement
 * reproduces the identical fault sequence no matter the AW_THREADS
 * setting or campaign order, while each retry attempt continues the
 * stream and so can clear transient faults. Non-retryable causes
 * (KernelTooShort) and exhausted retries surface as errors for the
 * caller to skip.
 */
Result<double> tryMeasurePowerCached(const SiliconOracle &oracle,
                                     const KernelDescriptor &desc,
                                     double lockedFreqGhz = 0,
                                     int repetitions = 5);

/** tryMeasurePowerCached, fatal() on any error — for benches and
 *  figure code with no skip path. */
double measurePowerCached(const SiliconOracle &oracle,
                          const KernelDescriptor &desc,
                          double lockedFreqGhz = 0, int repetitions = 5);

/** ActivityProvider::collect, memoized (keyed on variant, hybrid
 *  component set, GPU config, card identity, kernel, conditions).
 *  Resilient under fault injection: transient Nsight failures are
 *  retried with backoff, persistently-broken counters are substituted
 *  per component, and if collection keeps failing the HW/HYBRID
 *  variants fall back to the full SASS SIM activity (warned and
 *  counted in activity.variant_fallbacks) — the campaign never dies
 *  here. */
KernelActivity collectActivityCached(const ActivityProvider &provider,
                                     const KernelDescriptor &desc,
                                     const MeasurementConditions &cond = {});

/** GpuSimulator::runSass, memoized. */
KernelActivity runSassCached(const GpuSimulator &sim,
                             const KernelDescriptor &desc,
                             const SimOptions &opts = {});

} // namespace aw
