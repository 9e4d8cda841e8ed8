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
 * Layout: one JSON file per entry, `<fnv1a64-hex16>.json`, inside
 * $AW_CACHE_DIR (default `results/cache/`). Files carry the full
 * human-readable key string, so hash collisions are detected (not just
 * assumed away) and entries are self-describing. A store creates one
 * file: it takes the per-entry `<hash>.json.lock` with O_CREAT|O_EXCL,
 * writes the entry into that lock file and renames it onto
 * `<hash>.json`, so the one rename both publishes the entry and
 * releases the lock. Two `awd` workers — or two whole daemon processes
 * sharing one cache directory — can never interleave bytes of the same
 * entry; a writer that cannot take the lock skips the store (entries
 * are content-addressed, so the winner wrote the same bytes). A writer
 * that crashes mid-store leaves only its `.lock`, holding a partial
 * payload that no reader opens; the next store steals it once it is
 * 10 s old. Readers never observe a torn entry; on top of the schema
 * check, each entry stores an FNV-1a checksum of its value payload
 * (`vcrc`) and a truncated or bit-flipped payload — e.g. a torn write
 * that survived a crash mid-rename on a non-atomic filesystem — is
 * rejected even when the remains still parse as JSON.
 * A corrupt file is warned about, removed, and treated as a miss.
 * `AW_CACHE=off` disables the cache entirely.
 *
 * Fault injection: with a `cache_corrupt` rate configured (AW_FAULTS),
 * stores deterministically tear a fraction of entries after the
 * publish, exercising exactly that recovery path. Fault-injected runs
 * also suffix every key with the canonical fault spec, so chaos
 * campaigns never pollute the clean cache (and vice versa).
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

#include <cstdint>
#include <string>

#include "arch/activity.hpp"
#include "arch/gpu_config.hpp"
#include "core/variants.hpp"
#include "hw/silicon_model.hpp"
#include "obs/json.hpp"
#include "sim/gpusim.hpp"
#include "trace/workload.hpp"

namespace aw {

/** Bump to invalidate every existing cache entry.
 *  v2: entries carry a `vcrc` value checksum (torn-write detection). */
constexpr int kResultCacheSchemaVersion = 2;

/** FNV-1a 64-bit hash of a byte string (the cache's content address). */
uint64_t fnv1a64(const std::string &s);

/**
 * KernelActivity <-> JSON, the cache entry payload format. Exposed
 * because the awd service protocol reuses it verbatim as the
 * activity-blob encoding (a client posts a trace, the daemon evaluates
 * the power model on it). Doubles are jsonNumber round-trippable.
 */
std::string activityToJson(const KernelActivity &a);
bool activityFromJson(const obs::JsonValue &v, KernelActivity &out);

/** Canonical one-line key fragments; every field that can change a
 *  result appears here, so the hash covers the full input content. */
std::string describeGpuConfig(const GpuConfig &g);
std::string describeKernel(const KernelDescriptor &k);
std::string describeSimOptions(const SimOptions &o);
std::string describeConditions(const MeasurementConditions &c);

/** Process-wide handle to the on-disk cache. */
class ResultCache
{
  public:
    static ResultCache &instance();

    bool enabled() const { return enabled_; }
    const std::string &directory() const { return dir_; }

    /** Redirect the cache (benches/tests). Does not create the
     *  directory until the first store. */
    void configure(std::string directory);
    void setEnabled(bool on) { enabled_ = on; }

    /** Fetch a scalar result; false on miss (disabled, absent, corrupt,
     *  schema mismatch, or hash collision). */
    bool fetchPower(const std::string &key, double &out);
    void storePower(const std::string &key, double value);

    bool fetchActivity(const std::string &key, KernelActivity &out);
    void storeActivity(const std::string &key, const KernelActivity &act);

    /** Path the given key maps to (for tests and diagnostics). */
    std::string pathFor(const std::string &key) const;

  private:
    ResultCache();

    bool enabled_ = true;
    std::string dir_;
};

/**
 * A standalone file-per-entry store sharing the result cache's on-disk
 * machinery — `<fnv1a64-hex16>.json` naming, a per-entry `.lock` file
 * that is also the temp file renamed into place on publish, schema /
 * key-collision / vcrc torn-write checks — but rooted at an arbitrary
 * directory and carrying opaque value text instead of typed payloads.
 * This is the cross-process tier of the awd estimator memo: K daemons
 * pointed at one directory converge to a single cache, and a reader can
 * never observe a torn entry (it is detected, removed, and recomputed).
 * Fault injection (cache_corrupt) applies to stores here too.
 */
class FileEntryStore
{
  public:
    explicit FileEntryStore(std::string directory)
        : dir_(std::move(directory))
    {}

    const std::string &directory() const { return dir_; }

    /** File the given key maps to (for tests and diagnostics). */
    std::string pathFor(const std::string &key) const;

    /** Fetch the raw value text stored under `key`; false on miss
     *  (absent, corrupt, torn, schema mismatch, kind mismatch, or hash
     *  collision). The returned text is the exact bytes a prior
     *  storeText published, so round-trips are byte-identical. */
    bool fetchText(const std::string &key, const char *kind,
                   std::string &valueOut);

    /** Publish `valueJson` (must be a complete JSON value) under
     *  `key`. Lock-contended stores are skipped (the holder is writing
     *  the same content-addressed bytes). */
    void storeText(const std::string &key, const char *kind,
                   const std::string &valueJson);

    /** What a sweep() found and removed. */
    struct SweepStats
    {
        size_t scanned = 0;          ///< entries examined
        size_t removedStale = 0;     ///< evicted past the TTL
        size_t removedOverBytes = 0; ///< evicted for the byte bound
        std::uintmax_t bytesAfter = 0; ///< entry bytes remaining
    };

    /**
     * Bound the store: remove entries whose mtime is older than
     * `ttlSec` (0 disables the age criterion), then — oldest first —
     * entries past the `maxTotalBytes` byte bound (0 disables it).
     * In-progress writes are untouched (only `*.json` entries are
     * considered; `.lock` files, which hold a store's payload until its
     * rename, are skipped), every removal is best-effort (a concurrent
     * reader simply misses), and nothing here ever throws — a
     * disappearing file mid-sweep is fine.
     */
    SweepStats sweep(std::uintmax_t maxTotalBytes, double ttlSec);

  private:
    std::string dir_;
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
