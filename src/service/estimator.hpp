/**
 * @file
 * The awd daemon's estimation engine: calibrated model registry plus
 * the request -> power/energy evaluation path.
 *
 * One Estimator owns an AccelWattchCalibrator per served card (volta /
 * pascal / turing). Calibration is lazy and cached inside the
 * calibrator; warmup() pre-runs the default variant for every card so
 * the first client request does not absorb a whole calibration
 * campaign. Calibrator access is serialized per card (its lazy caches
 * are not thread-safe); model *evaluation* is const and runs fully
 * parallel across workers.
 *
 * Activity sourcing: a kernel-descriptor request runs the software
 * performance simulator (SASS trace-driven for the sass/hw/hybrid
 * variants, PTX emulation for ptx) with the job's cancellation flag in
 * SimOptions — the daemon has no live silicon, so the HW/HYBRID
 * variants pair their calibrated energies with simulated activity. An
 * activity-blob request skips simulation and evaluates the model
 * directly on the posted trace.
 *
 * The memo is content-addressed (requestContentKey) and two-level.
 * L1 is the in-process table, bounded at kMemoCapacity entries (FIFO
 * eviction): it serves repeat requests inline from the reactor and
 * doubles as the cached-fallback tier of graceful degradation — under
 * overload, a request whose answer is memoized is served stale
 * (`degraded: "cached"`) instead of shed.
 * L2 (optional, setSharedMemoDir) is a cross-process FileEntryStore:
 * ok-responses are written through on compute and promoted into L1 on
 * hit, so a fleet of daemons sharing one directory converges to one
 * cache and a freshly started daemon answers warm keys without ever
 * invoking the simulator. Error responses are stored too, with a
 * short TTL (negative cache), so the fleet does not hammer a key that
 * deterministically fails. The directory must be private to daemons
 * with identical card/variant configuration — a key that errors on
 * one daemon must error on all of them. Nothing bounds or sweeps L2:
 * an estimate is a pure function of its key, so an ok entry answers
 * that key for good, and a negative entry past its TTL is a miss.
 */
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/calibration.hpp"
#include "core/result_cache.hpp"
#include "service/request_queue.hpp"

namespace aw::service {

/** Bound on memoized responses (FIFO-evicted beyond this). Only ok
 *  responses are memoized: a 16-byte key, the response itself (232
 *  bytes, its short status strings inline) and an id of at most 256
 *  bytes, so a full L1 holds about 2.1 MB. */
constexpr size_t kMemoCapacity = 4096;

/** Lifetime of a shared-memo *negative* entry (an estimate that
 *  failed): long enough to absorb a retry storm, short enough that a
 *  transient cause does not poison the key forever. */
constexpr double kSharedMemoNegativeTtlSec = 5.0;

class Estimator
{
  public:
    /** Outcome of a shared-memo (L2) probe. */
    enum class SharedMemo : uint8_t
    {
        Miss,       ///< disabled, absent, torn, or stale negative
        Hit,        ///< ok-response recovered (promote + serve)
        NegativeHit ///< fresh recorded failure (serve the error)
    };

    /** @param cards card names to serve; unknown names are fatal()
     *  (configuration error, not client input). */
    explicit Estimator(const std::vector<std::string> &cards);
    ~Estimator();

    const std::vector<std::string> &cards() const { return cardNames_; }
    bool hasCard(const std::string &name) const;

    /** Pre-calibrate the default (SASS SIM) variant of every card so
     *  the first request is served at steady-state latency. */
    void warmup();

    /**
     * Evaluate one admitted job. Never throws and never fatal()s on
     * client-controlled input: every failure becomes a structured
     * error / deadline response.
     */
    EstimateResponse run(const Job &job);

    /** L1 memo lookup by content key; true on hit (a *copy* is
     *  returned — callers patch per-request fields like id). */
    bool memoLookup(const std::string &key, EstimateResponse &out);

    /** Memoize a served ok-response under its content key: into L1,
     *  and through to the shared L2 store when one is configured. */
    void memoStore(const std::string &key, const EstimateResponse &resp);

    /** L1-only insert — used to promote an L2 hit without immediately
     *  writing the same bytes back to disk. */
    void memoStoreLocal(const std::string &key,
                        const EstimateResponse &resp);

    /** Attach the cross-process L2 store rooted at `dir` (empty
     *  detaches). Call before serving traffic. */
    void setSharedMemoDir(const std::string &dir);
    bool sharedEnabled() const { return shared_ != nullptr; }

    /** L1 introspection (the stats endpoint's estimator section). */
    size_t memoEntries() const;

    /** Probe L2 for `key`. On Hit, `out` is the canonical recorded
     *  ok-response; on NegativeHit, the recorded error. */
    SharedMemo sharedLookup(const std::string &key, EstimateResponse &out);

    /** Record a failed estimate in L2 (negative cache). ok-responses
     *  flow through memoStore instead. */
    void sharedStoreNegative(const std::string &key,
                             const EstimateResponse &resp);

  private:
    struct Card
    {
        std::string name;
        const SiliconOracle *oracle = nullptr;
        std::unique_ptr<AccelWattchCalibrator> cal;
        std::mutex mu; ///< guards the calibrator's lazy caches
    };

    Card *findCard(const std::string &name);
    void sharedStore(const std::string &key, const EstimateResponse &resp);

    std::vector<std::string> cardNames_;
    std::vector<std::unique_ptr<Card>> cards_;

    mutable std::mutex memoMu_; ///< const introspection accessors lock it
    std::unordered_map<std::string, EstimateResponse> memo_;
    std::deque<std::string> memoOrder_; ///< insertion order (FIFO evict)

    std::unique_ptr<FileEntryStore> shared_;
};

} // namespace aw::service
