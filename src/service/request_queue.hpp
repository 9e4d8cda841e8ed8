/**
 * @file
 * Bounded admission-controlled run queue of the awd daemon.
 *
 * The queue is the server's backpressure point: the reactor classifies
 * every estimate against the current depth *before* enqueueing —
 * Accept below the soft limit, Degrade (forced reduced fidelity)
 * between the soft and hard limits, Shed at the hard limit — so the
 * daemon's memory footprint and queueing delay stay bounded no matter
 * the offered load. Shedding is a structured response with a
 * retry-after hint, never a dropped connection.
 *
 * Each worker pops one job at a time. Duplicate work is folded before
 * a job is queued (the memo tiers and singleflight coalescing in the
 * reactor), never inside the queue.
 *
 * close() drains: pending jobs keep flowing to workers, pop() returns
 * false only once the queue is both closed and empty. That is the
 * SIGTERM story — stop admitting, finish what was admitted.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "service/protocol.hpp"
#include "service/service_obs.hpp"

namespace aw::service {

/** Admission decision for one estimate at the current queue depth. */
enum class Admission : uint8_t
{
    Accept,  ///< run at requested fidelity
    Degrade, ///< run at reduced fidelity (soft limit crossed)
    Shed     ///< reject with retry_after_ms (hard limit reached)
};

/** One admitted request on its way to a worker. */
struct Job
{
    uint64_t tag = 0;        ///< in-flight registry key (watchdog)
    uint64_t sessionId = 0;  ///< reactor session to deliver the reply to
    EstimateRequest req;
    std::string contentKey;  ///< requestContentKey(req)
    std::chrono::steady_clock::time_point arrival;
    /**
     * Effective deadline in steady_clock ticks since epoch, shared
     * between the reactor, the watchdog, and the estimator. An atomic
     * behind a shared_ptr (not a plain time_point) because singleflight
     * coalescing extends it while the job is already running: a
     * follower with a later deadline attaches to this computation, and
     * the watchdog must not cancel the leader before the *latest*
     * subscriber's deadline. With a single subscriber it never changes.
     */
    std::shared_ptr<std::atomic<int64_t>> deadlineNs;
    /** Deadline-cancellation flag, shared with the watchdog and
     *  propagated into SimOptions::cancel. */
    std::shared_ptr<std::atomic<bool>> cancel;
    bool degrade = false;    ///< admitted under the soft limit: detail 1
    /**
     * Lifecycle span, allocated by the reactor only when one of the
     * server's observability knobs is on (null otherwise — the
     * bit-identical default). Ownership of the stamps follows the job:
     * the reactor writes accept/admit, the worker writes the
     * pop/sim/finish stamps, and the reactor writes encode after the
     * completion handoff — each transfer is through a mutex.
     */
    std::shared_ptr<RequestSpan> span;

    /** Current effective deadline; max() when none was attached (only
     *  hand-built jobs in tests lack one). */
    std::chrono::steady_clock::time_point effectiveDeadline() const
    {
        using TimePoint = std::chrono::steady_clock::time_point;
        if (!deadlineNs)
            return TimePoint::max();
        return TimePoint(TimePoint::duration(
            deadlineNs->load(std::memory_order_acquire)));
    }
};

/** Bounded MPMC queue with the admission ladder above. */
class RequestQueue
{
  public:
    /** softLimit < hardLimit; both >= 1. */
    RequestQueue(size_t softLimit, size_t hardLimit);

    /** Classify a would-be push against the current depth. */
    Admission classify() const;

    /** Enqueue; false when the hard limit is reached or the queue is
     *  closed (callers then shed). */
    bool push(Job job);

    /** Blocking dequeue; false once closed *and* empty (worker exit). */
    bool pop(Job &out);

    /** Stop admitting; wake every waiter. Pending jobs still drain. */
    void close();

    size_t depth() const;

  private:
    const size_t soft_;
    const size_t hard_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Job> jobs_;
    bool closed_ = false;
};

} // namespace aw::service
