/**
 * @file
 * The cycle simulator's one loop: the detailed SM groups (shards) of a
 * launch each run to completion as one task on worker threads, and
 * their activity samples stream into one chip-wide sample stream.
 * Detail 1 is the one-shard case: the paper's representative SM.
 *
 * Determinism argument (DESIGN.md §9): shards share no mutable state —
 * each owns a private SmCore and a private MemorySystem carrying the
 * same 1/k capacity and bandwidth shares — so a shard's cycle-by-cycle
 * evolution depends only on its own state, never on scheduling. The
 * one reduction that crosses shards, the sample merge, runs on the
 * calling thread after every shard is done and sums shards in SM-index
 * order. Thread count therefore cannot change any output bit; it only
 * changes which thread advances which shard.
 */
#pragma once

#include "sim/gpusim.hpp"

namespace aw {

/** How a launch's active SMs partition into detailed shard groups. */
struct ShardPlan
{
    /** SMs represented by each shard (contiguous, sums to activeSms). */
    std::vector<int> smCounts;
    /** First chip SM index of each shard (decorrelation offset). */
    std::vector<int> firstSmIndex;
};

/** Partition `activeSms` SMs into min(detail, activeSms) contiguous
 *  groups, sizes differing by at most one, larger groups first. */
ShardPlan planShards(int activeSms, int detail);

/**
 * Run one kernel on `detail` shards and return the merged activity
 * stream. `shape`/`freqGhz` are the resolved launch mapping and clock;
 * `stats` receives the execution statistics. Also flushes the run's
 * `sim.*` counters into the metrics registry.
 */
KernelActivity runShardedSim(const GpuConfig &gpu,
                             const KernelDescriptor &desc,
                             const WarpProgram &program,
                             const SimOptions &opts,
                             const LaunchShape &shape, double freqGhz,
                             int detail, SimRunStats &stats);

} // namespace aw
