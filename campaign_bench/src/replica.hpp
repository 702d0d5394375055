#pragma once
// The traced replica: re-drives a plan's prepare phase and run loop through
// the public functions that exp::Engine and core::FaultInjector::execute_at
// call, with a Span around each call.  Its per-run outcomes must equal the
// engine's exactly; the benchmark checks that run by run.

#include <cstdint>
#include <string>
#include <vector>

#include "ffis/core/checkpoint_store.hpp"
#include "ffis/core/outcome.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/vfs/extent_store.hpp"
#include "trace.hpp"

namespace campaign_bench {

/// What one replayed injection run produced.
struct ReplicaRun {
  ffis::core::Outcome outcome = ffis::core::Outcome::Benign;
  bool fault_fired = false;
  bool analyze_skipped = false;
  ffis::vfs::FsStats fs_stats{};
};

struct ReplicaResult {
  /// Per cell, per run, in plan order.
  std::vector<std::vector<ReplicaRun>> runs;
  std::uint64_t total_runs = 0;
  /// Runs completed per second, first completed run to last.
  double runs_per_s = 0.0;
  /// Extent bytes held by the plan's checkpoints.
  std::uint64_t checkpoint_bytes = 0;
  ffis::core::CheckpointStore::Stats store_stats{};
  TraceBuffer trace;
};

/// Replays `plan` with the engine's default options on `threads` threads.
/// With a non-null `store`, goldens and checkpoints are loaded from it (the
/// warm fleet worker's path) and a miss is an error.  Throws on any cell
/// error — every benchmark workload prepares and runs cleanly.
[[nodiscard]] ReplicaResult run_replica(const ffis::exp::ExperimentPlan& plan,
                                        std::size_t threads,
                                        const ffis::core::CheckpointStore* store);

}  // namespace campaign_bench
