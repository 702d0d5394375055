#pragma once
// The benchmark's three workloads, built from the plan seed.
//
// Every call to make_workload constructs fresh Application instances, so
// in-process application caches (decoded Nyx fields, rendered Montage tiles,
// QMC traces) never carry over from an earlier repetition.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ffis/core/application.hpp"
#include "ffis/exp/plan.hpp"

namespace campaign_bench {

enum class WorkloadKind { Syscall, Media, FleetWarm };

struct Workload {
  WorkloadKind kind = WorkloadKind::Syscall;
  std::string name;
  /// Injection runs per cell of one timed repetition.
  std::uint64_t runs_per_cell = 0;
  /// Fleet only: in-process workers (one execution thread each) and the
  /// coordinator's unit size.
  std::size_t workers = 0;
  std::uint64_t unit_runs = 0;
  /// Keeps the applications alive for as long as the plan references them.
  std::vector<std::shared_ptr<const ffis::core::Application>> apps;
  std::shared_ptr<const ffis::exp::ExperimentPlan> plan;
};

/// The workload named `name` at plan seed `seed`; throws
/// std::invalid_argument for an unknown name.  `runs_per_cell` overrides the
/// workload's default when non-zero (the store fill uses 1).
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     std::uint64_t runs_per_cell = 0);

}  // namespace campaign_bench
