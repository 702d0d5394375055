#pragma once
// The fleet-warm executor: a dist::Coordinator plus in-process one-thread
// workers over loopback, each worker's connection wrapped in a probe
// net::Stream installed through WorkerOptions::transport.
//
// The probe parses the length-prefixed frames a worker sends and receives.
// It always stamps RunBatch frames (the first one ends set-up; the first and
// last bound the runs/s window).  With timing on it also records net.send
// and net.recv_wait spans, the WorkRequest -> reply wait (dist.grant_wait),
// wire bytes and frame counts by type.

#include <array>
#include <cstdint>
#include <string>

#include "ffis/dist/protocol.hpp"
#include "ffis/exp/result.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace campaign_bench {

inline constexpr std::size_t kMsgTypeSlots = 16;

struct FleetResult {
  ffis::exp::ExperimentReport report;
  double campaign_s = 0.0;
  double setup_s = 0.0;
  double runs_per_s = 0.0;
  /// Transport observations (timing runs only): spans, bytes both ways and
  /// frames by protocol type, both directions.
  TraceBuffer trace;
  std::uint64_t wire_bytes = 0;
  std::array<std::uint64_t, kMsgTypeSlots> frames{};
};

/// Serves `w`'s plan to `w.workers` in-process workers warm-starting from
/// `store_dir`.  Throws when a worker fails or a RunBatch count is off.
[[nodiscard]] FleetResult run_fleet(const Workload& w, const std::string& store_dir,
                                    bool timing, bool keep_details);

[[nodiscard]] const char* msg_type_name(ffis::dist::MsgType type);

}  // namespace campaign_bench
