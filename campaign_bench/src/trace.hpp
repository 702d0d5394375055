#pragma once
// Span tracing for the traced run.
//
// A Span times one call into a layer's public function.  Spans nest on a
// per-thread stack, so each span's self time is its duration minus the time
// its child spans cover (run.total's self time is the replica's own glue).
// Samples land in the TraceBuffer bound to the calling thread by a
// TraceScope; each worker thread owns one buffer, and buffers are merged
// after the threads join, so recording takes no lock.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace campaign_bench {

enum class SpanId : std::uint8_t {
  // prepare phase
  RunGolden,
  CheckpointCapture,
  GrowGoldenTree,
  Profile,
  GoldenArtifacts,
  StoreLoad,
  // run loop
  Lease,
  Release,
  Arm,
  RunFrom,
  DiffTree,
  AnalyzeDirty,
  Classify,
  RunTotal,
  // fleet transport
  NetSend,
  NetRecvWait,
  GrantWait,
  kCount
};

inline constexpr std::size_t kSpanCount = static_cast<std::size_t>(SpanId::kCount);

inline constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "core.run_golden",  "core.checkpoint_capture", "core.grow_golden_tree",
    "core.profile",     "apps.golden_artifacts",   "core.store_load",
    "core.lease",       "core.release",            "faults.arm",
    "apps.run_from",    "vfs.diff_tree",           "apps.analyze_dirty",
    "apps.classify",    "run.total",               "net.send",
    "net.recv_wait",    "dist.grant_wait"};

using TraceClock = std::chrono::steady_clock;

struct SpanSamples {
  std::vector<std::int64_t> duration_ns;
  std::int64_t self_ns = 0;
};

struct TraceBuffer {
  std::array<SpanSamples, kSpanCount> spans;

  /// Records one finished call with an explicitly measured duration.
  void add(SpanId id, std::int64_t duration_ns, std::int64_t self_ns);
  void add(SpanId id, std::int64_t duration_ns) { add(id, duration_ns, duration_ns); }
  void merge(const TraceBuffer& other);
};

/// Binds `buffer` to the calling thread for the scope's lifetime.
class TraceScope {
 public:
  explicit TraceScope(TraceBuffer& buffer);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceBuffer* previous_;
};

/// Times the enclosing block; records nothing when no TraceScope is bound.
class Span {
 public:
  explicit Span(SpanId id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanId id_;
  Span* parent_;
  std::int64_t child_ns_ = 0;
  TraceClock::time_point start_;
};

/// Summary of one span: call count, total self time, and the median and
/// 99th-percentile call duration (nearest rank).
struct SpanSummary {
  std::uint64_t calls = 0;
  double self_ms = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

[[nodiscard]] SpanSummary summarize(const SpanSamples& samples);

[[nodiscard]] inline std::int64_t ns_between(TraceClock::time_point a,
                                             TraceClock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

}  // namespace campaign_bench
