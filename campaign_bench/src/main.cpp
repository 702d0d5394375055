// campaign_bench: one process per measured repetition of a benchmark
// workload.  run.py drives it; each mode prints one JSON object as its last
// line of standard output.
//
//   campaign_bench oracle --workload W --seed S --threads N
//       classic-path tallies (no checkpoints, no diff classification)
//   campaign_bench engine --workload W --seed S --threads N
//       one timed repetition through exp::Engine (syscall/media workloads)
//   campaign_bench fill   --workload fleet-warm --seed S --threads N --store DIR
//       fills DIR with the workload's goldens and checkpoints (untimed)
//   campaign_bench fleet  --workload fleet-warm --seed S --store DIR
//       one timed repetition through a coordinator and in-process workers
//   campaign_bench trace  --workload W --seed S --threads N [--store DIR]
//       the traced run: the traced replica (for the fleet, a transport-timed
//       fleet run first), then an untraced execution it must match run by
//       run; prints the per-layer metrics
//
// Exit status: 0 with a JSON result, 1 on any error (message on stderr),
// 2 on bad usage.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "ffis/core/checkpoint_store.hpp"
#include "ffis/exp/engine.hpp"
#include "fleet.hpp"
#include "replica.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using campaign_bench::Workload;
using campaign_bench::WorkloadKind;
using ffis::core::Outcome;

/// Builds one flat JSON object.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& num(const std::string& key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Json& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += body_.empty() ? "\"" : ",\"";
    body_ += key;
    body_ += "\":";
    body_ += v;
    return *this;
  }
  [[nodiscard]] std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t threads = 0;
  std::string store;
};

std::size_t host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-cell tallies; the oracle, the timed runs and the traced baseline all
/// print this same shape so run.py can compare them.
std::string cells_json(const ffis::exp::ExperimentReport& report) {
  std::string out = "[";
  for (const auto& c : report.cells) {
    Json j;
    j.str("label", c.cell.label)
        .num("runs", c.cell.runs)
        .num("completed", c.runs_completed)
        .num("benign", c.tally.count(Outcome::Benign))
        .num("detected", c.tally.count(Outcome::Detected))
        .num("sdc", c.tally.count(Outcome::Sdc))
        .num("crash", c.tally.count(Outcome::Crash))
        .num("detected_crc", c.detected_crc)
        .str("error", c.error);
    if (out.size() > 1) out += ',';
    out += j.render();
  }
  return out + "]";
}

/// Planned runs that produced no outcome: a cell error forfeits all of the
/// cell's runs.
std::uint64_t failed_runs(const ffis::exp::ExperimentReport& report) {
  std::uint64_t failed = 0;
  for (const auto& c : report.cells) {
    failed += c.error.empty() ? c.cell.runs - c.runs_completed : c.cell.runs;
  }
  return failed;
}

Json config_json(const Args& args, const Workload& w) {
  Json j;
  j.str("mode", args.mode)
      .str("workload", w.name)
      .num("seed", args.seed)
      .num("nproc", static_cast<std::uint64_t>(host_cores()))
      .num("threads", static_cast<std::uint64_t>(args.threads))
      .num("workers", static_cast<std::uint64_t>(w.workers))
      .num("unit_runs", w.unit_runs)
      .num("runs_per_cell", w.runs_per_cell);
  return j;
}

void add_outcomes(Json& j, const ffis::exp::ExperimentReport& report) {
  std::uint64_t planned = 0;
  for (const auto& c : report.cells) planned += c.cell.runs;
  j.num("planned_runs", planned)
      .num("failed_runs", failed_runs(report))
      .raw("cells", cells_json(report));
}

struct EngineRep {
  ffis::exp::ExperimentReport report;
  double setup_s = 0.0;
  double runs_per_s = 0.0;
  double campaign_s = 0.0;
};

EngineRep run_engine(const Workload& w, std::size_t threads, bool classic, bool keep_details,
                     const std::string& checkpoint_dir = {}) {
  using campaign_bench::TraceClock;
  ffis::exp::EngineOptions options;
  options.threads = threads;
  options.keep_details = keep_details;
  options.checkpoint_dir = checkpoint_dir;
  if (classic) {
    options.use_checkpoints = false;
    options.use_diff_classification = false;
  }
  std::atomic<std::int64_t> first_ns{-1};
  std::atomic<std::int64_t> last_ns{0};
  const auto start = TraceClock::now();
  options.progress = [&](std::uint64_t done, std::uint64_t total) {
    const std::int64_t ns = campaign_bench::ns_between(start, TraceClock::now());
    if (done == 1) first_ns.store(ns);
    if (done == total) last_ns.store(ns);
  };
  ffis::exp::Engine engine(options);
  EngineRep rep;
  rep.report = engine.run(*w.plan);
  const std::int64_t end_ns = campaign_bench::ns_between(start, TraceClock::now());
  rep.campaign_s = static_cast<double>(end_ns) / 1e9;
  const std::int64_t first = first_ns.load();
  rep.setup_s = static_cast<double>(first >= 0 ? first : end_ns) / 1e9;
  const double window_s = static_cast<double>(last_ns.load() - first) / 1e9;
  if (first >= 0 && rep.report.total_runs > 1 && window_s > 0.0) {
    rep.runs_per_s = static_cast<double>(rep.report.total_runs - 1) / window_s;
  }
  return rep;
}

/// First run where the replica disagrees with the untraced execution, or ""
/// when every run matches (outcome, fired flag, diff skip, and every FsStats
/// counter except the arena pair, which depends on per-thread warm-up).
std::string compare_runs(const ffis::exp::ExperimentReport& base,
                         const campaign_bench::ReplicaResult& replica) {
  if (base.cells.size() != replica.runs.size()) return "cell count differs";
  for (std::size_t i = 0; i < base.cells.size(); ++i) {
    const auto& details = base.cells[i].details;
    const auto& runs = replica.runs[i];
    if (details.size() != runs.size()) {
      return "cell " + base.cells[i].cell.label + ": run count differs";
    }
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const auto& a = details[r];
      const auto& b = runs[r];
      const auto& sa = a.fs_stats;
      const auto& sb = b.fs_stats;
      const bool same =
          a.outcome == b.outcome && a.fault_fired == b.fault_fired &&
          a.analyze_skipped == b.analyze_skipped &&
          sa.chunks_allocated == sb.chunks_allocated &&
          sa.chunk_detaches == sb.chunk_detaches &&
          sa.cow_bytes_copied == sb.cow_bytes_copied && sa.pread_calls == sb.pread_calls &&
          sa.bytes_read == sb.bytes_read && sa.sectors_faulted == sb.sectors_faulted &&
          sa.crc_detected == sb.crc_detected;
      if (!same) {
        return "cell " + base.cells[i].cell.label + " run " + std::to_string(r) + ": " +
               std::string(ffis::core::outcome_name(a.outcome)) + " vs replica " +
               std::string(ffis::core::outcome_name(b.outcome));
      }
    }
  }
  return {};
}

/// The program's own exact counters, from the untraced baseline.
void add_counters(std::map<std::string, double>& m, const ffis::exp::ExperimentReport& report,
                  const campaign_bench::ReplicaResult& replica) {
  std::uint64_t cow = 0, detaches = 0, slabs = 0, skipped = 0, sectors = 0, crc = 0;
  for (const auto& c : report.cells) {
    cow += c.cow_bytes_copied;
    detaches += c.chunk_detaches;
    slabs += c.arena_slabs_allocated;
    skipped += c.analyze_skipped;
    sectors += c.sectors_faulted;
    crc += c.crc_detected;
  }
  const double runs = static_cast<double>(std::max<std::uint64_t>(report.total_runs, 1));
  m["vfs.cow_bytes_per_run"] = static_cast<double>(cow) / runs;
  m["vfs.chunk_detaches"] = static_cast<double>(detaches);
  m["core.arena_slabs_allocated"] = static_cast<double>(slabs);
  m["vfs.diff_skip_ratio"] = static_cast<double>(skipped) / runs;
  m["vfs.sectors_faulted"] = static_cast<double>(sectors);
  m["vfs.crc_detected"] = static_cast<double>(crc);
  const auto& st = replica.store_stats;
  m["core.store_hit_ratio"] =
      st.hits + st.misses == 0 ? 0.0
                               : static_cast<double>(st.hits) /
                                     static_cast<double>(st.hits + st.misses);
  m["core.checkpoint_bytes"] = static_cast<double>(replica.checkpoint_bytes);
  m["dist.units_regranted"] = static_cast<double>(report.units_regranted);
}

void add_spans(std::map<std::string, double>& m, const campaign_bench::TraceBuffer& trace) {
  for (std::size_t i = 0; i < campaign_bench::kSpanCount; ++i) {
    const auto s = campaign_bench::summarize(trace.spans[i]);
    const std::string name = campaign_bench::kSpanNames[i];
    m[name + ".calls"] = static_cast<double>(s.calls);
    m[name + ".self_ms"] = s.self_ms;
    m[name + ".p50_us"] = s.p50_us;
    m[name + ".p99_us"] = s.p99_us;
  }
}

/// Frame types the fleet exchanges; reported as dist.frames.<Type>.
constexpr ffis::dist::MsgType kReportedFrames[] = {
    ffis::dist::MsgType::Hello,     ffis::dist::MsgType::HelloAck,
    ffis::dist::MsgType::WorkRequest, ffis::dist::MsgType::WorkGrant,
    ffis::dist::MsgType::CellInfo,  ffis::dist::MsgType::RunBatch,
    ffis::dist::MsgType::UnitDone,  ffis::dist::MsgType::Shutdown};

std::string per_layer_json(const std::map<std::string, double>& m) {
  Json j;
  for (const auto& [k, v] : m) j.num(k, v);
  return j.render();
}

int mode_oracle(const Args& args) {
  const Workload w = campaign_bench::make_workload(args.workload, args.seed);
  const EngineRep rep = run_engine(w, args.threads, /*classic=*/true, false);
  Json j = config_json(args, w);
  add_outcomes(j, rep.report);
  std::printf("%s\n", j.render().c_str());
  return 0;
}

int mode_engine(const Args& args) {
  const Workload w = campaign_bench::make_workload(args.workload, args.seed);
  if (w.kind == WorkloadKind::FleetWarm) throw std::invalid_argument("use the fleet mode");
  const EngineRep rep = run_engine(w, args.threads, false, false);
  Json metrics;
  metrics.num("setup_s", rep.setup_s)
      .num("runs_per_s", rep.runs_per_s)
      .num("campaign_s", rep.campaign_s)
      .num("peak_rss_mib", peak_rss_mib());
  Json j = config_json(args, w);
  add_outcomes(j, rep.report);
  j.raw("metrics", metrics.render());
  std::printf("%s\n", j.render().c_str());
  return 0;
}

int mode_fill(const Args& args) {
  const Workload w = campaign_bench::make_workload(args.workload, args.seed, 1);
  const EngineRep rep = run_engine(w, args.threads, false, false, args.store);
  if (failed_runs(rep.report) != 0 || rep.report.checkpoints_persisted == 0) {
    throw std::runtime_error("store fill did not persist the workload's checkpoints");
  }
  Json j = config_json(args, w);
  j.num("goldens_persisted", rep.report.goldens_persisted)
      .num("checkpoints_persisted", rep.report.checkpoints_persisted);
  std::printf("%s\n", j.render().c_str());
  return 0;
}

int mode_fleet(const Args& args) {
  const Workload w = campaign_bench::make_workload(args.workload, args.seed);
  if (w.kind != WorkloadKind::FleetWarm) throw std::invalid_argument("not a fleet workload");
  const auto rep = campaign_bench::run_fleet(w, args.store, /*timing=*/false, false);
  Json metrics;
  metrics.num("setup_s", rep.setup_s)
      .num("runs_per_s", rep.runs_per_s)
      .num("campaign_s", rep.campaign_s)
      .num("peak_rss_mib", peak_rss_mib());
  Json j = config_json(args, w);
  add_outcomes(j, rep.report);
  j.num("workers_connected", rep.report.workers_connected).raw("metrics", metrics.render());
  std::printf("%s\n", j.render().c_str());
  return 0;
}

int mode_trace(const Args& args) {
  // The traced execution runs first, in a fresh process like every timed
  // repetition, so run.py can divide its runs/s by the untraced repetitions'
  // (trace_overhead).  The untraced execution that follows keeps per-run
  // details for the replica comparison only.  Every phase gets fresh
  // Application instances, so no phase inherits another's caches.
  const auto fresh = [&] { return campaign_bench::make_workload(args.workload, args.seed); };
  const Workload w = fresh();
  std::map<std::string, double> per_layer;
  ffis::exp::ExperimentReport base_report;
  double traced_runs_per_s = 0.0;
  campaign_bench::TraceBuffer trace;
  campaign_bench::ReplicaResult replica;
  double wire_bytes_per_run = 0.0;
  std::array<std::uint64_t, campaign_bench::kMsgTypeSlots> frames{};
  std::string mismatch;

  if (w.kind == WorkloadKind::FleetWarm) {
    const auto timed = campaign_bench::run_fleet(w, args.store, /*timing=*/true, false);
    traced_runs_per_s = timed.runs_per_s;
    trace = timed.trace;
    wire_bytes_per_run = static_cast<double>(timed.wire_bytes) /
                         static_cast<double>(std::max<std::uint64_t>(timed.report.total_runs, 1));
    frames = timed.frames;
    base_report = campaign_bench::run_fleet(fresh(), args.store, false, /*keep_details=*/true)
                      .report;
    const ffis::core::CheckpointStore store(args.store);
    replica = campaign_bench::run_replica(*fresh().plan, w.workers, &store);
  } else {
    replica = campaign_bench::run_replica(*w.plan, args.threads, nullptr);
    traced_runs_per_s = replica.runs_per_s;
    base_report = run_engine(fresh(), args.threads, false, /*keep_details=*/true).report;
    if (replica.checkpoint_bytes != base_report.checkpoint_bytes) {
      mismatch = "replica checkpoint bytes differ from the engine's";
    }
  }
  if (mismatch.empty()) mismatch = compare_runs(base_report, replica);
  trace.merge(replica.trace);

  add_spans(per_layer, trace);
  add_counters(per_layer, base_report, replica);
  per_layer["dist.wire_bytes_per_run"] = wire_bytes_per_run;
  for (const auto type : kReportedFrames) {
    per_layer[std::string("dist.frames.") + campaign_bench::msg_type_name(type)] =
        static_cast<double>(frames[static_cast<std::size_t>(type)]);
  }

  Json j = config_json(args, w);
  add_outcomes(j, base_report);
  j.num("traced_runs_per_s", traced_runs_per_s)
      .boolean("replica_match", mismatch.empty())
      .str("replica_mismatch", mismatch)
      .raw("per_layer", per_layer_json(per_layer));
  std::printf("%s\n", j.render().c_str());
  return 0;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--threads") {
      args.threads = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "--store") {
      args.store = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if ((argc - 2) % 2 != 0) throw std::invalid_argument("option without a value");
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  const bool fleet_mode = args.mode == "fleet";
  if (!fleet_mode && (args.threads == 0 || args.threads > host_cores())) {
    throw std::invalid_argument("--threads must be between 1 and nproc (" +
                                std::to_string(host_cores()) + ")");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 2;
  }
  try {
    if (args.mode == "oracle") return mode_oracle(args);
    if (args.mode == "engine") return mode_engine(args);
    if (args.mode == "fill") return mode_fill(args);
    if (args.mode == "fleet") return mode_fleet(args);
    if (args.mode == "trace") return mode_trace(args);
    std::fprintf(stderr, "campaign_bench: unknown mode %s\n", args.mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
