#include "replica.hpp"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "ffis/core/checkpoint.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/core/io_profiler.hpp"
#include "ffis/core/run_scratch.hpp"
#include "ffis/faults/fault_generator.hpp"
#include "ffis/faults/faulting_fs.hpp"
#include "ffis/faults/media_faults.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/vfs/block_device.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace campaign_bench {

namespace {

using ffis::core::AnalysisResult;
using ffis::core::Application;
using ffis::core::Checkpoint;
using ffis::core::CheckpointStore;
using ffis::core::Outcome;
using ffis::vfs::MemFs;

/// Runs body(i) for i in [0, n) on `threads` fresh threads, each with its own
/// trace buffer merged into `trace` after the join.  The first exception a
/// body throws is rethrown here.
void parallel_traced(std::size_t threads, std::size_t n,
                     const std::function<void(std::size_t)>& body, TraceBuffer& trace) {
  std::atomic<std::size_t> next{0};
  std::vector<TraceBuffer> buffers(threads);
  std::mutex error_mutex;
  std::string error;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      TraceScope scope(buffers[t]);
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        try {
          body(i);
        } catch (const std::exception& e) {
          std::lock_guard lock(error_mutex);
          if (error.empty()) error = e.what();
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& b : buffers) trace.merge(b);
  if (!error.empty()) throw std::runtime_error(error);
}

struct GoldenSlot {
  std::shared_ptr<const AnalysisResult> analysis;
  std::shared_ptr<const MemFs> tree;
  bool tree_needed = false;
};

struct CheckpointSlot {
  std::shared_ptr<const Checkpoint> checkpoint;
  std::shared_ptr<const MemFs> golden_tree;
};

/// One prepared cell: what FaultInjector holds after prepare_*.
struct PreparedCell {
  const ffis::exp::Cell* cell = nullptr;
  std::unique_ptr<ffis::faults::FaultGenerator> generator;
  std::shared_ptr<const AnalysisResult> golden;
  std::shared_ptr<const Checkpoint> checkpoint;
  std::shared_ptr<const MemFs> golden_tree;
  std::shared_ptr<const ffis::core::GoldenArtifacts> artifacts;
  std::uint64_t primitive_count = 0;
};

/// execute_at, call for call, with a span around each layer.
ReplicaRun execute(const PreparedCell& pc, std::uint64_t run_seed,
                   const MemFs::Options& fs_options) {
  Span total(SpanId::RunTotal);
  const Application& app = *pc.cell->app;
  const auto& signature = pc.generator->signature();
  ffis::util::Rng rng(run_seed);
  const std::uint64_t target_instance = rng.uniform(pc.primitive_count);
  const std::uint64_t feature_seed = rng();

  ReplicaRun out;
  std::optional<ffis::core::RunScratch::Lease> lease;
  {
    Span s(SpanId::Lease);
    lease.emplace(ffis::core::RunScratch::current().acquire(
        pc.checkpoint ? static_cast<const void*>(pc.checkpoint.get())
                      : static_cast<const void*>(&pc),
        pc.checkpoint ? &pc.checkpoint->fs() : nullptr, fs_options));
  }
  MemFs& backing = lease->fs();
  const bool media = ffis::faults::is_media_model(signature.model);
  std::shared_ptr<ffis::vfs::BlockDevice> device;
  std::optional<ffis::faults::FaultingFs> instrument;
  {
    Span s(SpanId::Arm);
    if (media) {
      device = std::make_shared<ffis::vfs::BlockDevice>(
          ffis::faults::media_device_options(signature));
      backing.set_media(device);
    }
    instrument.emplace(backing);
    if (device != nullptr) instrument->gate_media(device.get());
    if (media) {
      instrument->configure(signature);
      device->arm(ffis::faults::media_arm_spec(signature, target_instance, feature_seed));
    } else {
      instrument->arm(signature, target_instance, feature_seed);
    }
    if (pc.cell->stage > 0) instrument->set_enabled(false);
  }

  const ffis::core::RunContext ctx{.fs = *instrument,
                                   .app_seed = pc.cell->app_seed(),
                                   .instrumented_stage = pc.cell->stage,
                                   .instrument = &*instrument};
  bool crashed = false;
  {
    Span s(SpanId::RunFrom);
    try {
      if (pc.checkpoint) {
        app.run_from(ctx, pc.checkpoint->stage());
      } else {
        app.run(ctx);
      }
    } catch (const std::exception&) {
      crashed = true;
    }
  }
  out.fault_fired = media ? device->fired() : instrument->fired();

  if (crashed) {
    out.outcome = Outcome::Crash;
  } else {
    std::optional<ffis::vfs::FsDiff> diff;
    {
      Span s(SpanId::DiffTree);
      diff.emplace(backing.diff_tree(*pc.golden_tree));
    }
    if (diff->empty()) {
      out.outcome = Outcome::Benign;
      out.analyze_skipped = true;
    } else {
      std::optional<AnalysisResult> analysis;
      {
        Span s(SpanId::AnalyzeDirty);
        try {
          analysis.emplace(
              app.analyze_dirty(backing, *diff, *pc.golden, pc.artifacts.get()));
        } catch (const std::exception&) {
          out.outcome = Outcome::Crash;
        }
      }
      if (analysis.has_value()) {
        Span s(SpanId::Classify);
        out.outcome = analysis->comparison_blob == pc.golden->comparison_blob
                          ? Outcome::Benign
                          : app.classify(*pc.golden, *analysis);
      }
    }
  }
  out.fs_stats = backing.stats();
  if (out.fs_stats.crc_detected > 0) out.outcome = Outcome::Detected;

  instrument.reset();
  device.reset();
  {
    Span s(SpanId::Release);
    lease.reset();
  }
  return out;
}

}  // namespace

ReplicaResult run_replica(const ffis::exp::ExperimentPlan& plan, std::size_t threads,
                          const CheckpointStore* store) {
  ReplicaResult result;
  const MemFs::Options fs_options{};
  const auto& cells = plan.cells();

  // --- goldens, one per (app, app_seed) --------------------------------------
  using GoldenKey = std::pair<const Application*, std::uint64_t>;
  std::map<GoldenKey, GoldenSlot> goldens;
  using CheckpointKey = std::tuple<const Application*, std::uint64_t, int>;
  std::map<CheckpointKey, CheckpointSlot> checkpoints;
  const auto checkpointed = [](const ffis::exp::Cell& c) {
    return c.stage >= 1 && c.app->stage_count() >= c.stage;
  };
  for (const auto& c : cells) {
    GoldenSlot& g = goldens[{c.app, c.app_seed()}];
    if (!checkpointed(c)) g.tree_needed = true;
    if (checkpointed(c)) checkpoints[{c.app, c.app_seed(), c.stage}];
  }

  std::vector<std::pair<const GoldenKey, GoldenSlot>*> golden_list;
  for (auto& entry : goldens) golden_list.push_back(&entry);
  parallel_traced(threads, golden_list.size(), [&](std::size_t i) {
    auto& [key, slot] = *golden_list[i];
    const Application& app = *key.first;
    if (store != nullptr) {
      const auto store_key = CheckpointStore::Key::of(app, key.second, -1, fs_options);
      Span s(SpanId::StoreLoad);
      auto loaded = store->load_golden(store_key, fs_options, slot.tree_needed);
      if (!loaded || (slot.tree_needed && loaded->tree == nullptr)) {
        throw std::runtime_error("warm store has no golden entry for " + app.name());
      }
      slot.analysis = std::move(loaded->analysis);
      slot.tree = std::move(loaded->tree);
      return;
    }
    Span s(SpanId::RunGolden);
    slot.analysis = std::make_shared<const AnalysisResult>(ffis::core::FaultInjector::run_golden(
        app, key.second, slot.tree_needed ? &slot.tree : nullptr, fs_options));
  }, result.trace);

  // --- checkpoints, one per (app, app_seed, stage) ---------------------------
  std::vector<std::pair<const CheckpointKey, CheckpointSlot>*> checkpoint_list;
  for (auto& entry : checkpoints) checkpoint_list.push_back(&entry);
  parallel_traced(threads, checkpoint_list.size(), [&](std::size_t i) {
    const auto& [app, app_seed, stage] = checkpoint_list[i]->first;
    CheckpointSlot& slot = checkpoint_list[i]->second;
    if (store != nullptr) {
      const auto store_key = CheckpointStore::Key::of(*app, app_seed, stage, fs_options);
      Span s(SpanId::StoreLoad);
      auto loaded = store->load_checkpoint(store_key, fs_options, true);
      if (!loaded || loaded->golden_tree == nullptr) {
        throw std::runtime_error("warm store has no checkpoint entry for " + app->name());
      }
      if (!loaded->app_state.empty()) (void)app->restore_state(app_seed, loaded->app_state);
      slot.checkpoint = std::move(loaded->checkpoint);
      slot.golden_tree = std::move(loaded->golden_tree);
      return;
    }
    {
      Span s(SpanId::CheckpointCapture);
      slot.checkpoint = Checkpoint::capture(*app, app_seed, stage, fs_options);
    }
    Span s(SpanId::GrowGoldenTree);
    slot.golden_tree = slot.checkpoint->grow_golden_tree(*app, app_seed);
  }, result.trace);
  for (const auto* entry : checkpoint_list) {
    result.checkpoint_bytes += entry->second.checkpoint->stored_bytes();
  }

  // --- per-cell artifacts and profiling pass ---------------------------------
  std::vector<PreparedCell> prepared(cells.size());
  parallel_traced(threads, cells.size(), [&](std::size_t i) {
    const ffis::exp::Cell& c = cells[i];
    PreparedCell& pc = prepared[i];
    pc.cell = &c;
    ffis::faults::CampaignConfig config;
    config.application = c.app->name();
    config.fault = c.fault;
    config.runs = c.runs;
    config.seed = c.seed;
    config.stage = c.stage;
    pc.generator = std::make_unique<ffis::faults::FaultGenerator>(std::move(config));
    const GoldenSlot& golden = goldens.at({c.app, c.app_seed()});
    pc.golden = golden.analysis;
    if (checkpointed(c)) {
      const CheckpointSlot& cp = checkpoints.at({c.app, c.app_seed(), c.stage});
      pc.checkpoint = cp.checkpoint;
      pc.golden_tree = cp.golden_tree;
    } else {
      pc.golden_tree = golden.tree;
    }
    {
      Span s(SpanId::GoldenArtifacts);
      MemFs scratch = pc.golden_tree->fork(MemFs::Concurrency::SingleThread);
      pc.artifacts = c.app->golden_artifacts(scratch, *pc.golden);
    }
    Span s(SpanId::Profile);
    const auto profile =
        pc.checkpoint
            ? ffis::core::profile_resume(*c.app, *pc.checkpoint, pc.generator->signature(),
                                         c.app_seed())
            : ffis::core::IoProfiler::profile(*c.app, pc.generator->signature(), c.app_seed(),
                                              c.stage);
    if (profile.primitive_count == 0) {
      throw std::runtime_error("cell " + c.label + " never executes its target primitive");
    }
    pc.primitive_count = profile.primitive_count;
  }, result.trace);

  // --- the run loop: every run of every cell, closed loop on the pool --------
  std::vector<std::pair<std::size_t, std::uint64_t>> tasks;
  result.runs.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    result.runs[i].resize(cells[i].runs);
    for (std::uint64_t r = 0; r < cells[i].runs; ++r) tasks.emplace_back(i, r);
  }
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::int64_t> first_ns{0};
  std::atomic<std::int64_t> last_ns{0};
  const auto origin = TraceClock::now();
  parallel_traced(threads, tasks.size(), [&](std::size_t t) {
    const auto [i, r] = tasks[t];
    const PreparedCell& pc = prepared[i];
    result.runs[i][r] = execute(pc, pc.generator->run_seed(r), fs_options);
    const std::int64_t now = ns_between(origin, TraceClock::now());
    const std::uint64_t d = done.fetch_add(1) + 1;
    if (d == 1) first_ns.store(now);
    if (d == tasks.size()) last_ns.store(now);
  }, result.trace);
  result.total_runs = tasks.size();
  const double window_s = static_cast<double>(last_ns.load() - first_ns.load()) / 1e9;
  if (tasks.size() > 1 && window_s > 0.0) {
    result.runs_per_s = static_cast<double>(tasks.size() - 1) / window_s;
  }
  if (store != nullptr) result.store_stats = store->stats();
  return result;
}

}  // namespace campaign_bench
