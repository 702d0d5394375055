#include "workloads.hpp"

#include <stdexcept>

#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"

namespace campaign_bench {

namespace {

using ffis::core::Application;

/// Montage on a 6x3 mosaic with 50 % overlap, so the overlap-driven prefix
/// stages carry realistic weight (the same geometry bench_perf_engine uses).
std::shared_ptr<const Application> make_montage() {
  ffis::montage::MontageConfig config;
  config.scene.tile_x0 = {0, 24, 48, 72, 96, 120};
  config.scene.tile_y0 = {0, 24, 48};
  return std::make_shared<const ffis::montage::MontageApp>(config);
}

/// Nyx with two dumps over an 80^3 field: stage 2 rewrites one slab of a
/// ~4 MiB plotfile in place.
std::shared_ptr<const Application> make_nyx() {
  ffis::nyx::NyxConfig config;
  config.field.n = 80;
  config.timesteps = 2;
  return std::make_shared<const ffis::nyx::NyxApp>(config);
}

std::shared_ptr<const Application> make_qmc() {
  return std::make_shared<const ffis::qmc::QmcApp>();
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint64_t runs_per_cell) {
  Workload w;
  w.name = name;
  ffis::exp::PlanBuilder builder;
  builder.seed(seed);
  const std::vector<std::string> syscall_faults{"BF", "SHORN_WRITE@pwrite"};
  const auto set_runs = [&](std::uint64_t fallback) {
    w.runs_per_cell = runs_per_cell != 0 ? runs_per_cell : fallback;
    builder.runs(w.runs_per_cell);
  };

  if (name == "syscall-campaign") {
    // The paper's syscall fault catalogue on the checkpointed hot loop:
    // Montage MT3/MT4, Nyx dump 2 and QMC DMC, each with BF and SW.
    w.kind = WorkloadKind::Syscall;
    const auto montage = make_montage();
    const auto nyx = make_nyx();
    const auto qmc = make_qmc();
    w.apps = {montage, nyx, qmc};
    set_runs(120);
    builder.app(*montage).faults(syscall_faults).stages(3, 4).product();
    builder.app(*nyx).faults(syscall_faults).stage(2).product();
    builder.app(*qmc).faults(syscall_faults).stage(2).product();
  } else if (name == "media-campaign") {
    // All four media models across the three applications, both scrub
    // modes and both sector sizes; whole-run cells, so every pwrite of the
    // workload goes through BlockDevice::apply_write.
    w.kind = WorkloadKind::Media;
    const auto montage = make_montage();
    const auto nyx = make_nyx();
    const auto qmc = make_qmc();
    w.apps = {montage, nyx, qmc};
    set_runs(60);
    builder.cell(*nyx, "BIT_ROT@pwrite{sector=512,scrub=on,width=1}");
    builder.cell(*nyx, "BIT_ROT@pwrite{sector=512,scrub=off,width=1}");
    builder.cell(*nyx, "TORN_SECTOR@pwrite{sector=4096,scrub=on}");
    builder.cell(*montage, "LATENT_SECTOR_ERROR@pwrite{sector=512,scrub=on}");
    builder.cell(*montage, "MISDIRECTED_WRITE@pwrite{sector=4096,scrub=off}");
    builder.cell(*qmc, "BIT_ROT@pwrite{sector=4096,scrub=on,width=2}");
  } else if (name == "fleet-warm") {
    // Nyx and QMC stage-2 cells through a coordinator and two one-thread
    // workers, warm-started from a persistent checkpoint store.
    w.kind = WorkloadKind::FleetWarm;
    w.workers = 2;
    w.unit_runs = 8;
    const auto nyx = make_nyx();
    const auto qmc = make_qmc();
    w.apps = {nyx, qmc};
    set_runs(250);
    builder.app(*nyx).faults(syscall_faults).stage(2).product();
    builder.app(*qmc).faults(syscall_faults).stage(2).product();
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected syscall-campaign, media-campaign or fleet-warm)");
  }
  w.plan = std::make_shared<const ffis::exp::ExperimentPlan>(builder.build());
  return w;
}

}  // namespace campaign_bench
