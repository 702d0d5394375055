#include "ffis/apps/qmc/vmc.hpp"

namespace ffis::qmc {

VmcResult run_vmc(const TrialWavefunction& psi, const VmcConfig& config, util::Rng& rng) {
  VmcResult result;
  result.walkers.resize(config.walkers);
  // ln psi and E_L of each walker's current position: a rejected move keeps
  // both, so only accepted moves evaluate them again.
  std::vector<double> log_psi(config.walkers);
  std::vector<double> energy(config.walkers);

  // Initialize electrons around the nucleus.
  for (auto& w : result.walkers) {
    for (int k = 0; k < 3; ++k) {
      w.r1[k] = rng.gaussian(0.0, 0.7);
      w.r2[k] = rng.gaussian(0.0, 0.7);
    }
  }
  for (std::uint64_t i = 0; i < config.walkers; ++i) {
    const WalkerGeometry g = psi.geometry(result.walkers[i]);
    log_psi[i] = psi.log_psi(g);
    energy[i] = psi.local_energy(result.walkers[i], g);
  }

  std::uint64_t accepted = 0, attempted = 0;
  const std::uint64_t total_steps = config.warmup_steps + config.steps;
  result.rows.reserve(config.steps);

  for (std::uint64_t step = 0; step < total_steps; ++step) {
    double sum_e = 0.0, sum_e2 = 0.0;
    for (std::uint64_t i = 0; i < config.walkers; ++i) {
      Walker proposal = result.walkers[i];
      for (int k = 0; k < 3; ++k) {
        proposal.r1[k] += rng.gaussian(0.0, config.step_sigma);
        proposal.r2[k] += rng.gaussian(0.0, config.step_sigma);
      }
      const WalkerGeometry g = psi.geometry(proposal);
      const double log_psi_new = psi.log_psi(g);
      ++attempted;
      if (std::log(rng.uniform01() + 1e-300) < 2.0 * (log_psi_new - log_psi[i])) {
        result.walkers[i] = proposal;
        log_psi[i] = log_psi_new;
        energy[i] = psi.local_energy(proposal, g);
        ++accepted;
      }
      const double e = energy[i];
      sum_e += e;
      sum_e2 += e * e;
    }
    if (step >= config.warmup_steps) {
      ScalarRow row;
      row.index = step - config.warmup_steps;
      const auto n = static_cast<double>(config.walkers);
      row.local_energy = sum_e / n;
      row.variance = sum_e2 / n - row.local_energy * row.local_energy;
      row.weight = n;
      result.rows.push_back(row);
    }
  }
  result.acceptance =
      attempted == 0 ? 0.0 : static_cast<double>(accepted) / static_cast<double>(attempted);
  return result;
}

}  // namespace ffis::qmc
