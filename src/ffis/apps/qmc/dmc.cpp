#include "ffis/apps/qmc/dmc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ffis::qmc {

namespace {

/// Drift-limited velocity (Umrigar smoothing) avoids runaway drift steps
/// near the nucleus where |grad ln psi| diverges.
Vec3 limited_drift(const Vec3& g, double tau) noexcept {
  const double v2 = g[0] * g[0] + g[1] * g[1] + g[2] * g[2];
  if (v2 < 1e-12) return g;
  const double scale = (-1.0 + std::sqrt(1.0 + 2.0 * v2 * tau)) / (v2 * tau);
  return {g[0] * scale, g[1] * scale, g[2] * scale};
}

/// A walker with what the next step needs from its current position: E_L,
/// ln psi and the limited drift.  Branching copies carry them along, so a
/// position is evaluated once, when a move to it is accepted.
struct DmcWalker {
  Walker w;
  double energy = 0.0;
  double log_psi = 0.0;
  Vec3 d1{}, d2{};  ///< limited_drift of grad ln psi, per electron
};

}  // namespace

DmcResult run_dmc(const TrialWavefunction& psi, std::vector<Walker> walkers,
                  const DmcConfig& config, util::Rng& rng) {
  if (walkers.empty()) throw std::invalid_argument("DMC needs a seed population");

  const double sqrt_tau = std::sqrt(config.tau);
  std::vector<DmcWalker> population(walkers.size());
  for (std::size_t i = 0; i < walkers.size(); ++i) {
    DmcWalker& p = population[i];
    p.w = walkers[i];
    const WalkerGeometry g = psi.geometry(p.w);
    p.energy = psi.local_energy(p.w, g);
    p.log_psi = psi.log_psi(g);
    Vec3 g1{}, g2{};
    psi.drift(p.w, g, g1, g2);
    p.d1 = limited_drift(g1, config.tau);
    p.d2 = limited_drift(g2, config.tau);
  }

  // Initial trial energy: population average.
  double e_trial = 0.0;
  for (const DmcWalker& p : population) e_trial += p.energy;
  e_trial /= static_cast<double>(population.size());

  DmcResult result;
  result.rows.reserve(config.steps);
  const std::uint64_t total_steps = config.warmup_steps + config.steps;
  double energy_accum = 0.0;

  std::vector<DmcWalker> next;

  for (std::uint64_t step = 0; step < total_steps; ++step) {
    next.clear();
    double sum_we = 0.0, sum_we2 = 0.0, sum_w = 0.0;

    for (std::size_t i = 0; i < population.size(); ++i) {
      const DmcWalker& old = population[i];
      const double e_old = old.energy;

      // Drift-diffusion proposal with Metropolis accept/reject (removes the
      // leading time-step bias of plain drift-diffusion DMC).
      const Vec3& d1 = old.d1;
      const Vec3& d2 = old.d2;
      Walker proposal = old.w;
      for (int k = 0; k < 3; ++k) {
        proposal.r1[k] += config.tau * d1[k] + sqrt_tau * rng.gaussian();
        proposal.r2[k] += config.tau * d2[k] + sqrt_tau * rng.gaussian();
      }

      const WalkerGeometry g = psi.geometry(proposal);
      Vec3 h1{}, h2{};
      psi.drift(proposal, g, h1, h2);
      const Vec3 b1 = limited_drift(h1, config.tau);
      const Vec3 b2 = limited_drift(h2, config.tau);
      // log G(new->old) - log G(old->new) over both electrons.
      double log_g = 0.0;
      for (int k = 0; k < 3; ++k) {
        const double f1 = old.w.r1[k] - proposal.r1[k] - config.tau * b1[k];
        const double f2 = old.w.r2[k] - proposal.r2[k] - config.tau * b2[k];
        const double r1 = proposal.r1[k] - old.w.r1[k] - config.tau * d1[k];
        const double r2 = proposal.r2[k] - old.w.r2[k] - config.tau * d2[k];
        log_g += (r1 * r1 + r2 * r2 - f1 * f1 - f2 * f2) / (2.0 * config.tau);
      }
      const double log_psi_new = psi.log_psi(g);
      const double log_ratio = 2.0 * (log_psi_new - old.log_psi) + log_g;

      DmcWalker w = old;
      if (std::log(rng.uniform01() + 1e-300) < log_ratio) {
        w.w = proposal;
        w.energy = psi.local_energy(proposal, g);
        w.log_psi = log_psi_new;
        w.d1 = b1;
        w.d2 = b2;
      }
      const double e_new = w.energy;

      // Branching weight with energy-average smoothing; clamp extreme local
      // energies (nuclear-cusp outliers) for population stability.
      const double e_avg =
          0.5 * (std::clamp(e_old, -20.0, 10.0) + std::clamp(e_new, -20.0, 10.0));
      const double weight = std::exp(-config.tau * (e_avg - e_trial));

      // Stochastic rounding of the branching multiplicity.
      const auto copies =
          static_cast<std::uint64_t>(weight + rng.uniform01());
      for (std::uint64_t c = 0; c < copies; ++c) next.push_back(w);
      sum_we += weight * e_new;
      sum_we2 += weight * e_new * e_new;
      sum_w += weight;
    }

    if (next.empty()) {
      // Population extinction (pathological parameters): re-seed one walker.
      next.push_back(population.front());
      sum_w = 1.0;
      sum_we = next.front().energy;
      sum_we2 = sum_we * sum_we;
    }
    const std::uint64_t cap = config.target_walkers * config.max_population_factor;
    if (next.size() > cap) next.resize(cap);
    population.swap(next);

    // Population control: steer E_T towards the target population size.
    const double mixed_energy = sum_we / sum_w;
    e_trial = mixed_energy -
              (config.feedback / config.tau) *
                  std::log(static_cast<double>(population.size()) /
                           static_cast<double>(config.target_walkers)) *
                  config.tau;

    if (step >= config.warmup_steps) {
      ScalarRow row;
      row.index = step - config.warmup_steps;
      row.local_energy = mixed_energy;
      row.variance = sum_we2 / sum_w - mixed_energy * mixed_energy;
      row.weight = sum_w;
      result.rows.push_back(row);
      energy_accum += mixed_energy;
    }
  }

  result.mean_energy = energy_accum / static_cast<double>(config.steps);
  return result;
}

}  // namespace ffis::qmc
