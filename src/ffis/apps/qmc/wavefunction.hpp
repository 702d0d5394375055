#pragma once
// Helium-atom trial wavefunction for the mini-QMCPACK benchmark.
//
// The paper's QMCPACK workload is the single-He-atom example whose exact
// non-relativistic ground-state energy is -2.90372 Hartree.  We use the
// standard Slater-Jastrow form
//
//   psi_T(r1, r2) = exp(-Z r1 - Z r2 + a r12 / (1 + b r12))
//
// with Z = 2 (electron-nucleus cusp exact) and a = 1/2 (electron-electron
// cusp exact), leaving b as the single variational parameter.  Local energy
// and drift are analytic, so both VMC and importance-sampled DMC run with no
// numerical differentiation.

#include <array>
#include <cmath>

namespace ffis::qmc {

using Vec3 = std::array<double, 3>;

inline double norm(const Vec3& v) noexcept {
  return std::sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
}

/// Two-electron configuration.
struct Walker {
  Vec3 r1{}, r2{};
};

/// The distances that log_psi, drift and local_energy of one walker share,
/// computed once per position (TrialWavefunction::geometry).
struct WalkerGeometry {
  double r1 = 0.0, r2 = 0.0;  ///< electron-nucleus distances (guarded)
  Vec3 d12{};                 ///< r1 - r2
  double r12 = 0.0;           ///< electron-electron distance (guarded)
  double denom = 0.0;         ///< 1 + b r12
  double up = 0.0;            ///< u'(r12) = a / denom^2
};

struct TrialWavefunction {
  double z = 2.0;   ///< orbital exponent (= nuclear charge for exact e-n cusp)
  double a = 0.5;   ///< Jastrow cusp (exact for antiparallel spins)
  double b = 0.35;  ///< Jastrow range parameter (variational)

  [[nodiscard]] WalkerGeometry geometry(const Walker& w) const noexcept;

  /// ln psi_T (psi is strictly positive; no nodes for the He ground state).
  [[nodiscard]] double log_psi(const Walker& w) const noexcept { return log_psi(geometry(w)); }
  [[nodiscard]] double log_psi(const WalkerGeometry& g) const noexcept;

  /// Local energy E_L = -1/2 (nabla^2 psi)/psi + V.
  [[nodiscard]] double local_energy(const Walker& w) const noexcept {
    return local_energy(w, geometry(w));
  }
  /// As above, from `w`'s precomputed geometry (bit-identical).
  [[nodiscard]] double local_energy(const Walker& w, const WalkerGeometry& g) const noexcept;

  /// Drift velocity (grad ln psi) for both electrons.
  void drift(const Walker& w, Vec3& g1, Vec3& g2) const noexcept { drift(w, geometry(w), g1, g2); }
  void drift(const Walker& w, const WalkerGeometry& g, Vec3& g1, Vec3& g2) const noexcept;
};

}  // namespace ffis::qmc
