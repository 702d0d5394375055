#include "ffis/apps/qmc/wavefunction.hpp"

#include <algorithm>

namespace ffis::qmc {

namespace {
constexpr double kMinDistance = 1e-10;  // guards 1/r singularities

Vec3 sub(const Vec3& x, const Vec3& y) noexcept {
  return {x[0] - y[0], x[1] - y[1], x[2] - y[2]};
}
}  // namespace

WalkerGeometry TrialWavefunction::geometry(const Walker& w) const noexcept {
  WalkerGeometry g;
  g.r1 = std::max(norm(w.r1), kMinDistance);
  g.r2 = std::max(norm(w.r2), kMinDistance);
  g.d12 = sub(w.r1, w.r2);
  g.r12 = std::max(norm(g.d12), kMinDistance);
  // u(r12) = a r12 / (1 + b r12)
  g.denom = 1.0 + b * g.r12;
  g.up = a / (g.denom * g.denom);  // u'
  return g;
}

double TrialWavefunction::log_psi(const WalkerGeometry& g) const noexcept {
  return -z * (g.r1 + g.r2) + a * g.r12 / (1.0 + b * g.r12);
}

double TrialWavefunction::local_energy(const Walker& w, const WalkerGeometry& g) const noexcept {
  const double r1 = g.r1;
  const double r2 = g.r2;
  const Vec3& d12 = g.d12;
  const double r12 = g.r12;

  // f = ln psi
  const double denom = g.denom;
  const double up = g.up;                                     // u'
  const double upp = -2.0 * a * b / (denom * denom * denom);  // u''

  // grad_1 f = -z rhat1 + u' rhat12 ; grad_2 f = -z rhat2 - u' rhat12
  // laplacian_i f = -2 z / r_i + u'' + 2 u' / r12
  double dot1 = 0.0, dot2 = 0.0;  // rhat_i . rhat12
  for (int k = 0; k < 3; ++k) {
    dot1 += (w.r1[k] / r1) * (d12[k] / r12);
    dot2 += (w.r2[k] / r2) * (d12[k] / r12);
  }
  const double lap1 = -2.0 * z / r1 + upp + 2.0 * up / r12;
  const double lap2 = -2.0 * z / r2 + upp + 2.0 * up / r12;
  const double grad1_sq = z * z - 2.0 * z * up * dot1 + up * up;
  const double grad2_sq = z * z + 2.0 * z * up * dot2 + up * up;

  const double kinetic = -0.5 * (lap1 + lap2 + grad1_sq + grad2_sq);
  const double potential = -2.0 / r1 - 2.0 / r2 + 1.0 / r12;
  return kinetic + potential;
}

void TrialWavefunction::drift(const Walker& w, const WalkerGeometry& g, Vec3& g1,
                              Vec3& g2) const noexcept {
  for (int k = 0; k < 3; ++k) {
    g1[k] = -z * w.r1[k] / g.r1 + g.up * g.d12[k] / g.r12;
    g2[k] = -z * w.r2[k] / g.r2 - g.up * g.d12[k] / g.r12;
  }
}

}  // namespace ffis::qmc
