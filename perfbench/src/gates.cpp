#include "gates.hpp"

#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

// Velocity-Verlet with pairwise-antisymmetric tuple forces conserves
// total momentum to round-off; one atom left at its input state shifts
// it by ~1/N of the momentum scale.
constexpr double kMomentumTol = 1e-8;

std::string fmt(const char* what, int atom, double value, double tol) {
  std::ostringstream os;
  os << what << ": atom " << atom << " differs by " << value << " (tol "
     << tol << ")";
  return os.str();
}

bool finite(const scmd::Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

}  // namespace

double relative_drift(double e0, double e1) {
  return std::abs(e1 - e0) / std::abs(e0);
}

std::string check_drift(double e0, double e1) {
  const double drift = relative_drift(e0, e1);
  if (std::isfinite(drift) && drift <= kDriftBound) return "";
  std::ostringstream os;
  os << "NVE drift " << drift << " exceeds " << kDriftBound << " (E0 " << e0
     << ", E " << e1 << ")";
  return os.str();
}

std::string check_parity(const scmd::ParticleSystem& ref,
                         const scmd::ParticleSystem& got) {
  if (ref.num_atoms() != got.num_atoms()) return "parity: atom counts differ";
  for (int i = 0; i < ref.num_atoms(); ++i) {
    const double dp = std::sqrt(
        ref.box().dist2(ref.positions()[i], got.positions()[i]));
    if (!(dp <= kParityPosTol))
      return fmt("parity position", i, dp, kParityPosTol);
    const scmd::Vec3 df = ref.forces()[i] - got.forces()[i];
    const double dfm =
        std::max({std::abs(df.x), std::abs(df.y), std::abs(df.z)});
    if (!(dfm <= kParityForceTol))
      return fmt("parity force", i, dfm, kParityForceTol);
  }
  return "";
}

std::string check_bitwise(const scmd::ParticleSystem& ref,
                          const scmd::ParticleSystem& got) {
  if (ref.num_atoms() != got.num_atoms()) return "bitwise: atom counts differ";
  for (int i = 0; i < ref.num_atoms(); ++i) {
    const scmd::Vec3 &p = ref.positions()[i], &q = got.positions()[i];
    const scmd::Vec3 &v = ref.velocities()[i], &w = got.velocities()[i];
    if (p.x != q.x || p.y != q.y || p.z != q.z || v.x != w.x || v.y != w.y ||
        v.z != w.z)
      return "bitwise: atom " + std::to_string(i) + " differs";
  }
  return "";
}

std::string check_atoms_conserved(const scmd::ParticleSystem& initial,
                                  const scmd::ParticleSystem& final_state) {
  if (initial.num_atoms() != final_state.num_atoms())
    return "atoms: count changed";
  const scmd::Vec3 L = final_state.box().lengths();
  double scale = 0.0;
  for (int i = 0; i < final_state.num_atoms(); ++i) {
    const scmd::Vec3& r = final_state.positions()[i];
    const scmd::Vec3& v = final_state.velocities()[i];
    if (!finite(r) || !finite(v)) return fmt("atoms: non-finite", i, 0, 0);
    if (r.x < 0 || r.y < 0 || r.z < 0 || r.x >= L.x || r.y >= L.y ||
        r.z >= L.z)
      return "atoms: atom " + std::to_string(i) + " outside the box";
    // Thermal velocities are never zero, so every gathered atom has
    // moved; a force-free atom may keep its velocity, but not both.
    const scmd::Vec3& r0 = initial.positions()[i];
    const scmd::Vec3& v0 = initial.velocities()[i];
    if (r.x == r0.x && r.y == r0.y && r.z == r0.z && v.x == v0.x &&
        v.y == v0.y && v.z == v0.z)
      return "atoms: atom " + std::to_string(i) +
             " was not gathered back (still at its input state)";
    scale += final_state.mass_of_atom(i) * std::sqrt(v.norm2());
  }
  const scmd::Vec3 dp =
      final_state.total_momentum() - initial.total_momentum();
  const double rel = std::sqrt(dp.norm2()) / scale;
  if (!(rel <= kMomentumTol)) {
    std::ostringstream os;
    os << "atoms: total momentum changed by " << rel << " of its scale";
    return os.str();
  }
  return "";
}

std::string check_same_counts(const scmd::EngineCounters& first,
                              const scmd::EngineCounters& again) {
  if (first.cache_rebuilds != again.cache_rebuilds) {
    return "determinism: rebuild count " +
           std::to_string(again.cache_rebuilds) +
           " != " + std::to_string(first.cache_rebuilds);
  }
  if (first.total_search_steps() != again.total_search_steps()) {
    return "determinism: search steps " +
           std::to_string(again.total_search_steps()) +
           " != " + std::to_string(first.total_search_steps());
  }
  return "";
}

}  // namespace perfbench
