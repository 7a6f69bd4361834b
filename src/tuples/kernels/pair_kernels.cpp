// Batched SoA pair kernels (docs/KERNELS.md).  Each Op reproduces one
// potential's scalar eval_pair expression for expression — same
// association, same shift handling — with libm exp replaced by vexp1
// and std::pow by powi (see simd.hpp for the accuracy contract).  This
// translation unit is compiled with -fno-math-errno so std::sqrt lowers
// to the hardware instruction inside the lane loops.
//
// Loop structure: one scalar pass over the stream gathers each tuple's
// indices, delta and r², applies the exact-rcut² test, and packs the
// survivors in stream order into a pending SoA block — ~23% of a
// skin-inflated silica replay stream fails the cutoff and never reaches
// the arithmetic.  A full block runs the Op's branch-free lane loop (the
// auto-vectorized part, producing per-lane energy and f_over_r) and a
// scalar scatter that sums energy and accumulates ±f in packed (=
// stream) order.  The final partial block is padded with copies of its
// last survivor, whose outputs are dropped.  Every lane the Op sees is a
// real survivor, and the energy/force sums run over survivors in stream
// order exactly as a per-tuple masked loop would, so compaction changes
// no bit of the result.
//
// pair_loop is built twice (simd.hpp): for the build's baseline target
// and, when the compiler targets x86 below AVX2, under
// [[gnu::target("avx2")]] — the same source inlined into a second
// function, picked once at bind time.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "potentials/bks.hpp"
#include "potentials/lj.hpp"
#include "potentials/morse.hpp"
#include "potentials/stillinger_weber.hpp"
#include "potentials/vashishta.hpp"
#include "tuples/kernels/kernels.hpp"
#include "tuples/kernels/simd.hpp"

namespace scmd::kernels::detail {

namespace {

/// Compacted survivors awaiting the Op: endpoints, delta i−j and r².
struct PairBlock {
  alignas(64) int ia[kLanes];
  alignas(64) int ja[kLanes];
  alignas(64) double dx[kLanes];
  alignas(64) double dy[kLanes];
  alignas(64) double dz[kLanes];
  alignas(64) double r2[kLanes];
};

/// Shared pair skeleton.  `op(ia, ja, r2, type, e, fr)` fills per-lane
/// energy and f_over_r (force = delta * f_over_r, added to i, subtracted
/// from j — the eval_pair convention) for all kLanes lanes of a block,
/// branch-free.
template <class Op>
[[gnu::always_inline]] inline double pair_loop(
    const Op& op, const int* tuples, long long count,
    std::span<const Vec3> pos, std::span<const int> type, double rcut2,
    Vec3* fd, std::uint64_t& evals) {
  double energy = 0.0;
  std::uint64_t ev = 0;
  PairBlock b;
  long long t = 0;
  for (;;) {
    // Fill one block.  Branch-free: every tuple is written to the next
    // free slot, and the slot is kept only when the tuple passes.
    int np = 0;
    for (; np < kLanes && t < count; ++t) {
      const int i = tuples[2 * t];
      const int j = tuples[2 * t + 1];
      const Vec3 d = pos[static_cast<std::size_t>(i)] -
                     pos[static_cast<std::size_t>(j)];
      const double r2 = d.x * d.x + d.y * d.y + d.z * d.z;
      b.ia[np] = i;
      b.ja[np] = j;
      b.dx[np] = d.x;
      b.dy[np] = d.y;
      b.dz[np] = d.z;
      b.r2[np] = r2;
      np += r2 < rcut2 ? 1 : 0;
    }
    if (np == 0) break;
    // A partial block ends the stream: pad it with copies of the last
    // survivor; the scatter stops at np.
    for (int l = np; l < kLanes; ++l) {
      b.ia[l] = b.ia[np - 1];
      b.ja[l] = b.ja[np - 1];
      b.dx[l] = b.dx[np - 1];
      b.dy[l] = b.dy[np - 1];
      b.dz[l] = b.dz[np - 1];
      b.r2[l] = b.r2[np - 1];
    }
    alignas(64) double e[kLanes];
    alignas(64) double fr[kLanes];
    op(b.ia, b.ja, b.r2, type, e, fr);
    alignas(64) double fx[kLanes];
    alignas(64) double fy[kLanes];
    alignas(64) double fz[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      fx[l] = b.dx[l] * fr[l];
      fy[l] = b.dy[l] * fr[l];
      fz[l] = b.dz[l] * fr[l];
    }
    for (int l = 0; l < np; ++l) {
      energy += e[l];
      const Vec3 f{fx[l], fy[l], fz[l]};
      fd[b.ia[l]] += f;
      fd[b.ja[l]] -= f;
    }
    ev += static_cast<std::uint64_t>(np);
    if (np < kLanes) break;
  }
  evals += ev;
  return energy;
}

template <class Op>
[[gnu::flatten]] double pair_eval(const Op& op, const int* tuples,
                                  long long count, std::span<const Vec3> pos,
                                  std::span<const int> type, double rcut2,
                                  Vec3* fd, std::uint64_t& evals) {
  return pair_loop(op, tuples, count, pos, type, rcut2, fd, evals);
}

#if SCMD_KERNELS_AVX2_VARIANT
template <class Op>
[[gnu::target("avx2"), gnu::flatten]] double pair_eval_avx2(
    const Op& op, const int* tuples, long long count,
    std::span<const Vec3> pos, std::span<const int> type, double rcut2,
    Vec3* fd, std::uint64_t& evals) {
  return pair_loop(op, tuples, count, pos, type, rcut2, fd, evals);
}
#endif

/// The bound KernelFn for `op`, built for instruction-set variant `isa`.
template <class Op>
KernelFn pair_fn(Op op, [[maybe_unused]] Isa isa) {
#if SCMD_KERNELS_AVX2_VARIANT
  if (isa == Isa::kAvx2) {
    return [op = std::move(op)](const int* tuples, long long count,
                                std::span<const Vec3> pos,
                                std::span<const int> type, double rcut2,
                                Vec3* fd, std::uint64_t& evals) {
      return pair_eval_avx2(op, tuples, count, pos, type, rcut2, fd, evals);
    };
  }
#endif
  return [op = std::move(op)](const int* tuples, long long count,
                              std::span<const Vec3> pos,
                              std::span<const int> type, double rcut2,
                              Vec3* fd, std::uint64_t& evals) {
    return pair_eval(op, tuples, count, pos, type, rcut2, fd, evals);
  };
}

struct LjOp {
  double sigma2, eps4, eps24, shift;

  explicit LjOp(const LennardJones& f) {
    const LjParams& p = f.params();
    sigma2 = p.sigma * p.sigma;
    eps4 = 4.0 * p.epsilon;
    eps24 = 24.0 * p.epsilon;
    // Same expression as the LennardJones ctor, so the shift is
    // bit-identical to the scalar path's.
    const double sr6 = std::pow(p.sigma / p.rcut, 6);
    shift = 4.0 * p.epsilon * (sr6 * sr6 - sr6);
  }

  void operator()(const int*, const int*, const double* r2,
                  std::span<const int>, double* e, double* fr) const {
    for (int l = 0; l < kLanes; ++l) {
      const double inv_r2 = 1.0 / r2[l];
      const double s2 = sigma2 * inv_r2;
      const double s6 = s2 * s2 * s2;
      const double s12 = s6 * s6;
      e[l] = eps4 * (s12 - s6) - shift;
      fr[l] = eps24 * (2.0 * s12 - s6) * inv_r2;
    }
  }
};

struct MorseOp {
  double De, na, r0, c2, shift;

  explicit MorseOp(const Morse& f) {
    const MorseParams& p = f.params();
    De = p.De;
    na = -p.a;
    r0 = p.r0;
    c2 = 2.0 * p.De * p.a;
    const double x = 1.0 - std::exp(-p.a * (p.rcut - p.r0));
    shift = p.De * (x * x - 1.0);
  }

  void operator()(const int*, const int*, const double* r2,
                  std::span<const int>, double* e, double* fr) const {
    for (int l = 0; l < kLanes; ++l) {
      const double r = std::sqrt(r2[l]);
      const double ex = vexp1(na * (r - r0));
      const double x = 1.0 - ex;
      e[l] = De * (x * x - 1.0) - shift;
      const double dvdr = c2 * ex * x;
      fr[l] = -dvdr / r;
    }
  }
};

struct BksOp {
  int num_types;
  double rcut;
  std::vector<BksSiO2::PairParams> tbl;  // dense [ti * num_types + tj]

  explicit BksOp(const BksSiO2& f) : num_types(f.num_types()),
                                     rcut(f.rcut(2)) {
    tbl.resize(static_cast<std::size_t>(num_types) * num_types);
    for (int a = 0; a < num_types; ++a) {
      for (int b = 0; b < num_types; ++b) {
        tbl[static_cast<std::size_t>(a) * num_types + b] = f.pair_params(a, b);
      }
    }
  }

  void operator()(const int* ia, const int* ja, const double* r2,
                  std::span<const int> type, double* e, double* fr) const {
    alignas(64) double qq[kLanes];
    alignas(64) double A[kLanes];
    alignas(64) double b[kLanes];
    alignas(64) double C[kLanes];
    alignas(64) double vs[kLanes];
    alignas(64) double fs[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      const int ti = type[static_cast<std::size_t>(ia[l])];
      const int tj = type[static_cast<std::size_t>(ja[l])];
      const BksSiO2::PairParams& p =
          tbl[static_cast<std::size_t>(ti) * num_types + tj];
      qq[l] = p.qq_e2;
      A[l] = p.A;
      b[l] = p.b;
      C[l] = p.C;
      vs[l] = p.v_shift;
      fs[l] = p.f_shift;
    }
    for (int l = 0; l < kLanes; ++l) {
      const double r = std::sqrt(r2[l]);
      const double inv_r = 1.0 / r;
      const double coul = qq[l] * inv_r;
      const double rep = A[l] * vexp1(-b[l] * r);
      const double inv_r3 = inv_r * inv_r * inv_r;
      const double disp = -C[l] * inv_r3 * inv_r3;
      const double v = coul + rep + disp;
      const double dv = -coul * inv_r - b[l] * rep - 6.0 * disp * inv_r;
      e[l] = v - vs[l] - (r - rcut) * fs[l];
      const double dvdr = dv - fs[l];
      fr[l] = -dvdr * inv_r;
    }
  }
};

struct VashishtaOp {
  int num_types;
  double rcut;
  int eta_min;  // table etas are {eta_min, eta_min+2, eta_min+4}
  std::vector<VashishtaSiO2::PairParams> tbl;

  VashishtaOp(const VashishtaSiO2& f, int emin)
      : num_types(f.num_types()), rcut(f.rcut(2)), eta_min(emin) {
    tbl.resize(static_cast<std::size_t>(num_types) * num_types);
    for (int a = 0; a < num_types; ++a) {
      for (int b = 0; b < num_types; ++b) {
        tbl[static_cast<std::size_t>(a) * num_types + b] = f.pair_params(a, b);
      }
    }
  }

  void operator()(const int* ia, const int* ja, const double* r2,
                  std::span<const int> type, double* e, double* fr) const {
    alignas(64) double eta[kLanes];
    alignas(64) double H[kLanes];
    alignas(64) double zz[kLanes];
    alignas(64) double D[kLanes];
    alignas(64) double vs[kLanes];
    alignas(64) double fs[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      const int ti = type[static_cast<std::size_t>(ia[l])];
      const int tj = type[static_cast<std::size_t>(ja[l])];
      const VashishtaSiO2::PairParams& p =
          tbl[static_cast<std::size_t>(ti) * num_types + tj];
      eta[l] = p.eta;
      H[l] = p.H;
      zz[l] = p.zz_e2;
      D[l] = p.D;
      vs[l] = p.v_shift;
      fs[l] = p.f_shift;
    }
    const double e_lo = static_cast<double>(eta_min);
    const double e_mid = static_cast<double>(eta_min + 2);
    // Screening lengths as negated reciprocals so the loop multiplies
    // instead of dividing (GCC won't fold x / c into x * (1/c) itself —
    // ~1 ulp reassociation, inside the parity budget).
    constexpr double kNegInvL1 = -1.0 / VashishtaSiO2::kLambda1;
    constexpr double kNegInvL4 = -1.0 / VashishtaSiO2::kLambda4;
    for (int l = 0; l < kLanes; ++l) {
      const double r = std::sqrt(r2[l]);
      const double inv_r = 1.0 / r;
      // inv_r^eta with a per-lane exponent from {lo, lo+2, lo+4}: one
      // uniform powi plus an even-step correction selected per lane.
      const double x_lo = powi(inv_r, eta_min);
      const double x2 = inv_r * inv_r;
      const double x4 = x2 * x2;
      const double pw =
          x_lo * (eta[l] == e_lo ? 1.0 : (eta[l] == e_mid ? x2 : x4));
      const double steric = H[l] * pw;
      const double coul = zz[l] * inv_r * vexp1(r * kNegInvL1);
      const double inv_r4 = inv_r * inv_r * inv_r * inv_r;
      const double dip = -D[l] * inv_r4 * vexp1(r * kNegInvL4);
      const double v = steric + coul + dip;
      const double dv = -eta[l] * steric * inv_r +
                        coul * (-inv_r + kNegInvL1) +
                        dip * (-4.0 * inv_r + kNegInvL4);
      e[l] = v - vs[l] - (r - rcut) * fs[l];
      const double dvdr = dv - fs[l];
      fr[l] = -dvdr * inv_r;
    }
  }
};

/// SW repulsive pair with compile-time exponents.  Runtime exponents
/// would make the powi bit-selects scalar-conditioned, which the
/// vectorizer rejects; the bind below instantiates the standard (p=4,
/// q=0) form and leaves exotic parameterizations to the scalar path.
template <int P, int Q>
struct SwPairOp {
  double sigma, rc, B, Aeps, npB, qv;

  explicit SwPairOp(const StillingerWeber& f) {
    const SwParams& p = f.params();
    sigma = p.sigma;
    rc = f.rc();
    B = p.B;
    Aeps = p.A * p.epsilon;
    npB = -p.p * p.B;
    qv = p.q;
  }

  void operator()(const int*, const int*, const double* r2,
                  std::span<const int>, double* e, double* fr) const {
    for (int l = 0; l < kLanes; ++l) {
      const double r = std::sqrt(r2[l]);
      const double inv_r = 1.0 / r;
      const double inv_rrc = 1.0 / (r - rc);
      const double sr = sigma * inv_r;
      const double srp = powi(sr, P);
      const double srq = Q == 0 ? 1.0 : powi(sr, Q);
      const double screen = vexp1(sigma * inv_rrc);
      const double core = B * srp - srq;
      e[l] = Aeps * core * screen;
      const double dvdr =
          Aeps * screen *
          ((npB * srp + qv * srq) * inv_r - core * sigma * inv_rrc * inv_rrc);
      fr[l] = -dvdr * inv_r;
    }
  }
};

}  // namespace

KernelFn bind_pair_kernel(const ForceField& field, Isa isa) {
  if (const auto* lj = dynamic_cast<const LennardJones*>(&field)) {
    return pair_fn(LjOp(*lj), isa);
  }
  if (const auto* morse = dynamic_cast<const Morse*>(&field)) {
    return pair_fn(MorseOp(*morse), isa);
  }
  if (const auto* bks = dynamic_cast<const BksSiO2*>(&field)) {
    return pair_fn(BksOp(*bks), isa);
  }
  if (const auto* vp = dynamic_cast<const VashishtaSiO2*>(&field)) {
    // The per-lane exponent select needs the steric exponents to be the
    // small integers {emin, emin+2, emin+4} (the 1990 SiO2 set is
    // {7, 9, 11}); anything else keeps the scalar path.
    int emin = 0, emax = 0;
    bool ok = true;
    for (int a = 0; a < vp->num_types() && ok; ++a) {
      for (int b = 0; b < vp->num_types() && ok; ++b) {
        const double eta = vp->pair_params(a, b).eta;
        if (!small_integer(eta)) {
          ok = false;
          break;
        }
        const int ei = static_cast<int>(eta);
        if (a == 0 && b == 0) {
          emin = emax = ei;
        } else {
          emin = std::min(emin, ei);
          emax = std::max(emax, ei);
        }
      }
    }
    if (ok) {
      for (int a = 0; a < vp->num_types() && ok; ++a) {
        for (int b = 0; b < vp->num_types() && ok; ++b) {
          const int ei = static_cast<int>(vp->pair_params(a, b).eta);
          ok = ei == emin || ei == emin + 2 || ei == emin + 4;
        }
      }
      ok = ok && emax <= emin + 4;
    }
    if (!ok) return {};
    return pair_fn(VashishtaOp(*vp, emin), isa);
  }
  if (const auto* sw = dynamic_cast<const StillingerWeber*>(&field)) {
    // Only the standard exponents get a batched instantiation (see
    // SwPairOp); anything else keeps the scalar path.
    if (sw->params().p != 4.0 || sw->params().q != 0.0) return {};
    return pair_fn(SwPairOp<4, 0>(*sw), isa);
  }
  return {};
}

}  // namespace scmd::kernels::detail
