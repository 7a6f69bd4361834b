// Batched SoA triplet kernel (docs/KERNELS.md): the screened
// bond-bending term shared by VashishtaSiO2 and StillingerWeber,
// reproducing eval_bond_bending (potentials/bond_bending.hpp)
// expression for expression with vexp1 in place of libm exp.
//
// Channel selection — eval_triplet's type-based dispatch (including the
// zero-strength combinations) — becomes a dense per-type-triple LUT
// gathered per lane.  Lanes whose geometry passes the chain filter but
// whose channel is inert (B == 0, or a leg at/beyond the screening
// cutoff r0) still count as evals, same as the scalar path, and
// contribute exactly zero.
//
// The screening cutoff r0 is well inside the three-body rcut, so on a
// skin-inflated replay stream only ~10-15% of tuples reach the
// transcendental math (silica: ~10% of the stream).  Running the full
// sqrt/div/exp block on every lane therefore loses to the scalar
// early-out path.  Instead the cheap geometry/LUT pass classifies each
// lane, and active lanes (their chain slots and channel) are compacted
// into a pending block that runs the expensive loop only when full
// (plus one padded flush at the end of the stream).  Compaction
// preserves stream order among active tuples, and inert lanes
// contribute exactly +0.0, so energy totals and per-atom force sums are
// bit-identical to the uncompacted kernel.
// Padding lanes in the final flush replicate a real active lane and are
// dropped before any scatter.  Compiled with -fno-math-errno for
// vectorizable sqrt.
//
// BendOp::eval (classification pass and flush) is built twice
// (simd.hpp): for the baseline target and, when the compiler targets x86
// below AVX2, under [[gnu::target("avx2")]] — the same source inlined
// into a second function, picked once at bind time.

#include <algorithm>
#include <cmath>
#include <vector>

#include "potentials/bond_bending.hpp"
#include "potentials/stillinger_weber.hpp"
#include "potentials/vashishta.hpp"
#include "tuples/kernels/kernels.hpp"
#include "tuples/kernels/simd.hpp"

namespace scmd::kernels::detail {

namespace {

struct BendOp {
  int num_types = 0;
  /// Channel params by chain types: [(t0 * T + t1) * T + t2], center t1.
  /// Combinations without a channel hold the default (B = 0).
  std::vector<BondBendingParams> lut;

  /// Pending block of compacted active tuples awaiting the expensive
  /// loop: the chain slots and the channel (LUT index).  Stack-resident;
  /// lives one eval() call.
  struct Pending {
    alignas(64) int aa[kLanes];
    alignas(64) int cc[kLanes];
    alignas(64) int bb[kLanes];
    alignas(64) int ch[kLanes];
  };

  /// Expensive loop over `m` packed active lanes: full bond-bending
  /// energy/gradient, scattered in packed (= stream) order.  Lanes
  /// [m, kLanes) are padding (copies of lane m-1) whose outputs are
  /// dropped.  Every packed lane has a live channel (B != 0) and both
  /// legs inside the screening cutoff, so no inert select is needed.
  /// The legs are recomputed from `pos` exactly as the classification
  /// pass computed them, so they are bitwise the legs it tested.
  [[gnu::always_inline]] void flush(const Pending& pend, int m,
                                    std::span<const Vec3> pos, double& energy,
                                    Vec3* fd) const {
    struct Lanes {
      alignas(64) double ux[kLanes];
      alignas(64) double uy[kLanes];
      alignas(64) double uz[kLanes];
      alignas(64) double vx[kLanes];
      alignas(64) double vy[kLanes];
      alignas(64) double vz[kLanes];
      alignas(64) double ru2[kLanes];
      alignas(64) double rv2[kLanes];
      alignas(64) double B[kLanes];
      alignas(64) double cos0[kLanes];
      alignas(64) double C[kLanes];
      alignas(64) double gam[kLanes];
      alignas(64) double r0[kLanes];
    } p;
    for (int l = 0; l < kLanes; ++l) {
      const Vec3& rc_ = pos[static_cast<std::size_t>(pend.cc[l])];
      const Vec3 u = pos[static_cast<std::size_t>(pend.aa[l])] - rc_;
      const Vec3 v = pos[static_cast<std::size_t>(pend.bb[l])] - rc_;
      const BondBendingParams& q = lut[static_cast<std::size_t>(pend.ch[l])];
      p.ux[l] = u.x;
      p.uy[l] = u.y;
      p.uz[l] = u.z;
      p.vx[l] = v.x;
      p.vy[l] = v.y;
      p.vz[l] = v.z;
      p.ru2[l] = u.norm2();
      p.rv2[l] = v.norm2();
      p.B[l] = q.B;
      p.cos0[l] = q.cos_theta0;
      p.C[l] = q.C;
      p.gam[l] = q.gamma;
      p.r0[l] = q.r0;
    }
    alignas(64) double el[kLanes];
    alignas(64) double gax[kLanes];
    alignas(64) double gay[kLanes];
    alignas(64) double gaz[kLanes];
    alignas(64) double gbx[kLanes];
    alignas(64) double gby[kLanes];
    alignas(64) double gbz[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      // One reciprocal per distinct denominator, multiplied through —
      // the straight / forms cost ~12 divisions per lane and dominate
      // the vectorized loop.  Each substitution is a ~1 ulp
      // reassociation of the scalar expression, inside the parity
      // budget (docs/KERNELS.md).
      const double ru = std::sqrt(p.ru2[l]);
      const double rv = std::sqrt(p.rv2[l]);
      const double inv_ru = 1.0 / ru;
      const double inv_rv = 1.0 / rv;
      const double du = ru - p.r0[l];
      const double dw = rv - p.r0[l];
      const double inv_du = 1.0 / du;
      const double inv_dw = 1.0 / dw;
      const double fu = vexp1(p.gam[l] * inv_du);
      const double fv = vexp1(p.gam[l] * inv_dw);
      const double dfu = -p.gam[l] * inv_du * inv_du * fu;
      const double dfv = -p.gam[l] * inv_dw * inv_dw * fv;
      const double inv_rurv = inv_ru * inv_rv;
      const double cos_t =
          (p.ux[l] * p.vx[l] + p.uy[l] * p.vy[l] + p.uz[l] * p.vz[l]) *
          inv_rurv;
      const double delta = cos_t - p.cos0[l];
      const double denom = 1.0 + p.C[l] * delta * delta;
      const double inv_denom = 1.0 / denom;
      const double g = delta * delta * inv_denom;
      const double dg = 2.0 * delta * inv_denom * inv_denom;
      const double e = p.B[l] * fu * fv * g;
      const double cu = cos_t * inv_ru * inv_ru;
      const double cv = cos_t * inv_rv * inv_rv;
      const double ca = p.B[l] * dfu * fv * g * inv_ru;
      const double cb = p.B[l] * fu * dfv * g * inv_rv;
      const double cg = p.B[l] * fu * fv * dg;
      // grad_a = ca*u + cg*dcos_da, dcos_da = v*inv_rurv − u*cu
      el[l] = e;
      gax[l] = ca * p.ux[l] + cg * (p.vx[l] * inv_rurv - p.ux[l] * cu);
      gay[l] = ca * p.uy[l] + cg * (p.vy[l] * inv_rurv - p.uy[l] * cu);
      gaz[l] = ca * p.uz[l] + cg * (p.vz[l] * inv_rurv - p.uz[l] * cu);
      gbx[l] = cb * p.vx[l] + cg * (p.ux[l] * inv_rurv - p.vx[l] * cv);
      gby[l] = cb * p.vy[l] + cg * (p.uy[l] * inv_rurv - p.vy[l] * cv);
      gbz[l] = cb * p.vz[l] + cg * (p.uz[l] * inv_rurv - p.vz[l] * cv);
    }
    for (int l = 0; l < m; ++l) {
      energy += el[l];
      Vec3& fa = fd[pend.aa[l]];
      Vec3& fb = fd[pend.bb[l]];
      Vec3& fc = fd[pend.cc[l]];
      fa.x -= gax[l];
      fa.y -= gay[l];
      fa.z -= gaz[l];
      fb.x -= gbx[l];
      fb.y -= gby[l];
      fb.z -= gbz[l];
      fc.x += gax[l] + gbx[l];
      fc.y += gay[l] + gby[l];
      fc.z += gaz[l] + gbz[l];
    }
  }

  [[gnu::always_inline]] double eval(const int* tuples, long long count,
                                     std::span<const Vec3> pos,
                                     std::span<const int> type, double rcut2,
                                     Vec3* fd, std::uint64_t& evals) const {
    double energy = 0.0;
    std::uint64_t ev = 0;
    const int T = num_types;
    Pending pend;
    int np = 0;
    // Classification is one branch-free scalar pass: the position loads
    // are index-gathers the portable baseline cannot vectorize anyway,
    // and whether a tuple passes the cutoff or is active is close to
    // random along the stream, so branching on it would mispredict.
    // Every tuple is written to the next free slot, which is kept only
    // when the tuple is active.
    for (long long i = 0; i < count; ++i) {
      // Chain (t0, t1, t2): t1 is the angle center (apex).
      const int a = tuples[3 * i];
      const int c = tuples[3 * i + 1];
      const int b = tuples[3 * i + 2];
      const Vec3& rc_ = pos[static_cast<std::size_t>(c)];
      const Vec3 u = pos[static_cast<std::size_t>(a)] - rc_;
      const Vec3 v = pos[static_cast<std::size_t>(b)] - rc_;
      // u = -(leg c-a), v = leg b-c up to the chain direction; squares
      // match the enumerator's leg norms bitwise either way.
      const double ru2 = u.norm2();
      const double rv2 = v.norm2();
      const bool within = (ru2 < rcut2) & (rv2 < rcut2);
      const int ch = (type[static_cast<std::size_t>(a)] * T +
                      type[static_cast<std::size_t>(c)]) *
                         T +
                     type[static_cast<std::size_t>(b)];
      const BondBendingParams& p = lut[static_cast<std::size_t>(ch)];
      // Inert tuples (no channel, or a leg at/past the screening
      // cutoff r0) count as evals but contribute exactly zero — the
      // scalar early-outs.  r < r0 is compared as squares to avoid a
      // sqrt on the ~90% inert majority; rounding can flip the verdict
      // only within an ulp of the boundary, where the screening factor
      // exp(γ/(r−r0)) underflows to zero and the contribution vanishes
      // either way.
      const double r02 = p.r0 * p.r0;
      const bool active =
          within & (p.B != 0.0) & (ru2 < r02) & (rv2 < r02);
      ev += within ? 1 : 0;
      pend.aa[np] = a;
      pend.cc[np] = c;
      pend.bb[np] = b;
      pend.ch[np] = ch;
      np += active ? 1 : 0;
      if (np == kLanes) {
        flush(pend, kLanes, pos, energy, fd);
        np = 0;
      }
    }
    if (np > 0) {
      // Pad with copies of the last active lane; flush drops them.
      for (int l = np; l < kLanes; ++l) {
        pend.aa[l] = pend.aa[np - 1];
        pend.cc[l] = pend.cc[np - 1];
        pend.bb[l] = pend.bb[np - 1];
        pend.ch[l] = pend.ch[np - 1];
      }
      flush(pend, np, pos, energy, fd);
    }
    evals += ev;
    return energy;
  }

  [[gnu::flatten]] double eval_baseline(const int* tuples, long long count,
                                        std::span<const Vec3> pos,
                                        std::span<const int> type,
                                        double rcut2, Vec3* fd,
                                        std::uint64_t& evals) const {
    return eval(tuples, count, pos, type, rcut2, fd, evals);
  }

#if SCMD_KERNELS_AVX2_VARIANT
  [[gnu::target("avx2"), gnu::flatten]] double eval_avx2(
      const int* tuples, long long count, std::span<const Vec3> pos,
      std::span<const int> type, double rcut2, Vec3* fd,
      std::uint64_t& evals) const {
    return eval(tuples, count, pos, type, rcut2, fd, evals);
  }
#endif
};

}  // namespace

KernelFn bind_triplet_kernel(const ForceField& field,
                             [[maybe_unused]] Isa isa) {
  BendOp op;
  if (const auto* vp = dynamic_cast<const VashishtaSiO2*>(&field)) {
    op.num_types = vp->num_types();
    const int T = op.num_types;
    op.lut.assign(static_cast<std::size_t>(T) * T * T, BondBendingParams{});
    for (int i = 0; i < T; ++i) {
      for (int j = 0; j < T; ++j) {
        for (int k = 0; k < T; ++k) {
          const BondBendingParams* p = vp->bend_channel(i, j, k);
          if (p != nullptr) {
            op.lut[static_cast<std::size_t>((i * T + j) * T + k)] = *p;
          }
        }
      }
    }
  } else if (const auto* sw = dynamic_cast<const StillingerWeber*>(&field)) {
    op.num_types = 1;
    op.lut.assign(1, sw->bend());
  } else {
    return {};
  }
#if SCMD_KERNELS_AVX2_VARIANT
  if (isa == Isa::kAvx2) {
    return [op = std::move(op)](const int* tuples, long long count,
                                std::span<const Vec3> pos,
                                std::span<const int> type, double rcut2,
                                Vec3* fd, std::uint64_t& evals) {
      return op.eval_avx2(tuples, count, pos, type, rcut2, fd, evals);
    };
  }
#endif
  return [op = std::move(op)](const int* tuples, long long count,
                              std::span<const Vec3> pos,
                              std::span<const int> type, double rcut2,
                              Vec3* fd, std::uint64_t& evals) {
    return op.eval_baseline(tuples, count, pos, type, rcut2, fd, evals);
  };
}

}  // namespace scmd::kernels::detail
