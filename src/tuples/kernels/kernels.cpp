#include "tuples/kernels/kernels.hpp"

#include <cstdlib>
#include <string>

#include "support/error.hpp"
#include "tuples/kernels/simd.hpp"

namespace scmd::kernels {

namespace {

/// Scalar fallback, unrolled on arity: the chain filter and the eval_*
/// dispatch are fixed at compile time, so the per-tuple loop carries no
/// arity branching.  This is the exact loop the replay path ran before
/// the batched kernels existed, kept as the reference semantics.
template <int N>
double scalar_eval_fixed(const ForceField& field, const int* tuples,
                         long long count, std::span<const Vec3> pos,
                         std::span<const int> type, double rcut2, Vec3* fd,
                         std::uint64_t& evals) {
  static_assert(N >= 2 && N <= 4);
  double energy = 0.0;
  std::uint64_t ev = 0;
  for (long long i = 0; i < count; ++i) {
    const int* t = tuples + i * N;
    bool within = true;
    for (int k = 0; k + 1 < N; ++k) {
      const Vec3 d = pos[static_cast<std::size_t>(t[k + 1])] -
                     pos[static_cast<std::size_t>(t[k])];
      if (d.norm2() >= rcut2) {
        within = false;
        break;
      }
    }
    if (!within) continue;
    ++ev;
    if constexpr (N == 2) {
      energy += field.eval_pair(type[static_cast<std::size_t>(t[0])],
                                type[static_cast<std::size_t>(t[1])],
                                pos[static_cast<std::size_t>(t[0])],
                                pos[static_cast<std::size_t>(t[1])],
                                fd[t[0]], fd[t[1]]);
    } else if constexpr (N == 3) {
      energy += field.eval_triplet(type[static_cast<std::size_t>(t[0])],
                                   type[static_cast<std::size_t>(t[1])],
                                   type[static_cast<std::size_t>(t[2])],
                                   pos[static_cast<std::size_t>(t[0])],
                                   pos[static_cast<std::size_t>(t[1])],
                                   pos[static_cast<std::size_t>(t[2])],
                                   fd[t[0]], fd[t[1]], fd[t[2]]);
    } else {
      energy += field.eval_quad(type[static_cast<std::size_t>(t[0])],
                                type[static_cast<std::size_t>(t[1])],
                                type[static_cast<std::size_t>(t[2])],
                                type[static_cast<std::size_t>(t[3])],
                                pos[static_cast<std::size_t>(t[0])],
                                pos[static_cast<std::size_t>(t[1])],
                                pos[static_cast<std::size_t>(t[2])],
                                pos[static_cast<std::size_t>(t[3])],
                                fd[t[0]], fd[t[1]], fd[t[2]], fd[t[3]]);
    }
  }
  evals += ev;
  return energy;
}

/// Scalar fallback for n >= 5: generic chain kernel over eval_chain,
/// gathering positions/types into chain-ordered scratch.
double scalar_eval_chain(const ForceField& field, int n, const int* tuples,
                         long long count, std::span<const Vec3> pos,
                         std::span<const int> type, double rcut2, Vec3* fd,
                         std::uint64_t& evals) {
  double energy = 0.0;
  std::uint64_t ev = 0;
  for (long long i = 0; i < count; ++i) {
    const int* t = tuples + i * n;
    bool within = true;
    for (int k = 0; k + 1 < n; ++k) {
      const Vec3 d = pos[static_cast<std::size_t>(t[k + 1])] -
                     pos[static_cast<std::size_t>(t[k])];
      if (d.norm2() >= rcut2) {
        within = false;
        break;
      }
    }
    if (!within) continue;
    ++ev;
    std::array<int, kMaxTupleLen> ct{};
    std::array<Vec3, kMaxTupleLen> cr{};
    std::array<Vec3, kMaxTupleLen> cf{};
    for (int k = 0; k < n; ++k) {
      ct[static_cast<std::size_t>(k)] = type[static_cast<std::size_t>(t[k])];
      cr[static_cast<std::size_t>(k)] = pos[static_cast<std::size_t>(t[k])];
    }
    energy += field.eval_chain(n, ct.data(), cr.data(), cf.data());
    for (int k = 0; k < n; ++k) fd[t[k]] += cf[static_cast<std::size_t>(k)];
  }
  evals += ev;
  return energy;
}

}  // namespace

KernelMode mode_from_env() {
  const char* v = std::getenv("SCMD_KERNELS");
  if (v != nullptr && std::string(v) == "scalar") return KernelMode::kScalar;
  return KernelMode::kAuto;
}

namespace detail {

Isa host_isa() {
#if SCMD_KERNELS_AVX2_VARIANT
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kBaseline;
#else
  return Isa::kBaseline;
#endif
}

}  // namespace detail

BoundKernels::BoundKernels(const ForceField& field, KernelMode mode)
    : field_(&field) {
  if (mode == KernelMode::kScalar) return;
  const detail::Isa isa = detail::host_isa();
  fn_[2] = detail::bind_pair_kernel(field, isa);
  fn_[3] = detail::bind_triplet_kernel(field, isa);
}

double BoundKernels::eval(int n, const int* tuples, long long count,
                          std::span<const Vec3> pos,
                          std::span<const int> type, double rcut2, Vec3* fd,
                          std::uint64_t& evals) const {
  SCMD_REQUIRE(field_ != nullptr, "BoundKernels used before binding");
  SCMD_REQUIRE(n >= 2 && n <= kMaxTupleLen, "tuple arity out of range");
  const KernelFn& fn = fn_[static_cast<std::size_t>(n)];
  if (fn) return fn(tuples, count, pos, type, rcut2, fd, evals);
  switch (n) {
    case 2:
      return scalar_eval_fixed<2>(*field_, tuples, count, pos, type, rcut2,
                                  fd, evals);
    case 3:
      return scalar_eval_fixed<3>(*field_, tuples, count, pos, type, rcut2,
                                  fd, evals);
    case 4:
      return scalar_eval_fixed<4>(*field_, tuples, count, pos, type, rcut2,
                                  fd, evals);
    default:
      return scalar_eval_chain(*field_, n, tuples, count, pos, type, rcut2,
                               fd, evals);
  }
}

}  // namespace scmd::kernels
