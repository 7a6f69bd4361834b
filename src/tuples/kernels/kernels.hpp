#pragma once

/// \file kernels.hpp
/// Batched, arity-specialized tuple evaluation kernels (docs/KERNELS.md).
///
/// The UCP enumeration, tuple-cache build, and cached replay paths all
/// reduce to the same inner operation: given a flat array of n-tuples
/// (slot indices into a position/type table), apply the exact-rcut chain
/// filter and evaluate the field's n-body term on every passing tuple,
/// accumulating forces and summing energy.  BoundKernels is the single
/// dispatch point for that operation.
///
/// At bind time the field is matched against the potentials this layer
/// specializes (pairs: LJ / Morse / BKS / Vashishta / SW; triplets: the
/// shared screened bond-bending term of Vashishta and SW).  A match
/// installs a batched SoA kernel that compacts the tuples needing
/// arithmetic into kLanes-wide blocks and runs branch-free lane loops on
/// them, built for the widest instruction set the CPU offers (see
/// simd.hpp); anything else — and
/// every arity without a specialized kernel — falls back to a scalar
/// loop over the field's virtual eval_* methods, itself unrolled on
/// arity via template<int N>.  KernelMode::kScalar forces the fallback
/// everywhere (parity tests, benchmarks, SCMD_KERNELS=scalar).
///
/// Numerical contract: a kernel reproduces the scalar term formulas
/// expression for expression; the only deviations are the vectorizable
/// exp replacing libm's (~1 ulp) and integer powers by squaring
/// replacing std::pow (~few ulp).  Energy is summed and forces are
/// scattered in tuple order, and the instruction-set variants agree bit
/// for bit, so results are deterministic for a fixed tuple stream — and
/// unchanged by dropping cutoff-failing tuples from it.  The cutoff test
/// is bitwise the enumerator's acceptance test (consecutive deltas,
/// norm2 < rcut²), so eval counts match the scalar path exactly.

#include <array>
#include <cstdint>
#include <functional>
#include <span>

#include "geom/vec3.hpp"
#include "pattern/path.hpp"
#include "potentials/force_field.hpp"

namespace scmd::kernels {

/// Kernel selection policy.
enum class KernelMode {
  kAuto,    ///< batched kernels where bound, scalar elsewhere
  kScalar,  ///< scalar fallback everywhere
};

/// Mode from the SCMD_KERNELS environment variable ("scalar" forces the
/// fallback; anything else, or unset, is kAuto).
KernelMode mode_from_env();

/// One bound n-term evaluator: filter + evaluate `count` tuples.
/// Contract shared by every kernel and the scalar fallback:
///  - `tuples` is `count * n` slot indices in chain order;
///  - a tuple passes iff every consecutive pair is closer than rcut
///    (`rcut2` is the *exact* squared cutoff, never the inflated one);
///  - each passing tuple bumps `evals`, adds its forces into `fd`
///    (indexed like `pos`), and contributes to the returned energy.
using KernelFn =
    std::function<double(const int* tuples, long long count,
                         std::span<const Vec3> pos, std::span<const int> type,
                         double rcut2, Vec3* fd, std::uint64_t& evals)>;

/// Per-field kernel table resolved once at strategy construction.
/// Immutable after binding, so one instance is safely shared across
/// rank threads.
class BoundKernels {
 public:
  BoundKernels() = default;

  /// Resolve kernels for `field`.  The field must outlive this object.
  explicit BoundKernels(const ForceField& field,
                        KernelMode mode = mode_from_env());

  const ForceField* field() const { return field_; }

  /// True when arity n dispatches to a batched kernel (not the scalar
  /// fallback).
  bool specialized(int n) const {
    return n >= 2 && n <= kMaxTupleLen &&
           static_cast<bool>(fn_[static_cast<std::size_t>(n)]);
  }

  /// Filter + evaluate (see KernelFn); requires a bound field.
  double eval(int n, const int* tuples, long long count,
              std::span<const Vec3> pos, std::span<const int> type,
              double rcut2, Vec3* fd, std::uint64_t& evals) const;

 private:
  const ForceField* field_ = nullptr;
  std::array<KernelFn, kMaxTupleLen + 1> fn_{};
};

namespace detail {

/// Instruction-set variant of a batched kernel (see simd.hpp).
enum class Isa {
  kBaseline,  ///< the build's own target
  kAvx2,      ///< lane loops built under [[gnu::target("avx2")]]
};

/// The variant BoundKernels binds: kAvx2 when the build carries a
/// separate AVX2 variant and the CPU supports it, else kBaseline.
Isa host_isa();

/// Batched pair kernel for `field` built for `isa`, or an empty function
/// when the field is not a specialized pair potential.  In a build
/// without a separate AVX2 variant, kAvx2 binds the baseline.
/// Implemented in pair_kernels.cpp.
KernelFn bind_pair_kernel(const ForceField& field, Isa isa);

/// Batched triplet kernel (screened bond bending), or empty.
/// Implemented in triplet_kernels.cpp.
KernelFn bind_triplet_kernel(const ForceField& field, Isa isa);

}  // namespace detail

}  // namespace scmd::kernels
