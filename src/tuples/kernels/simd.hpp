#pragma once

/// \file simd.hpp
/// Portable vector-friendly primitives for the batched tuple kernels.
///
/// The kernels in this layer are written as fixed-width lane loops over
/// small stack-resident SoA blocks (`double a[kLanes]`) that hold only
/// tuples which need the arithmetic: cutoff-failing (and, for bond
/// bending, inert) tuples are compacted away before a block is filled.
/// Every lane is independent, every loop bound is the compile-time
/// constant kLanes, and no lane branches — so the compiler
/// auto-vectorizes them to whatever the target ISA offers without
/// intrinsics or a per-ISA code path.  The kernel translation units are
/// built with -fno-math-errno so std::sqrt lowers to the hardware
/// instruction.
///
/// Each lane loop is compiled twice when the build targets x86 below
/// AVX2 (SCMD_KERNELS_AVX2_VARIANT): once for the baseline (SSE2 on
/// portable x86-64) and once inside a [[gnu::target("avx2")]] function
/// that inlines the same body.  BoundKernels picks the variant once, at
/// bind time, from the CPU.  AVX2 does not enable FMA, so no multiply-add
/// is contracted and every lane op is the same correctly rounded IEEE op
/// in both variants: they agree bit for bit.  A build that already
/// targets AVX2 (e.g. SCMD_NATIVE=ON) compiles a single variant.
///
/// vexp() is the one transcendental the hot kernels need (screened
/// Coulomb, Morse, Buckingham, bond-bending screening all call exp).
/// libm's exp() is an opaque scalar call the vectorizer must serialize
/// around, so the kernels use this branch-free Cephes-style polynomial
/// instead: round-to-nearest power-of-two reduction, a (2,3) rational
/// approximant on the reduced argument, and exponent-field scaling.
/// Accuracy is ~1-2 ulp against libm over the kernels' argument range
/// (pinned by tests/tuples/kernels_test.cpp); inputs are clamped to
/// [-708.39, 709.78] so the result is always finite.

#include <bit>
#include <cstdint>

/// 1 when the kernels carry a second, AVX2-targeted build of their lane
/// loops (see the file comment).
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__)) && \
    !defined(__AVX2__)
#define SCMD_KERNELS_AVX2_VARIANT 1
#else
#define SCMD_KERNELS_AVX2_VARIANT 0
#endif

namespace scmd::kernels {

/// SoA block width of the batched kernels, in doubles.  One AVX-512
/// register, two AVX2 registers, four SSE2 registers.
inline constexpr int kLanes = 8;

/// Tuples evaluated per dispatch block on the streaming (non-cached)
/// enumeration path.  A multiple of kLanes so block boundaries never
/// split a lane group (energy summation order stays independent of how
/// a tuple stream is chunked).
inline constexpr int kEvalBlock = 1024;

/// Branch-free exp(x) on one lane; see the file comment.  Marked
/// always_inline so a `for (l < kLanes) out[l] = vexp1(in[l])` loop is a
/// single straight-line vectorizable body.
[[gnu::always_inline]] inline double vexp1(double x) {
  // Clamp: the low end saturates to exp(-708.39) ~ 2e-308 (never NaN);
  // the high end saturates to inf when 2^n overflows the exponent
  // field.  Kernel arguments never approach the high clamp.
  x = x < -708.39 ? -708.39 : x;
  x = x > 709.78 ? 709.78 : x;

  // n = round(x / ln2) via the shift trick (round-to-nearest-even, pure
  // FP, vectorizable — unlike floor/lround which call out of line on the
  // SSE2 baseline).  |x| <= 710 keeps |z| < 2^11, far inside the trick's
  // valid range.
  constexpr double kLog2E = 1.4426950408889634074;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  const double zs = x * kLog2E + kShift;
  const double n = zs - kShift;

  // r = x - n*ln2 in two pieces, |r| <= ln2/2 + 1 ulp.
  constexpr double kLn2Hi = 6.93145751953125e-1;
  constexpr double kLn2Lo = 1.42860682030941723212e-6;
  double r = x - n * kLn2Hi;
  r -= n * kLn2Lo;

  // Cephes expml-style (2,3) rational: exp(r) = 1 + 2 pr / (q - pr).
  constexpr double kP0 = 1.26177193074810590878e-4;
  constexpr double kP1 = 3.02994407707441961300e-2;
  constexpr double kP2 = 9.99999999999999999910e-1;
  constexpr double kQ0 = 3.00198505138664455042e-6;
  constexpr double kQ1 = 2.52448340349684104192e-3;
  constexpr double kQ2 = 2.27265548208155028766e-1;
  constexpr double kQ3 = 2.00000000000000000005e0;
  const double rr = r * r;
  const double pr = r * (kP2 + rr * (kP1 + rr * kP0));
  const double q = kQ3 + rr * (kQ2 + rr * (kQ1 + rr * kQ0));
  const double e = 1.0 + 2.0 * pr / (q - pr);

  // Scale by 2^n through the exponent field.  The shift trick leaves zs
  // integer-valued in [2^52, 2^53), so its mantissa bits hold 2^51 + n
  // directly; adding the bias and shifting into the exponent field needs
  // only int64 add + shift (which SSE2 has packed forms of — a
  // double->int64 conversion here would block vectorization on the
  // portable baseline).  Bits above the low 12 of the sum fall off the
  // shift; 2^51 mod 2^12 = 0, so the exponent lands at (n + 1023).
  const double scale =
      std::bit_cast<double>((std::bit_cast<std::uint64_t>(zs) + 1023u) << 52);
  return e * scale;
}

/// x^e for a small non-negative integer exponent, by squaring.  Uniform
/// e across lanes keeps the loop body identical lane to lane.  Matches
/// std::pow(x, double(e)) to a few ulp.
[[gnu::always_inline]] inline double powi(double x, int e) {
  // Fully unrolled squaring chain for e <= 31: five selects on the
  // exponent bits instead of a data-dependent loop, so a lane loop
  // around this stays branch-free (a while-loop here would make the
  // caller's loop unvectorizable even with a lane-uniform e).  The
  // multiply sequence matches the loop form exactly — the extra
  // multiplies by 1.0 are bit-exact no-ops.
  const auto u = static_cast<unsigned>(e);
  double acc = (u & 1u) != 0u ? x : 1.0;
  double base = x * x;
  acc *= (u & 2u) != 0u ? base : 1.0;
  base *= base;
  acc *= (u & 4u) != 0u ? base : 1.0;
  base *= base;
  acc *= (u & 8u) != 0u ? base : 1.0;
  base *= base;
  acc *= (u & 16u) != 0u ? base : 1.0;
  return acc;
}

/// True when `v` is a small non-negative integer (usable with powi).
inline bool small_integer(double v, int max = 31) {
  const auto i = static_cast<int>(v);
  return v >= 0.0 && v <= static_cast<double>(max) &&
         static_cast<double>(i) == v;
}

}  // namespace scmd::kernels
