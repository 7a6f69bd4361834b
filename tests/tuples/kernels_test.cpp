// Batched-kernel parity (docs/KERNELS.md): for every specialized
// potential and every arity, the batched SoA kernel must agree with the
// scalar fallback on the same recorded tuple stream — identical eval
// counts (the mask criterion is bitwise the enumerator's test) and
// energies/forces within the documented numerical contract (vexp1 and
// powi replace libm, ≤ a few ulp).  Plus: the vexp1/powi primitives
// against libm directly, a cached-replay engine run in both modes, and
// the bitwise guarantees of the batched path itself — dropping
// cutoff-failing tuples from a stream changes nothing, the AVX2 and
// baseline builds agree bit for bit, and compaction handles empty,
// survivor-free and block-boundary streams.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "cell/domain.hpp"
#include "engines/serial_engine.hpp"
#include "engines/tuple_strategy.hpp"
#include "md/builders.hpp"
#include "md/units.hpp"
#include "pattern/generate.hpp"
#include "potentials/bks.hpp"
#include "potentials/dihedral.hpp"
#include "potentials/lj.hpp"
#include "potentials/morse.hpp"
#include "potentials/stillinger_weber.hpp"
#include "potentials/vashishta.hpp"
#include "support/rng.hpp"
#include "tuples/kernels/kernels.hpp"
#include "tuples/kernels/simd.hpp"
#include "tuples/ucp.hpp"

namespace scmd {
namespace {

constexpr double kRelTol = 1e-10;

/// Evaluate every arity of `field` over a skin-inflated recorded tuple
/// stream (the replay shape) in both kernel modes and require parity.
void expect_mode_parity(const ForceField& field, const ParticleSystem& sys,
                        double skin) {
  const kernels::BoundKernels batched(field, kernels::KernelMode::kAuto);
  const kernels::BoundKernels scalar(field, kernels::KernelMode::kScalar);
  for (int n = 2; n <= field.max_n(); ++n) {
    if (field.rcut(n) <= 0.0) continue;  // no n-body term (ChainDihedral n=3)
    SCOPED_TRACE("n=" + std::to_string(n));
    const Pattern psi = make_sc(n);
    const CellGrid grid(sys.box(), field.rcut(n) + skin);
    const CellDomain dom = make_serial_domain(grid, halo_for(psi),
                                              sys.positions(), sys.types());
    const CompiledPattern cp(psi);
    std::vector<int> rec;
    for_each_tuple(dom, cp, field.rcut(n) + skin,
                   [&](std::span<const int> t) {
                     rec.insert(rec.end(), t.begin(), t.end());
                   },
                   nullptr);
    const long long count = static_cast<long long>(rec.size()) / n;
    ASSERT_GT(count, 100) << "workload too sparse to be a real check";
    const double rcut2 = field.rcut(n) * field.rcut(n);

    std::vector<Vec3> fa(dom.positions().size());
    std::vector<Vec3> fs(dom.positions().size());
    std::uint64_t eva = 0;
    std::uint64_t evs = 0;
    const double ea = batched.eval(n, rec.data(), count, dom.positions(),
                                   dom.types(), rcut2, fa.data(), eva);
    const double es = scalar.eval(n, rec.data(), count, dom.positions(),
                                  dom.types(), rcut2, fs.data(), evs);

    // The exact-rcut mask must agree tuple for tuple, not just in sum.
    EXPECT_EQ(eva, evs);
    EXPECT_GT(evs, 0u);
    EXPECT_NEAR(ea, es, kRelTol * std::abs(es) + kRelTol);

    // Forces: relative to the largest component so near-cancelling
    // per-atom sums don't demand absolute precision the contract never
    // promised.
    double fmax = 0.0;
    for (const Vec3& f : fs) {
      fmax = std::max({fmax, std::abs(f.x), std::abs(f.y), std::abs(f.z)});
    }
    const double ftol = kRelTol * std::max(fmax, 1.0);
    for (std::size_t i = 0; i < fs.size(); ++i) {
      ASSERT_NEAR(fa[i].x, fs[i].x, ftol) << i;
      ASSERT_NEAR(fa[i].y, fs[i].y, ftol) << i;
      ASSERT_NEAR(fa[i].z, fs[i].z, ftol) << i;
    }
  }
}

TEST(KernelParityTest, VashishtaSilica) {
  Rng rng(11);
  const ParticleSystem sys = make_silica(648, 2.2, 600.0, rng);
  const VashishtaSiO2 field;
  const kernels::BoundKernels k(field, kernels::KernelMode::kAuto);
  EXPECT_TRUE(k.specialized(2));
  EXPECT_TRUE(k.specialized(3));
  expect_mode_parity(field, sys, 0.4);
}

TEST(KernelParityTest, BksSilica) {
  Rng rng(12);
  const ParticleSystem sys = make_silica(648, 2.2, 600.0, rng);
  const BksSiO2 field;
  EXPECT_TRUE(
      kernels::BoundKernels(field, kernels::KernelMode::kAuto).specialized(2));
  expect_mode_parity(field, sys, 0.4);
}

TEST(KernelParityTest, LennardJonesGas) {
  Rng rng(13);
  const LennardJones field;
  const ParticleSystem sys = make_gas(field, 400, 4.0, 1.0, rng);
  EXPECT_TRUE(
      kernels::BoundKernels(field, kernels::KernelMode::kAuto).specialized(2));
  expect_mode_parity(field, sys, 0.2);
}

TEST(KernelParityTest, MorseGas) {
  Rng rng(14);
  const Morse field;
  const ParticleSystem sys = make_gas(field, 400, 4.0, 50.0, rng);
  EXPECT_TRUE(
      kernels::BoundKernels(field, kernels::KernelMode::kAuto).specialized(2));
  expect_mode_parity(field, sys, 0.4);
}

TEST(KernelParityTest, StillingerWeberGas) {
  Rng rng(15);
  const StillingerWeber field;
  const ParticleSystem sys = make_gas(field, 300, 4.0, 300.0, rng);
  const kernels::BoundKernels k(field, kernels::KernelMode::kAuto);
  EXPECT_TRUE(k.specialized(2));
  EXPECT_TRUE(k.specialized(3));
  expect_mode_parity(field, sys, 0.3);
}

TEST(KernelParityTest, ChainDihedralFallsBackAtEveryArity) {
  // No batched kernel exists for this field; kAuto must be the scalar
  // path (trivial parity) through n = 4, covering the arity-unrolled
  // fallback loops.
  Rng rng(16);
  const ChainDihedral field;
  const ParticleSystem sys =
      make_gas(field, 300, 3.0, 0.02 / units::kBoltzmann / 300.0, rng);
  const kernels::BoundKernels k(field, kernels::KernelMode::kAuto);
  EXPECT_FALSE(k.specialized(2));
  EXPECT_FALSE(k.specialized(3));
  EXPECT_FALSE(k.specialized(4));
  expect_mode_parity(field, sys, 0.1);
}

/// Recorded SC tuple stream of arity n at rcut(n) + skin (the replay
/// shape).  The domain owns the slot tables the indices point into.
struct RecordedStream {
  RecordedStream(const ForceField& field, const ParticleSystem& sys,
                 int arity, double skin)
      : n(arity),
        grid(sys.box(), field.rcut(n) + skin),
        dom(make_serial_domain(grid, halo_for(make_sc(n)), sys.positions(),
                               sys.types())),
        rcut2(field.rcut(n) * field.rcut(n)) {
    const CompiledPattern cp(make_sc(n));
    for_each_tuple(dom, cp, field.rcut(n) + skin,
                   [&](std::span<const int> t) {
                     tuples.insert(tuples.end(), t.begin(), t.end());
                   },
                   nullptr);
  }

  long long count() const {
    return static_cast<long long>(tuples.size()) / n;
  }

  /// The stream's tuples `idx`, in the order given.
  std::vector<int> pick(const std::vector<long long>& idx) const {
    std::vector<int> out;
    for (const long long i : idx) {
      out.insert(out.end(), tuples.begin() + i * n,
                 tuples.begin() + (i + 1) * n);
    }
    return out;
  }

  int n;
  CellGrid grid;
  CellDomain dom;
  double rcut2;
  std::vector<int> tuples;
};

/// One kernel pass: energy, eval count and the force array, which
/// starts out as `f0` (zeros by default).
struct KernelRun {
  double energy = 0.0;
  std::uint64_t evals = 0;
  std::vector<Vec3> f;
};

template <class Eval>
KernelRun run_kernel(const Eval& eval, const RecordedStream& s,
                     const std::vector<int>& tuples,
                     std::vector<Vec3> f0 = {}) {
  KernelRun r;
  r.f = f0.empty() ? std::vector<Vec3>(s.dom.positions().size())
                    : std::move(f0);
  r.energy = eval(tuples.data(), static_cast<long long>(tuples.size()) / s.n,
                  s.dom.positions(), s.dom.types(), s.rcut2, r.f.data(),
                  r.evals);
  return r;
}

KernelRun run_bound(const kernels::BoundKernels& k, const RecordedStream& s,
                    const std::vector<int>& tuples,
                    std::vector<Vec3> f0 = {}) {
  return run_kernel(
      [&](const int* t, long long c, std::span<const Vec3> pos,
          std::span<const int> type, double rcut2, Vec3* fd,
          std::uint64_t& ev) {
        return k.eval(s.n, t, c, pos, type, rcut2, fd, ev);
      },
      s, tuples, std::move(f0));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_equal(const KernelRun& a, const KernelRun& b) {
  EXPECT_EQ(a.evals, b.evals);
  EXPECT_EQ(bits(a.energy), bits(b.energy)) << a.energy << " vs " << b.energy;
  ASSERT_EQ(a.f.size(), b.f.size());
  for (std::size_t i = 0; i < a.f.size(); ++i) {
    ASSERT_EQ(bits(a.f[i].x), bits(b.f[i].x)) << "atom " << i;
    ASSERT_EQ(bits(a.f[i].y), bits(b.f[i].y)) << "atom " << i;
    ASSERT_EQ(bits(a.f[i].z), bits(b.f[i].z)) << "atom " << i;
  }
}

/// Indices of the tuples the scalar reference evaluates (eval count 1)
/// and of those it rejects at the exact cutoff.
struct CutoffSplit {
  std::vector<long long> pass;
  std::vector<long long> fail;
};

CutoffSplit split_at_cutoff(const ForceField& field, const RecordedStream& s) {
  const kernels::BoundKernels scalar(field, kernels::KernelMode::kScalar);
  CutoffSplit out;
  std::vector<Vec3> scratch(s.dom.positions().size());
  for (long long i = 0; i < s.count(); ++i) {
    std::uint64_t ev = 0;
    scalar.eval(s.n, s.tuples.data() + i * s.n, 1, s.dom.positions(),
                s.dom.types(), s.rcut2, scratch.data(), ev);
    (ev == 1 ? out.pass : out.fail).push_back(i);
  }
  return out;
}

ParticleSystem silica_648(std::uint64_t seed) {
  Rng rng(seed);
  return make_silica(648, 2.2, 600.0, rng);
}

TEST(KernelBitwiseTest, DroppingCutoffFailuresChangesNothing) {
  // The batched kernels only ever compute survivors, so a stream with
  // its cutoff-failing tuples removed beforehand must give the same
  // bits, not just the same value to a tolerance.
  const VashishtaSiO2 field;
  const ParticleSystem sys = silica_648(21);
  const kernels::BoundKernels k(field, kernels::KernelMode::kAuto);
  for (int n = 2; n <= 3; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const RecordedStream s(field, sys, n, 0.5);
    const CutoffSplit split = split_at_cutoff(field, s);
    ASSERT_GT(split.pass.size(), 1000u);
    ASSERT_GT(split.fail.size(), 100u) << "stream has nothing to drop";
    const KernelRun full = run_bound(k, s, s.tuples);
    const KernelRun kept = run_bound(k, s, s.pick(split.pass));
    EXPECT_EQ(full.evals, split.pass.size());
    expect_bitwise_equal(full, kept);
  }
}

TEST(KernelBitwiseTest, Avx2AndBaselineVariantsAgree) {
  if (kernels::detail::host_isa() != kernels::detail::Isa::kAvx2) {
    GTEST_SKIP() << "no separate AVX2 kernel variant on this host/build";
  }
  using kernels::detail::Isa;
  const auto check = [](const ForceField& field, const ParticleSystem& sys,
                        double skin) {
    for (int n = 2; n <= 3; ++n) {
      const auto bind = [&](Isa isa) {
        return n == 2 ? kernels::detail::bind_pair_kernel(field, isa)
                      : kernels::detail::bind_triplet_kernel(field, isa);
      };
      const kernels::KernelFn base = bind(Isa::kBaseline);
      const kernels::KernelFn avx2 = bind(Isa::kAvx2);
      ASSERT_EQ(static_cast<bool>(base), static_cast<bool>(avx2));
      if (!base) continue;
      SCOPED_TRACE("n=" + std::to_string(n));
      const RecordedStream s(field, sys, n, skin);
      const KernelRun a = run_kernel(base, s, s.tuples);
      const KernelRun b = run_kernel(avx2, s, s.tuples);
      EXPECT_GT(a.evals, 0u);
      expect_bitwise_equal(a, b);
    }
  };
  {
    SCOPED_TRACE("Vashishta (pair + bend)");
    check(VashishtaSiO2{}, silica_648(31), 0.5);
  }
  {
    SCOPED_TRACE("BKS");
    check(BksSiO2{}, silica_648(32), 0.4);
  }
  {
    SCOPED_TRACE("Lennard-Jones");
    const LennardJones field;
    Rng rng(33);
    check(field, make_gas(field, 400, 4.0, 1.0, rng), 0.2);
  }
  {
    SCOPED_TRACE("Morse");
    const Morse field;
    Rng rng(34);
    check(field, make_gas(field, 400, 4.0, 50.0, rng), 0.4);
  }
  {
    SCOPED_TRACE("Stillinger-Weber (pair + bend)");
    const StillingerWeber field;
    Rng rng(35);
    check(field, make_gas(field, 300, 4.0, 300.0, rng), 0.3);
  }
}

TEST(KernelBitwiseTest, CompactionEdges) {
  const VashishtaSiO2 field;
  const ParticleSystem sys = silica_648(41);
  const kernels::BoundKernels batched(field, kernels::KernelMode::kAuto);
  const kernels::BoundKernels scalar(field, kernels::KernelMode::kScalar);
  for (int n = 2; n <= 3; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const RecordedStream s(field, sys, n, 0.5);
    const CutoffSplit split = split_at_cutoff(field, s);

    // A recognisable non-zero force array, to show untouched entries.
    std::vector<Vec3> f0(s.dom.positions().size());
    for (std::size_t i = 0; i < f0.size(); ++i) {
      f0[i] = {0.5 + static_cast<double>(i), -1.25, 3.0e-3};
    }
    {
      SCOPED_TRACE("empty stream");
      const KernelRun r = run_bound(batched, s, {}, f0);
      EXPECT_EQ(bits(r.energy), bits(0.0));
      EXPECT_EQ(r.evals, 0u);
      expect_bitwise_equal(r, KernelRun{0.0, 0, f0});
    }
    {
      SCOPED_TRACE("no survivors");
      const std::vector<int> dead = s.pick(split.fail);
      const KernelRun r = run_bound(batched, s, dead, f0);
      EXPECT_EQ(run_bound(scalar, s, dead).evals, 0u);
      expect_bitwise_equal(r, KernelRun{0.0, 0, f0});
    }

    // Survivors interleaved with failures: one failing tuple ahead of
    // every survivor, so packing has to skip as it goes.  For n = 3 the
    // survivors that reach the bond-bending block are the active ones;
    // the cutoff-passing stream here is mostly inert, so block
    // boundaries are taken over the tuples that produce energy.
    std::vector<long long> live;
    std::vector<long long> inert;
    std::vector<Vec3> scratch(s.dom.positions().size());
    for (const long long i : split.pass) {
      std::uint64_t ev = 0;
      const bool active =
          n == 2 || scalar.eval(3, s.tuples.data() + i * 3, 1,
                                s.dom.positions(), s.dom.types(), s.rcut2,
                                scratch.data(), ev) != 0.0;
      (active ? live : inert).push_back(i);
    }
    if (n == 3) {
      SCOPED_TRACE("inert survivors only");
      ASSERT_GT(inert.size(), 100u);
      const std::vector<int> idle = s.pick(inert);
      const KernelRun r = run_bound(batched, s, idle, f0);
      EXPECT_EQ(r.evals, run_bound(scalar, s, idle).evals);
      expect_bitwise_equal(r, KernelRun{0.0, inert.size(), f0});
    }
    ASSERT_GT(live.size(), 8u * 4 + 1);
    for (const int k : {1, 4}) {
      for (const int survivors : {8 * k - 1, 8 * k, 8 * k + 1}) {
        SCOPED_TRACE("survivors=" + std::to_string(survivors));
        std::vector<long long> mixed;
        std::vector<long long> kept;
        for (int j = 0; j < survivors; ++j) {
          mixed.push_back(split.fail[static_cast<std::size_t>(j)]);
          mixed.push_back(live[static_cast<std::size_t>(j)]);
          kept.push_back(live[static_cast<std::size_t>(j)]);
        }
        const KernelRun got = run_bound(batched, s, s.pick(mixed));
        const KernelRun want = run_bound(scalar, s, s.pick(mixed));
        EXPECT_EQ(got.evals, want.evals);
        EXPECT_EQ(got.evals, static_cast<std::uint64_t>(survivors));
        EXPECT_NEAR(got.energy, want.energy,
                    kRelTol * std::abs(want.energy) + kRelTol);
        EXPECT_NE(got.energy, 0.0);
        expect_bitwise_equal(got, run_bound(batched, s, s.pick(kept)));
      }
    }
  }
}

TEST(KernelPrimitivesTest, Vexp1MatchesLibmOverKernelRange) {
  // Kernel arguments: Morse/SW/bend exponents are mostly in [-60, 5];
  // sweep well past both ends, through the clamp regions.
  for (double x = -750.0; x <= 60.0; x += 0.37) {
    const double want = std::exp(x);
    const double got = kernels::vexp1(x);
    ASSERT_NEAR(got, want, 4e-15 * want + 1e-300) << "x=" << x;
  }
  // The low clamp saturates to exp(-708.39) ~ 2e-308, never NaN; the
  // high clamp saturates to huge (inf once 2^n overflows the exponent
  // field) — kernel arguments never reach it.
  EXPECT_LT(kernels::vexp1(-1000.0), 1e-307);
  EXPECT_GT(kernels::vexp1(-1000.0), 0.0);
  EXPECT_GT(kernels::vexp1(1000.0), 1e308);
  EXPECT_FALSE(std::isnan(kernels::vexp1(1000.0)));
}

TEST(KernelPrimitivesTest, PowiMatchesPow) {
  for (int e = 0; e <= 31; ++e) {
    for (double x : {0.3, 0.97, 1.0, 1.8, 7.5}) {
      const double want = std::pow(x, e);
      ASSERT_NEAR(kernels::powi(x, e), want, 1e-13 * want) << x << "^" << e;
    }
  }
  EXPECT_TRUE(kernels::small_integer(7.0));
  EXPECT_FALSE(kernels::small_integer(7.5));
  EXPECT_FALSE(kernels::small_integer(-2.0));
}

TEST(KernelModeTest, CachedReplayLockstepAcrossModes) {
  // A cached MD run (rebuilds + replays) must stay in numerical
  // lockstep whether replay uses the batched kernels or the scalar
  // fallback — same trajectory to the parity tolerance at every step.
  const VashishtaSiO2 field;
  Rng rng(310);
  const ParticleSystem initial = make_silica(648, 2.2, 400.0, rng);

  auto run = [&](kernels::KernelMode mode) {
    ParticleSystem sys = initial;
    SerialEngineConfig cfg;
    cfg.dt = 0.5 * units::kFemtosecond;
    cfg.tuple_cache.enabled = true;
    cfg.tuple_cache.skin = 0.15;
    auto strategy = make_strategy("SC", field);
    dynamic_cast<TupleStrategy&>(*strategy).set_kernel_mode(mode);
    SerialEngine engine(sys, field, std::move(strategy), cfg);
    std::vector<double> energies;
    for (int s = 0; s < 25; ++s) {
      engine.step();
      energies.push_back(engine.potential_energy());
    }
    EXPECT_GE(engine.counters().cache_rebuilds, 1u);
    EXPECT_GT(engine.counters().cache_replayed, 0u);
    return energies;
  };

  const std::vector<double> auto_e = run(kernels::KernelMode::kAuto);
  const std::vector<double> scalar_e = run(kernels::KernelMode::kScalar);
  ASSERT_EQ(auto_e.size(), scalar_e.size());
  for (std::size_t s = 0; s < auto_e.size(); ++s) {
    // Per-step divergence stays at kernel-parity scale; it cannot
    // compound into trajectory separation over this window.
    EXPECT_NEAR(auto_e[s], scalar_e[s], 1e-8 * std::abs(scalar_e[s]) + 1e-8)
        << "step " << s;
  }
}

TEST(KernelModeTest, EnvVarForcesScalar) {
  ::setenv("SCMD_KERNELS", "scalar", 1);
  EXPECT_EQ(kernels::mode_from_env(), kernels::KernelMode::kScalar);
  ::setenv("SCMD_KERNELS", "auto", 1);
  EXPECT_EQ(kernels::mode_from_env(), kernels::KernelMode::kAuto);
  ::unsetenv("SCMD_KERNELS");
  EXPECT_EQ(kernels::mode_from_env(), kernels::KernelMode::kAuto);
}

}  // namespace
}  // namespace scmd
