// Micro-benchmarks (google-benchmark): pattern construction, tuple
// enumeration throughput, force kernels, domain binning.

#include <benchmark/benchmark.h>

#include <optional>

#include "cell/domain.hpp"
#include "engines/serial_engine.hpp"
#include "md/builders.hpp"
#include "pattern/generate.hpp"
#include "potentials/lj.hpp"
#include "potentials/vashishta.hpp"
#include "support/rng.hpp"
#include "tuples/kernels/kernels.hpp"
#include "tuples/ucp.hpp"
#include "tuples/walk.hpp"

namespace {

using namespace scmd;

void BM_GenerateFs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_fs(n));
  }
}
BENCHMARK(BM_GenerateFs)->Arg(2)->Arg(3)->Arg(4);

void BM_MakeSc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_sc(n));
  }
}
BENCHMARK(BM_MakeSc)->Arg(2)->Arg(3)->Arg(4);

void BM_RCollapsePairwise(benchmark::State& state) {
  const Pattern base = oc_shift(generate_fs(3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(r_collapse_pairwise(base));
  }
}
BENCHMARK(BM_RCollapsePairwise);

struct SilicaFixture {
  SilicaFixture() : rng(42), sys(make_silica(3000, 2.2, 300.0, rng)) {}
  Rng rng;
  ParticleSystem sys;
  VashishtaSiO2 field;
};

void BM_SerialDomainBuild(benchmark::State& state) {
  SilicaFixture f;
  const CellGrid grid(f.sys.box(), f.field.rcut(2));
  const HaloSpec halo = halo_for(make_sc(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_serial_domain(grid, halo, f.sys.positions(), f.sys.types()));
  }
  state.SetItemsProcessed(state.iterations() * f.sys.num_atoms());
}
BENCHMARK(BM_SerialDomainBuild);

void BM_TupleEnumeration(benchmark::State& state) {
  // Triplet enumeration throughput on the silica workload: SC vs FS.
  SilicaFixture f;
  const bool use_sc = state.range(0) != 0;
  const Pattern psi = use_sc ? make_sc(3) : generate_fs(3);
  const CellGrid grid(f.sys.box(), f.field.rcut(3));
  const CellDomain dom =
      make_serial_domain(grid, halo_for(psi), f.sys.positions(),
                         f.sys.types());
  const CompiledPattern cp(psi);
  for (auto _ : state) {
    TupleCounters tc = count_tuples(dom, cp, f.field.rcut(3));
    benchmark::DoNotOptimize(tc);
    state.counters["search_steps"] =
        static_cast<double>(tc.search_steps);
  }
}
BENCHMARK(BM_TupleEnumeration)->Arg(1)->Arg(0);

void BM_ForceComputeStrategy(benchmark::State& state) {
  SilicaFixture f;
  const char* names[3] = {"SC", "FS", "Hybrid"};
  const std::string name = names[state.range(0)];
  SerialEngine engine(f.sys, f.field, make_strategy(name, f.field));
  for (auto _ : state) {
    engine.compute_forces();
  }
  state.SetLabel(name);
  state.SetItemsProcessed(state.iterations() * f.sys.num_atoms());
}
BENCHMARK(BM_ForceComputeStrategy)->Arg(0)->Arg(1)->Arg(2);

void BM_LjPairKernel(benchmark::State& state) {
  const LennardJones lj;
  Rng rng(7);
  std::vector<Vec3> rj;
  for (int i = 0; i < 1024; ++i) {
    const Vec3 d{rng.normal(), rng.normal(), rng.normal()};
    rj.push_back(d * (rng.uniform(0.9, 2.4) / d.norm()));
  }
  Vec3 fi, fj;
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lj.eval_pair(0, 0, {0, 0, 0}, rj[k++ & 1023], fi, fj));
  }
}
BENCHMARK(BM_LjPairKernel);

void BM_VashishtaTripletKernel(benchmark::State& state) {
  const VashishtaSiO2 v;
  Rng rng(8);
  std::vector<std::pair<Vec3, Vec3>> ends;
  for (int i = 0; i < 1024; ++i) {
    ends.push_back({{rng.uniform(1.4, 2.3), rng.uniform(-0.4, 0.4), 0.0},
                    {rng.uniform(-0.4, 0.4), rng.uniform(1.4, 2.3), 0.0}});
  }
  Vec3 fi, fj, fk;
  std::size_t k = 0;
  for (auto _ : state) {
    const auto& [ri, rk_] = ends[k++ & 1023];
    benchmark::DoNotOptimize(v.eval_triplet(kOxygen, kSilicon, kOxygen, ri,
                                            {0, 0, 0}, rk_, fi, fj, fk));
  }
}
BENCHMARK(BM_VashishtaTripletKernel);

// --- Batched tuple-kernel benchmarks (docs/KERNELS.md) ---------------
//
// The arity dispatch (kernels::BoundKernels) serves two contexts: the
// cache-build sweep (enumerate at rcut+skin, record, then one kernel
// pass at the exact rcut) and cached replay (the kernel pass alone over
// the recorded stream).  Both are benchmarked per arity with the
// batched kernels and with the scalar fallback (KernelMode::kScalar),
// so a kernel regression shows up as a ratio change between the
// `scalar=0` and `scalar=1` rows.  Tuple counts match the silica
// replay stream, including its exact-rcut mask failures and inert
// bond-bending triplets — the mix the kernels are shaped around.

constexpr double kBenchSkin = 0.5;

/// Recorded silica tuple stream for arity n at rcut(n) + skin, plus
/// everything a kernel eval needs.  The domain owns the slot tables the
/// recorded indices point into.
struct KernelStream {
  KernelStream(const SilicaFixture& f, int n)
      : psi(make_sc(n)),
        grid(f.sys.box(), f.field.rcut(n) + kBenchSkin),
        dom(make_serial_domain(grid, halo_for(psi), f.sys.positions(),
                               f.sys.types())),
        cp(psi),
        rcut2(f.field.rcut(n) * f.field.rcut(n)) {
    for_each_tuple(dom, cp, f.field.rcut(n) + kBenchSkin,
                   [&](std::span<const int> t) {
                     rec.insert(rec.end(), t.begin(), t.end());
                   },
                   nullptr);
    count = static_cast<long long>(rec.size()) / n;
  }

  Pattern psi;
  CellGrid grid;
  CellDomain dom;
  CompiledPattern cp;
  double rcut2;
  std::vector<int> rec;
  long long count = 0;
};

void BM_KernelReplay(benchmark::State& state) {
  // range(0) = arity, range(1) = 1 for the scalar fallback.
  const int n = static_cast<int>(state.range(0));
  const bool scalar = state.range(1) != 0;
  SilicaFixture f;
  const KernelStream s(f, n);
  const kernels::BoundKernels kern(
      f.field,
      scalar ? kernels::KernelMode::kScalar : kernels::KernelMode::kAuto);
  std::vector<Vec3> fd(s.dom.positions().size());
  for (auto _ : state) {
    std::fill(fd.begin(), fd.end(), Vec3{});
    std::uint64_t evals = 0;
    benchmark::DoNotOptimize(kern.eval(n, s.rec.data(), s.count,
                                       s.dom.positions(), s.dom.types(),
                                       s.rcut2, fd.data(), evals));
    benchmark::DoNotOptimize(evals);
  }
  state.SetLabel(std::string(scalar ? "scalar" : "batched") +
                 " n=" + std::to_string(n));
  state.SetItemsProcessed(state.iterations() * s.count);
}
BENCHMARK(BM_KernelReplay)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1});

void BM_KernelBuild(benchmark::State& state) {
  // The build-side shape (TupleStrategy::compute_build): enumerate at
  // rcut + skin — per-path UCP for pairs, neighbour graph plus walk for
  // n >= 3 — record, then one kernel pass at the exact rcut over the
  // recorded stream.
  const int n = static_cast<int>(state.range(0));
  const bool scalar = state.range(1) != 0;
  SilicaFixture f;
  const KernelStream s(f, n);
  const kernels::BoundKernels kern(
      f.field,
      scalar ? kernels::KernelMode::kScalar : kernels::KernelMode::kAuto);
  std::optional<ShapeTable> shapes;
  if (n >= 3) shapes.emplace(s.cp);
  const double rcut = f.field.rcut(n) + kBenchSkin;
  std::vector<Vec3> fd(s.dom.positions().size());
  std::vector<int> rec;
  rec.reserve(s.rec.size());
  auto record = [&rec](std::span<const int> t) {
    rec.insert(rec.end(), t.begin(), t.end());
  };
  for (auto _ : state) {
    rec.clear();
    if (n == 2) {
      for_each_tuple(s.dom, s.cp, rcut, record, nullptr);
    } else {
      NeighbourGraph graph;
      TupleCounters tc;
      graph.build(s.dom, *shapes, rcut, tc);
      const auto [z0, z1] = walk_start_layers(s.dom, *shapes);
      walk_tuples(s.dom, *shapes, graph, z0, z1, record, &tc);
    }
    std::fill(fd.begin(), fd.end(), Vec3{});
    std::uint64_t evals = 0;
    benchmark::DoNotOptimize(
        kern.eval(n, rec.data(), static_cast<long long>(rec.size()) / n,
                  s.dom.positions(), s.dom.types(), s.rcut2, fd.data(),
                  evals));
    benchmark::DoNotOptimize(evals);
  }
  state.SetLabel(std::string(scalar ? "scalar" : "batched") +
                 " n=" + std::to_string(n));
  state.SetItemsProcessed(state.iterations() * s.count);
}
BENCHMARK(BM_KernelBuild)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1});

void BM_NeighbourGraph(benchmark::State& state) {
  // The n = 3 build's first pass alone: the CSR neighbour graph the walk
  // runs on (BM_KernelBuild/3 minus this minus BM_KernelReplay/3 is the
  // walk itself).
  SilicaFixture f;
  const KernelStream s(f, 3);
  const ShapeTable shapes(s.cp);
  for (auto _ : state) {
    NeighbourGraph graph;
    TupleCounters tc;
    graph.build(s.dom, shapes, f.field.rcut(3) + kBenchSkin, tc);
    benchmark::DoNotOptimize(graph.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * s.dom.num_atoms());
}
BENCHMARK(BM_NeighbourGraph);

}  // namespace

BENCHMARK_MAIN();
