#include "engines/tuple_strategy.hpp"

#include <algorithm>
#include <thread>

#include "obs/trace.hpp"
#include "pattern/generate.hpp"
#include "support/error.hpp"
#include "tuples/kernels/simd.hpp"

namespace scmd {

namespace {

/// Run fn(part) for every part in [0, parts), one thread per part (inline
/// when there is only one).
template <class Fn>
void run_threads(int parts, Fn&& fn) {
  if (parts <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(parts));
  for (int t = 0; t < parts; ++t) workers.emplace_back([&fn, t] { fn(t); });
  for (std::thread& w : workers) w.join();
}

}  // namespace

TupleStrategy::TupleStrategy(const ForceField& field, PatternKind kind,
                             bool measure_force_set, int reach,
                             bool shared_prefix)
    : kind_(kind),
      measure_force_set_(measure_force_set),
      reach_(reach),
      shared_prefix_(shared_prefix),
      max_n_(field.max_n()),
      kernel_mode_(kernels::mode_from_env()),
      kernels_(field, kernel_mode_) {
  SCMD_REQUIRE(max_n_ >= 2 && max_n_ <= kMaxTupleLen,
               "field max_n out of range");
  SCMD_REQUIRE(reach >= 1 && reach <= 4, "reach out of range");
  for (int n = 2; n <= max_n_; ++n) {
    if (field.rcut(n) <= 0.0) continue;
    active_[static_cast<std::size_t>(n)] = true;
    Pattern psi;
    switch (kind) {
      case PatternKind::kShiftCollapse:
        psi = make_sc(n, reach);
        break;
      case PatternKind::kFullShell:
        psi = generate_fs(n, reach);
        break;
      case PatternKind::kOcOnly:
        psi = oc_shift(generate_fs(n, reach));
        break;
      case PatternKind::kRcOnly:
        psi = r_collapse(generate_fs(n, reach));
        break;
    }
    compiled_[static_cast<std::size_t>(n)] = CompiledPattern(psi);
    halo_[static_cast<std::size_t>(n)] =
        compiled_[static_cast<std::size_t>(n)].required_halo();
    if (n >= 3) {
      shapes_[static_cast<std::size_t>(n)] =
          ShapeTable(compiled_[static_cast<std::size_t>(n)]);
    }
  }
}

std::string TupleStrategy::name() const {
  std::string base;
  switch (kind_) {
    case PatternKind::kShiftCollapse:
      base = "SC";
      break;
    case PatternKind::kFullShell:
      base = "FS";
      break;
    case PatternKind::kOcOnly:
      base = "OC";
      break;
    case PatternKind::kRcOnly:
      base = "RC";
      break;
  }
  if (reach_ > 1) base += "/k=" + std::to_string(reach_);
  if (shared_prefix_) base += "+p";
  return base;
}

double TupleStrategy::min_cell_size(int n, double rcut) const {
  (void)n;
  return rcut / reach_;
}

bool TupleStrategy::needs_grid(int n) const {
  return n >= 2 && n <= max_n_ && active_[static_cast<std::size_t>(n)];
}

HaloSpec TupleStrategy::halo(int n) const {
  SCMD_REQUIRE(needs_grid(n), "no pattern for this n");
  return halo_[static_cast<std::size_t>(n)];
}

HaloSpec TupleStrategy::root_reach(int n) const {
  SCMD_REQUIRE(needs_grid(n), "no pattern for this n");
  HaloSpec r;
  for (const CompiledPath& p : compiled_[static_cast<std::size_t>(n)].paths()) {
    const Int3& v0 = p.v[0];
    for (int a = 0; a < 3; ++a) {
      r.lo[a] = std::max(r.lo[a], v0[a]);
      r.hi[a] = std::max(r.hi[a], -v0[a]);
    }
  }
  return r;
}

const CompiledPattern& TupleStrategy::compiled(int n) const {
  SCMD_REQUIRE(needs_grid(n), "no pattern for this n");
  return compiled_[static_cast<std::size_t>(n)];
}

void TupleStrategy::set_num_threads(int num_threads) {
  SCMD_REQUIRE(num_threads >= 1, "need at least one thread");
  num_threads_ = num_threads;
}

void TupleStrategy::set_kernel_mode(kernels::KernelMode mode) {
  kernel_mode_ = mode;
  kernels_ = kernels::BoundKernels(*kernels_.field(), mode);
}

const kernels::BoundKernels& TupleStrategy::bound_for(
    const ForceField& field, kernels::BoundKernels& storage) const {
  if (kernels_.field() == &field) return kernels_;
  storage = kernels::BoundKernels(field, kernel_mode_);
  return storage;
}

TupleStrategy::ScratchPool::Buf TupleStrategy::ScratchPool::checkout(
    std::size_t size) {
  Buf buf;
  {
    const MutexLock lock(mu_);
    if (!free_.empty()) {
      buf = std::move(free_.back());
      free_.pop_back();
    }
  }
  buf.assign(size, Vec3{});
  return buf;
}

void TupleStrategy::ScratchPool::checkin(Buf&& buf) {
  const MutexLock lock(mu_);
  free_.push_back(std::move(buf));
}

template <class PartFn>
double TupleStrategy::run_parts(const CellDomain& dom, std::vector<Vec3>& f,
                                EngineCounters& counters, int n,
                                PartFn&& part_fn) const {
  const std::size_t ni = static_cast<std::size_t>(n);
  const int z_dim = dom.owned_dims().z;
  const int threads = std::min(num_threads_, z_dim);

  if (threads <= 1) {
    TupleCounters tc;
    std::uint64_t evals = 0;
    const double energy = part_fn(0, 0, z_dim, f.data(), tc, evals);
    counters.tuples[ni] += tc;
    counters.evals[ni] += evals;
    return energy;
  }

  // Home-cell z-slabs partition the tuple stream; each thread works into
  // its own force buffer and counters, reduced in thread order below so
  // results are deterministic for a fixed thread count.
  struct Part {
    ScratchPool::Buf f;
    TupleCounters tc;
    double energy = 0.0;
    std::uint64_t evals = 0;
  };
  std::vector<Part> parts(static_cast<std::size_t>(threads));
  run_threads(threads, [&](int t) {
    Part& part = parts[static_cast<std::size_t>(t)];
    part.f = scratch_.checkout(static_cast<std::size_t>(dom.num_atoms()));
    const int z0 = t * z_dim / threads;
    const int z1 = (t + 1) * z_dim / threads;
    part.energy = part_fn(t, z0, z1, part.f.data(), part.tc, part.evals);
  });

  double energy = 0.0;
  for (Part& part : parts) {
    // A part that evaluated nothing never touched its force buffer.
    if (part.evals != 0) {
      for (std::size_t i = 0; i < f.size(); ++i) f[i] += part.f[i];
    }
    counters.tuples[ni] += part.tc;
    counters.evals[ni] += part.evals;
    energy += part.energy;
    scratch_.checkin(std::move(part.f));
  }
  return energy;
}

double TupleStrategy::compute(const ForceField& field,
                              const DomainSet& domains, ForceAccum& forces,
                              EngineCounters& counters) const {
  kernels::BoundKernels rebound;
  const kernels::BoundKernels& kern = bound_for(field, rebound);
  double energy = 0.0;
  for (int n = 2; n <= max_n_; ++n) {
    if (!needs_grid(n)) continue;
    SCMD_TRACE(obs::search_phase_name(n));
    const std::size_t ni = static_cast<std::size_t>(n);
    const CellDomain* dom = domains.dom[ni];
    std::vector<Vec3>* f = forces.f[ni];
    SCMD_REQUIRE(dom != nullptr && f != nullptr,
                 "missing domain or force array for active n");
    SCMD_REQUIRE(static_cast<int>(f->size()) == dom->num_atoms(),
                 "force array size mismatch");
    const CompiledPattern& cp = compiled_[ni];
    const auto pos = dom->positions();
    const auto type = dom->types();

    if (measure_force_set_)
      counters.force_set[ni] += force_set_size(*dom, cp);

    std::uint64_t* cell_cost = nullptr;
    if (forces.cell_cost[ni] != nullptr) {
      SCMD_REQUIRE(static_cast<long long>(forces.cell_cost[ni]->size()) ==
                       dom->owned_dims().volume(),
                   "cell_cost array size mismatch");
      cell_cost = forces.cell_cost[ni]->data();
    }

    const double rcut = field.rcut(n);
    const double rcut2 = rcut * rcut;
    // Enumerated tuples are buffered into fixed-size blocks and flushed
    // through the kernel dispatch.  The enumeration already filtered at
    // the exact cutoff, so the kernel's mask (the same criterion,
    // bitwise) passes every tuple — the block pass exists to batch the
    // force evaluation, not to re-filter.
    energy += run_parts(
        *dom, *f, counters, n,
        [&](int /*part*/, int z0, int z1, Vec3* fd, TupleCounters& tc,
            std::uint64_t& evals) {
          double e = 0.0;
          std::vector<int> block;
          block.reserve(static_cast<std::size_t>(kernels::kEvalBlock) *
                        static_cast<std::size_t>(n));
          long long cnt = 0;
          enumerate_tuples(
              shared_prefix_, *dom, cp, rcut, z0, z1,
              [&](std::span<const int> t) {
                block.insert(block.end(), t.begin(), t.end());
                if (++cnt == kernels::kEvalBlock) {
                  e += kern.eval(n, block.data(), cnt, pos, type, rcut2, fd,
                                 evals);
                  block.clear();
                  cnt = 0;
                }
              },
              &tc, cell_cost);
          if (cnt > 0) {
            e += kern.eval(n, block.data(), cnt, pos, type, rcut2, fd, evals);
          }
          return e;
        });
  }
  return energy;
}

double TupleStrategy::compute_build(const ForceField& field,
                                    const DomainSet& domains, double skin,
                                    TupleListCache& cache, ForceAccum& forces,
                                    EngineCounters& counters) const {
  SCMD_REQUIRE(skin >= 0.0, "tuple-cache skin must be non-negative");
  kernels::BoundKernels rebound;
  const kernels::BoundKernels& kern = bound_for(field, rebound);
  double energy = 0.0;
  ++counters.cache_rebuilds;
  for (int n = 2; n <= max_n_; ++n) {
    if (!needs_grid(n)) continue;
    SCMD_TRACE(obs::search_phase_name(n));
    const std::size_t ni = static_cast<std::size_t>(n);
    const CellDomain* dom = domains.dom[ni];
    std::vector<Vec3>* f = forces.f[ni];
    SCMD_REQUIRE(dom != nullptr && f != nullptr,
                 "missing domain or force array for active n");
    SCMD_REQUIRE(static_cast<int>(f->size()) == dom->num_atoms(),
                 "force array size mismatch");

    if (measure_force_set_)
      counters.force_set[ni] += force_set_size(*dom, compiled_[ni]);

    std::uint64_t* cell_cost = nullptr;
    if (forces.cell_cost[ni] != nullptr) {
      SCMD_REQUIRE(static_cast<long long>(forces.cell_cost[ni]->size()) ==
                       dom->owned_dims().volume(),
                   "cell_cost array size mismatch");
      cell_cost = forces.cell_cost[ni]->data();
    }

    // Record at rcut + skin, part by part; the parts concatenate to the
    // same list for any thread count.
    TupleList& list = cache.list(n);
    list.reset(*dom, n);
    const std::vector<std::vector<int>> rec =
        n == 2 ? record_pairs(*dom, field.rcut(n) + skin, counters, cell_cost)
               : record_walk(*dom, n, field.rcut(n) + skin, counters,
                             cell_cost);
    for (const std::vector<int>& r : rec) list.append_flat(r);

    // One kernel sweep over the whole list with the exact-rcut mask: the
    // sweep an unthreaded replay runs over the same list, so forces and
    // energy are bitwise independent of the thread count, and a build
    // and an immediate replay at the same positions agree.
    const double rcut = field.rcut(n);
    std::uint64_t evals = 0;
    energy += kern.eval(n, list.tuples().data(), list.num_tuples(),
                        list.positions(), list.types(), rcut * rcut,
                        f->data(), evals);
    counters.evals[ni] += evals;
  }
  return energy;
}

std::vector<std::vector<int>> TupleStrategy::record_pairs(
    const CellDomain& dom, double rcut, EngineCounters& counters,
    std::uint64_t* cell_cost) const {
  // Per-path UCP over home-cell z-slabs: the 14-path SC pair pattern
  // already is the eighth-shell neighbour search.  Home slabs are
  // disjoint, so the parts share cell_cost safely, and each part streams
  // its homes in order.
  const int z_dim = dom.owned_dims().z;
  const int threads = std::min(num_threads_, z_dim);
  std::vector<std::vector<int>> rec(static_cast<std::size_t>(threads));
  std::vector<TupleCounters> tc(static_cast<std::size_t>(threads));
  run_threads(threads, [&](int t) {
    std::vector<int>& r = rec[static_cast<std::size_t>(t)];
    enumerate_tuples(
        shared_prefix_, dom, compiled_[2], rcut, t * z_dim / threads,
        (t + 1) * z_dim / threads,
        [&r](std::span<const int> tuple) {
          r.insert(r.end(), tuple.begin(), tuple.end());
        },
        &tc[static_cast<std::size_t>(t)], cell_cost);
  });
  for (const TupleCounters& c : tc) counters.tuples[2] += c;
  return rec;
}

std::vector<std::vector<int>> TupleStrategy::record_walk(
    const CellDomain& dom, int n, double rcut, EngineCounters& counters,
    std::uint64_t* cell_cost) const {
  // One neighbour graph, shared by the parts; the parts split the chain
  // start layers, so each walks disjoint starts and their streams
  // concatenate to the one-part stream.  Parts can reach the same home
  // cell, so each counts its cost into its own array.
  const std::size_t ni = static_cast<std::size_t>(n);
  const ShapeTable& shapes = shapes_[ni];
  NeighbourGraph graph;
  graph.build(dom, shapes, rcut, counters.tuples[ni]);
  const auto [z0, z1] = walk_start_layers(dom, shapes);
  const int threads = std::min(num_threads_, z1 - z0);
  const std::size_t vol = static_cast<std::size_t>(dom.owned_dims().volume());
  std::vector<std::vector<int>> rec(static_cast<std::size_t>(threads));
  std::vector<TupleCounters> tc(static_cast<std::size_t>(threads));
  std::vector<std::vector<std::uint64_t>> cost(
      cell_cost != nullptr && threads > 1 ? static_cast<std::size_t>(threads)
                                          : 0);
  run_threads(threads, [&](int t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    std::uint64_t* part_cost = cell_cost;
    if (!cost.empty()) {
      cost[ti].assign(vol, 0);
      part_cost = cost[ti].data();
    }
    std::vector<int>& r = rec[ti];
    walk_tuples(
        dom, shapes, graph, z0 + (z1 - z0) * t / threads,
        z0 + (z1 - z0) * (t + 1) / threads,
        [&r](std::span<const int> tuple) {
          r.insert(r.end(), tuple.begin(), tuple.end());
        },
        &tc[ti], part_cost);
  });
  for (const TupleCounters& c : tc) counters.tuples[ni] += c;
  for (const std::vector<std::uint64_t>& c : cost)
    for (std::size_t i = 0; i < vol; ++i) cell_cost[i] += c[i];
  return rec;
}

double TupleStrategy::compute_replay(const ForceField& field,
                                     const TupleListCache& cache,
                                     ForceAccum& forces,
                                     EngineCounters& counters) const {
  kernels::BoundKernels rebound;
  const kernels::BoundKernels& kern = bound_for(field, rebound);
  double energy = 0.0;
  ++counters.cache_reuse_steps;
  for (int n = 2; n <= max_n_; ++n) {
    if (!needs_grid(n)) continue;
    SCMD_TRACE(obs::replay_phase_name(n));
    const std::size_t ni = static_cast<std::size_t>(n);
    const TupleList& list = cache.list(n);
    SCMD_REQUIRE(list.n() == n, "tuple cache has no list for this n");
    std::vector<Vec3>* f = forces.f[ni];
    SCMD_REQUIRE(f != nullptr &&
                     static_cast<int>(f->size()) == list.num_slots(),
                 "replay force array must match the cached slot table");
    energy += replay_term(kern, list, field.rcut(n), *f, counters, n);
  }
  return energy;
}

double TupleStrategy::replay_term(const kernels::BoundKernels& kern,
                                  const TupleList& list, double rcut,
                                  std::vector<Vec3>& f,
                                  EngineCounters& counters, int n) const {
  const std::size_t ni = static_cast<std::size_t>(n);
  const double rcut2 = rcut * rcut;
  const long long count = list.num_tuples();
  counters.cache_replayed += static_cast<std::uint64_t>(count);
  const int* tuples = list.tuples().data();
  const auto pos = list.positions();
  const auto type = list.types();

  // Threaded replay over contiguous tuple blocks (same deterministic
  // part-order reduce as the search path); short lists are not worth the
  // thread spawns.
  const int threads =
      count >= 2048 ? std::min<int>(num_threads_,
                                    static_cast<int>(count / 1024))
                    : 1;
  if (threads <= 1) {
    std::uint64_t evals = 0;
    const double energy =
        kern.eval(n, tuples, count, pos, type, rcut2, f.data(), evals);
    counters.evals[ni] += evals;
    return energy;
  }

  struct Part {
    ScratchPool::Buf f;
    double energy = 0.0;
    std::uint64_t evals = 0;
  };
  std::vector<Part> parts(static_cast<std::size_t>(threads));
  run_threads(threads, [&](int t) {
    Part& part = parts[static_cast<std::size_t>(t)];
    part.f = scratch_.checkout(f.size());
    const long long b = count * t / threads;
    const long long e = count * (t + 1) / threads;
    part.energy = kern.eval(n, tuples + b * n, e - b, pos, type, rcut2,
                            part.f.data(), part.evals);
  });

  double energy = 0.0;
  for (Part& part : parts) {
    if (part.evals != 0) {
      for (std::size_t i = 0; i < f.size(); ++i) f[i] += part.f[i];
    }
    counters.evals[ni] += part.evals;
    energy += part.energy;
    scratch_.checkin(std::move(part.f));
  }
  return energy;
}

}  // namespace scmd
