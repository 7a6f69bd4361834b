#include "parallel/rank_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "check/engine_checks.hpp"
#include "engines/check_hooks.hpp"
#include "engines/tuple_strategy.hpp"
#include "obs/trace.hpp"
#include "parallel/check_channel.hpp"
#include "support/error.hpp"

namespace scmd {

RankEngine::RankEngine(Comm& comm, const Decomposition& decomp,
                       const ForceField& field, const ForceStrategy& strategy,
                       const RankEngineConfig& config)
    : comm_(comm),
      decomp_(decomp),
      field_(field),
      strategy_(strategy),
      config_(config),
      migrator_(decomp_),
      cache_(config.tuple_cache) {
  SCMD_REQUIRE(config.dt > 0.0, "time step must be positive");
  if (config.tuple_cache.enabled) {
    SCMD_REQUIRE(config.tuple_cache.skin >= 0.0,
                 "tuple-cache skin must be non-negative");
    tuple_strategy_ = dynamic_cast<const TupleStrategy*>(&strategy);
    SCMD_REQUIRE(tuple_strategy_ != nullptr,
                 "tuple_cache needs a pattern strategy (SC/FS/OC/RC)");
  }
  // The invariant checker's tuple census re-enumerates through the
  // pattern machinery, so it covers pattern strategies only (Hybrid runs
  // without the census; see docs/CHECKING.md).
  census_strategy_ = dynamic_cast<const TupleStrategy*>(&strategy);

  // Cell side inflated by the skin when tuple caching: the inflated
  // enumeration stays covered by the cell walk, and the physical halo
  // slabs (derived from the grids below) grow with it, so ghosts cover
  // rcut + skin and survive skin/2 of drift on either side.
  const double skin = config.tuple_cache.enabled ? config.tuple_cache.skin : 0.0;
  for (int n = 2; n <= field.max_n(); ++n) {
    if (!strategy.needs_grid(n)) continue;
    const std::size_t ni = static_cast<std::size_t>(n);
    grid_active_[ni] = true;
    grids_[ni] =
        decomp_.aligned_grid(strategy.min_cell_size(n, field.rcut(n) + skin));
    grid_halos_.emplace_back(grids_[ni], strategy.halo(n));
  }
  rebuild_halo_exchange();
}

void RankEngine::rebuild_halo_exchange() {
  if (decomp_.uniform()) {
    // Uniform bricks coincide with regions: one slab spec, the widest
    // per-axis halo over all grids, and octant (3-stage) routing when no
    // grid needs a lower halo.
    SlabSpec slab;
    bool both = false;
    for (const auto& [grid, h] : grid_halos_) {
      const Vec3 cl = grid.cell_lengths();
      for (int a = 0; a < 3; ++a) {
        slab.t_lo[a] = std::max(slab.t_lo[a], h.lo[a] * cl[a]);
        slab.t_hi[a] = std::max(slab.t_hi[a], h.hi[a] * cl[a]);
        if (h.lo[a] > 0) both = true;
      }
    }
    halo_exchange_ =
        std::make_unique<HaloExchange>(decomp_, slab, both);
  } else {
    // Non-uniform cuts: per-rank slab reach derived from each rank's
    // halo-extended brick (cut planes straddling cells included).  The
    // home range is additionally extended by the pattern root reach (see
    // build_domains), so fold that into the effective halo the exchange
    // must cover.  Stage directions are decided inside HaloExchange from
    // the global per-rank reach, so `both` just forces full-shell
    // routing when some grid inherently needs a lower halo.
    std::vector<std::pair<CellGrid, HaloSpec>> effective = grid_halos_;
    {
      std::size_t gi = 0;
      for (int n = 2; n <= field_.max_n(); ++n) {
        const std::size_t ni = static_cast<std::size_t>(n);
        if (!grid_active_[ni]) continue;
        const HaloSpec ext = strategy_.root_reach(n);
        HaloSpec& h = effective[gi++].second;
        for (int a = 0; a < 3; ++a) {
          h.lo[a] += ext.lo[a];
          h.hi[a] += ext.hi[a];
        }
      }
    }
    bool both = false;
    for (const auto& [grid, h] : effective) {
      if (h.lo.x > 0 || h.lo.y > 0 || h.lo.z > 0) both = true;
    }
    halo_exchange_ =
        std::make_unique<HaloExchange>(decomp_, effective, both);
  }
}

void RankEngine::apply_decomposition(const Decomposition& decomp) {
  SCMD_REQUIRE(decomp.pgrid().num_ranks() == decomp_.pgrid().num_ranks(),
               "rebalance cannot change the rank count");
  SCMD_REQUIRE(decomp.align_pgrid() == decomp_.align_pgrid(),
               "rebalance must keep the alignment process grid (cell "
               "grids are fixed for the run)");
  decomp_ = decomp;  // migrator_ observes the member, so it follows
  cache_.invalidate();  // slot refs are tied to the old cuts
  rebuild_halo_exchange();
}

std::uint64_t RankEngine::settle_atoms() {
  state_.clear_ghosts();
  cache_.invalidate();
  const std::uint64_t sent = migrator_.settle(comm_, state_);
  force_.assign(static_cast<std::size_t>(state_.num_owned()), Vec3{});
  return sent;
}

void RankEngine::reset_cell_costs() {
  for (auto& cc : cell_costs_) {
    cc.assign(cc.size(), 0);
  }
}

void RankEngine::set_atoms(RankState state) {
  state_ = std::move(state);
  cache_.invalidate();
  force_.assign(static_cast<std::size_t>(state_.num_owned()), Vec3{});
}

void RankEngine::build_domains() {
  for (int n = 2; n <= field_.max_n(); ++n) {
    const std::size_t ni = static_cast<std::size_t>(n);
    if (!grid_active_[ni]) continue;
    const CellGrid& grid = grids_[ni];
    BrickRange br = decomp_.brick_range(grid, comm_.rank());
    const HaloSpec halo = strategy_.halo(n);
    const bool nonuniform = !decomp_.uniform();
    if (nonuniform) {
      // Extend the home-cell iteration range by the pattern root reach:
      // chains are filtered to owned level-0 atoms, and the rank owning
      // an atom in cell c must anchor every home cell h = c - v0 that can
      // start a chain through it (see ForceStrategy::root_reach).
      const HaloSpec ext = strategy_.root_reach(n);
      for (int a = 0; a < 3; ++a) {
        br.lo[a] -= ext.lo[a];
        br.dims[a] += ext.lo[a] + ext.hi[a];
      }
    }
    const Int3 brick_lo = br.lo;
    const Int3 brick_dims = br.dims;
    CellDomain dom(grid, brick_lo, brick_dims, halo);

    const Vec3 cl = grid.cell_lengths();
    std::vector<DomainAtom> records;
    records.reserve(static_cast<std::size_t>(state_.num_total()));
    const int owned = state_.num_owned();
    for (int i = 0; i < state_.num_total(); ++i) {
      const Vec3& p = state_.combined_pos(i);
      // Unwrapped global cell coordinate from the rank-frame position.
      Int3 gcell{static_cast<int>(std::floor(p.x / cl.x)),
                 static_cast<int>(std::floor(p.y / cl.y)),
                 static_cast<int>(std::floor(p.z / cl.z))};
      if (i < owned) {
        // Owned atoms are guaranteed inside the brick; clamp away
        // floating-point edge effects so ownership stays consistent.
        for (int a = 0; a < 3; ++a) {
          if (gcell[a] < brick_lo[a]) gcell[a] = brick_lo[a];
          const int top = brick_lo[a] + brick_dims[a] - 1;
          if (gcell[a] > top) gcell[a] = top;
        }
      }
      const Int3 local = dom.local_coord(gcell);
      if (!dom.in_local(local)) continue;  // imported for a wider grid
      DomainAtom rec;
      rec.pos = p;
      rec.type = state_.combined_type(i);
      rec.gid = state_.combined_gid(i);
      rec.local_ref = i;
      // Uniform bricks partition home cells across ranks, so every atom
      // may start a chain (legacy behavior).  Non-uniform cuts make
      // bricks overlap at straddled cells; there the owned atoms — this
      // rank's region population — form the global chain-start partition
      // and ghosts never start chains.
      rec.start = nonuniform ? (i < owned) : true;
      rec.local_cell = local;
      records.push_back(rec);
    }
    dom.build(records);
    domains_[ni] = std::move(dom);
    domain_forces_[ni].assign(
        static_cast<std::size_t>(domains_[ni].num_atoms()), Vec3{});
    if (config_.collect_cell_costs) {
      const std::size_t vol =
          static_cast<std::size_t>(domains_[ni].owned_dims().volume());
      if (cell_costs_[ni].size() != vol) cell_costs_[ni].assign(vol, 0);
    }
  }
}

void RankEngine::fold_forces(const ForceAccum& accum) {
  for (int n = 2; n <= field_.max_n(); ++n) {
    const std::size_t ni = static_cast<std::size_t>(n);
    if (accum.f[ni] == nullptr) continue;
    const auto refs = domains_[ni].local_refs();
    const std::vector<Vec3>& f = *accum.f[ni];
    for (std::size_t a = 0; a < f.size(); ++a)
      force_[static_cast<std::size_t>(refs[a])] += f[a];
  }
}

void RankEngine::compute_forces() {
  SCMD_TRACE("force");
  // The collective reuse decision lives in step(); a valid cache here
  // means every rank agreed to replay (or positions are unchanged since
  // the build, for direct calls).
  if (tuple_strategy_ != nullptr && cache_.valid()) {
    compute_forces_replay();
    return;
  }
  compute_forces_full();
}

void RankEngine::compute_forces_full() {
  SCMD_CHECK_SCOPE("force.full");
  state_.clear_ghosts();
  std::vector<ImportStageRecord> stages;
  {
    SCMD_TRACE("exchange.import");
    stages = halo_exchange_->import(comm_, state_, counters_);
  }
  verify_ghosts();

  {
    SCMD_TRACE("binning");
    build_domains();
  }

  DomainSet domains;
  ForceAccum accum;
  for (int n = 2; n <= field_.max_n(); ++n) {
    const std::size_t ni = static_cast<std::size_t>(n);
    if (!grid_active_[ni]) continue;
    domains.dom[ni] = &domains_[ni];
    accum.f[ni] = &domain_forces_[ni];
    if (config_.collect_cell_costs) accum.cell_cost[ni] = &cell_costs_[ni];
  }

  force_.assign(static_cast<std::size_t>(state_.num_total()), Vec3{});
  if (tuple_strategy_ != nullptr) {
    potential_energy_ = tuple_strategy_->compute_build(
        field_, domains, cache_.skin(), cache_, accum, counters_);
  } else {
    potential_energy_ = strategy_.compute(field_, domains, accum, counters_);
  }
  {
    SCMD_TRACE("fold");
    fold_forces(accum);
  }

  {
    SCMD_TRACE("exchange.write_back");
    halo_exchange_->write_back(comm_, stages, state_, force_, counters_);
  }

  if (tuple_strategy_ != nullptr) {
    cache_.mark_built({state_.pos.data(), state_.pos.size()});
    cached_stages_ = std::move(stages);
  }

#if defined(SCMD_CHECK_ENABLED)
  if (check::enabled()) {
    CommCheckChannel ch(comm_);
    {
      SCMD_CHECK_SCOPE("force_balance");
      check::check_force_balance(&ch, owned_forces());
    }
    if (check::options().tuple_ownership && census_strategy_ != nullptr &&
        static_cast<int>(++check_builds_ %
                         static_cast<std::uint64_t>(std::max(
                             1, check::options().ownership_every))) == 0) {
      SCMD_CHECK_SCOPE("tuple_census");
      for (int n = 2; n <= field_.max_n(); ++n) {
        const std::size_t ni = static_cast<std::size_t>(n);
        if (!grid_active_[ni]) continue;
        const std::vector<std::int64_t> flat = census_tuples(
            *census_strategy_, domains_[ni], n, field_.rcut(n));
        check::check_tuple_ownership(&ch, n, flat, -1);
      }
    }
  }
#endif
}

/// Ghost/home consistency plus global atom conservation, collective over
/// the cluster; runs after every ghost import/refresh when checking is
/// enabled.  The conserved atom count is captured by a reduction the
/// first time the check runs.
void RankEngine::verify_ghosts() {
#if defined(SCMD_CHECK_ENABLED)
  if (!check::enabled() || !check::options().ghost_consistency) return;
  SCMD_CHECK_SCOPE("ghost_consistency");
  CommCheckChannel ch(comm_);
  if (check_atom_total_ < 0) {
    check_atom_total_ = std::llround(
        comm_.allreduce_sum(static_cast<double>(state_.num_owned())));
  }
  check::check_ghost_consistency(&ch, decomp_.box(), state_.gid, state_.pos,
                                 state_.ghost_gid, state_.ghost_pos,
                                 check_atom_total_);
#endif
}

void RankEngine::compute_forces_replay() {
  SCMD_CHECK_SCOPE("force.replay");
  {
    SCMD_TRACE("exchange.refresh");
    halo_exchange_->refresh(comm_, cached_stages_, state_, counters_);
  }
  verify_ghosts();

  ForceAccum accum;
  {
    // Refresh the frozen slot tables in place of re-binning: each slot
    // takes its source atom's current position (owned or just-refreshed
    // ghost), snapped to the periodic image nearest its previous value
    // so the build-time frame survives box wrap-around.
    SCMD_TRACE("refresh");
    for (int n = 2; n <= field_.max_n(); ++n) {
      const std::size_t ni = static_cast<std::size_t>(n);
      if (!grid_active_[ni]) continue;
      TupleList& list = cache_.list(n);
      list.refresh_positions(decomp_.box(), [&](int ref) -> const Vec3& {
        return state_.combined_pos(ref);
      });
      replay_f_[ni].assign(static_cast<std::size_t>(list.num_slots()),
                           Vec3{});
      accum.f[ni] = &replay_f_[ni];
    }
  }

  force_.assign(static_cast<std::size_t>(state_.num_total()), Vec3{});
  potential_energy_ =
      tuple_strategy_->compute_replay(field_, cache_, accum, counters_);

  {
    SCMD_TRACE("fold");
    for (int n = 2; n <= field_.max_n(); ++n) {
      const std::size_t ni = static_cast<std::size_t>(n);
      if (accum.f[ni] == nullptr) continue;
      const auto refs = cache_.list(n).refs();
      const std::vector<Vec3>& f = replay_f_[ni];
      for (std::size_t a = 0; a < f.size(); ++a)
        force_[static_cast<std::size_t>(refs[a])] += f[a];
    }
  }

#if defined(SCMD_CHECK_ENABLED)
  if (check::enabled() && check::options().replay_parity &&
      static_cast<int>(++check_replays_ %
                       static_cast<std::uint64_t>(std::max(
                           1, check::options().replay_parity_every))) == 0) {
    SCMD_CHECK_SCOPE("replay_parity");
    // No per-rank rebuild can produce the fresh reference on a reuse
    // step: migration is skipped, so owned atoms may have drifted across
    // brick boundaries, and under the upper-only octant import a
    // downward drift re-bins the atom into a peer's home cells (double
    // count) while an upward drift lands in cells whose anchoring rank
    // never imported it (lost tuples).  The full pipeline is only exact
    // because migration precedes binning.  Instead, gather the owned
    // atoms at rank 0 and recompute there over the serial-MD domain
    // ("halo exchange with oneself"), which is drift-agnostic.
    //
    // The recorded lists partition tuples by build-time binning, so the
    // per-rank replay arrays are not comparable either; route them
    // through the force write-back first (every ghost contribution
    // reaches its owner) and gather the owned forces.  The extra
    // write-back runs on every rank in the same order (the parity
    // cadence is collective), so the traffic stays matched.
    EngineCounters scratch_counters;
    std::vector<Vec3> replayed(force_);
    halo_exchange_->write_back(comm_, cached_stages_, state_, replayed,
                               scratch_counters);

    struct ParityAtom {
      std::int64_t gid;
      std::int64_t type;
      double px, py, pz;
      double fx, fy, fz;
    };
    static_assert(std::is_trivially_copyable_v<ParityAtom>);
    const std::size_t owned = static_cast<std::size_t>(state_.num_owned());
    std::vector<ParityAtom> atoms(owned);
    for (std::size_t i = 0; i < owned; ++i) {
      atoms[i] = ParityAtom{state_.gid[i],
                            static_cast<std::int64_t>(state_.type[i]),
                            state_.pos[i].x,
                            state_.pos[i].y,
                            state_.pos[i].z,
                            replayed[i].x,
                            replayed[i].y,
                            replayed[i].z};
    }

    CommCheckChannel ch(comm_);
    std::vector<Vec3> replay_all;
    std::vector<Vec3> fresh_all;
    double fresh_e = 0.0;
    if (ch.rank() != 0) {
      check::CheckBytes bytes(atoms.size() * sizeof(ParityAtom));
      if (!bytes.empty())
        std::memcpy(bytes.data(), atoms.data(), bytes.size());
      ch.send(0, std::move(bytes));
    } else {
      for (int r = 1; r < ch.num_ranks(); ++r) {
        const check::CheckBytes bytes = ch.recv(r);
        const std::size_t count = bytes.size() / sizeof(ParityAtom);
        const std::size_t base = atoms.size();
        atoms.resize(base + count);
        if (count != 0)
          std::memcpy(atoms.data() + base, bytes.data(),
                      count * sizeof(ParityAtom));
      }
      // Deterministic order (and a dense index space for the serial
      // domain, whose gids are indices into the position array).
      std::sort(atoms.begin(), atoms.end(),
                [](const ParityAtom& a, const ParityAtom& b) {
                  return a.gid < b.gid;
                });
      const std::size_t total = atoms.size();
      std::vector<Vec3> pos(total);
      std::vector<int> types(total);
      replay_all.resize(total);
      for (std::size_t i = 0; i < total; ++i) {
        pos[i] = Vec3(atoms[i].px, atoms[i].py, atoms[i].pz);
        types[i] = static_cast<int>(atoms[i].type);
        replay_all[i] = Vec3(atoms[i].fx, atoms[i].fy, atoms[i].fz);
      }
      DomainSet domains;
      ForceAccum accum;
      std::array<CellDomain, kMaxTupleLen + 1> dom_storage;
      std::array<std::vector<Vec3>, kMaxTupleLen + 1> f_storage;
      for (int n = 2; n <= field_.max_n(); ++n) {
        const std::size_t ni = static_cast<std::size_t>(n);
        if (!grid_active_[ni]) continue;
        dom_storage[ni] =
            make_serial_domain(grids_[ni], strategy_.halo(n), pos, types);
        f_storage[ni].assign(
            static_cast<std::size_t>(dom_storage[ni].num_atoms()), Vec3{});
        domains.dom[ni] = &dom_storage[ni];
        accum.f[ni] = &f_storage[ni];
      }
      fresh_e = strategy_.compute(field_, domains, accum, scratch_counters);
      fresh_all.assign(total, Vec3{});
      for (int n = 2; n <= field_.max_n(); ++n) {
        const std::size_t ni = static_cast<std::size_t>(n);
        if (accum.f[ni] == nullptr) continue;
        const auto gids = dom_storage[ni].gids();
        const std::vector<Vec3>& f = f_storage[ni];
        for (std::size_t a = 0; a < f.size(); ++a)
          fresh_all[static_cast<std::size_t>(gids[a])] += f[a];
      }
    }
    // Rank 0 carries the arrays and the reference energy; the others
    // contribute their replay-energy partials (summed inside the check)
    // and learn the verdict collectively.
    check::check_replay_parity(&ch, replay_all, fresh_all,
                               potential_energy_, fresh_e);
  }
#endif

  {
    SCMD_TRACE("exchange.write_back");
    halo_exchange_->write_back(comm_, cached_stages_, state_, force_,
                               counters_);
  }

#if defined(SCMD_CHECK_ENABLED)
  if (check::enabled()) {
    SCMD_CHECK_SCOPE("force_balance");
    CommCheckChannel ch(comm_);
    check::check_force_balance(&ch, owned_forces());
  }
#endif
}

void RankEngine::step() {
  SCMD_TRACE("step");
  SCMD_CHECK_SCOPE("step");
  // Half-kick + drift on owned atoms.
  const double dt = config_.dt;
  const Box& box = decomp_.box();
  {
    SCMD_TRACE("integrate.kick_drift");
    for (int i = 0; i < state_.num_owned(); ++i) {
      const std::size_t ii = static_cast<std::size_t>(i);
      const double inv_m = 1.0 / field_.mass(state_.type[ii]);
      state_.vel[ii] += force_[ii] * (0.5 * dt * inv_m);
      state_.pos[ii] = box.wrap(state_.pos[ii] + state_.vel[ii] * dt);
    }
  }

  // One collective decides two things for every rank.
  //
  // Divergence gate: a diverged system (non-finite position or velocity
  // after the drift) would wedge the exchange below — the NaN atom never
  // classifies as leaving, the one-hop invariant throws on *this* rank
  // only, and the peers block forever in their matching recvs.  A rank
  // that sees one contributes +inf, so every rank throws at the same step
  // boundary and the caller (scmd_run or a serve worker) sees a clean
  // failure instead of a hung cluster.
  //
  // Tuple-list retention: otherwise the max is the global largest
  // displacement since the build, and every rank replays while it stays
  // within skin/2.  Decided before migration because reuse steps freeze
  // ownership and ghost routes — migration and the balancer run only on
  // rebuild steps (drift ≤ skin/2 is covered by the inflated halos, so
  // the one-hop migration assumption still holds at the next rebuild).
  bool diverged = false;
  for (int i = 0; i < state_.num_owned() && !diverged; ++i) {
    const std::size_t ii = static_cast<std::size_t>(i);
    const Vec3& p = state_.pos[ii];
    const Vec3& v = state_.vel[ii];
    diverged = !std::isfinite(p.x + p.y + p.z) ||
               !std::isfinite(v.x + v.y + v.z);
  }
  const bool cached = tuple_strategy_ != nullptr && cache_.valid();
  double local = 0.0;
  if (diverged) {
    local = std::numeric_limits<double>::infinity();
  } else if (cached) {
    local = cache_.max_displacement2(decomp_.box(),
                                     {state_.pos.data(), state_.pos.size()});
  }
  const double global = comm_.allreduce_max(local);
  if (std::isinf(global)) {
    throw Error(
        "system diverged: non-finite position or velocity after "
        "integration (reduce the time step or the initial temperature)");
  }
  const bool reuse = cached && !cache_.exceeds_skin(global);
  if (cached && !reuse) cache_.invalidate();

  if (reuse) {
    if (balancer_ != nullptr) balancer_->on_cached_step();
  } else {
    state_.clear_ghosts();
    {
      SCMD_TRACE("exchange.migrate");
      migrator_.migrate(comm_, state_);
    }

    if (balancer_ != nullptr) {
      SCMD_TRACE("balance");
      balancer_->on_step(comm_, *this);
    }
  }

  compute_forces();

  SCMD_TRACE("integrate.kick");
  for (int i = 0; i < state_.num_owned(); ++i) {
    const std::size_t ii = static_cast<std::size_t>(i);
    state_.vel[ii] +=
        force_[ii] * (0.5 * dt / field_.mass(state_.type[ii]));
  }
}

}  // namespace scmd
