#include "balance/rebalancer.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "balance/cost_field.hpp"
#include "balance/solver.hpp"
#include "net/tags.hpp"
#include "support/error.hpp"

namespace scmd {

namespace {

/// Sparse cost entry on the wire (rank -> solver rank).
struct CostEntry {
  std::int32_t index;
  double value;
};

}  // namespace

Rebalancer::Rebalancer(const BalanceConfig& config) : config_(config) {
  SCMD_REQUIRE(config.mode != BalanceConfig::Mode::kEvery || config.every > 0,
               "every-K balancing needs a positive period");
  SCMD_REQUIRE(config.threshold > 1.0,
               "balance threshold must exceed 1 (perfect balance)");
  SCMD_REQUIRE(config.hysteresis >= 0.0, "hysteresis must be non-negative");
  SCMD_REQUIRE(config.min_interval >= 1, "min interval must be positive");
  trigger_level_ = config.threshold;
}

double Rebalancer::measure_ratio(Comm& comm, RankEngine& engine) const {
  double local = 0.0;
  for (int n = 2; n <= kMaxTupleLen; ++n) {
    if (!engine.grid_active(n)) continue;
    for (const std::uint64_t w : engine.cell_costs(n))
      local += static_cast<double>(w);
  }
  const double sum = comm.allreduce_sum(local);
  const double mx = comm.allreduce_max(local);
  if (sum <= 0.0) return 0.0;
  return mx * static_cast<double>(comm.num_ranks()) / sum;
}

void Rebalancer::on_step(Comm& comm, RankEngine& engine) {
  ++step_;
  info_ = BalanceStepInfo{};
  info_.ratio = measure_ratio(comm, engine);

  bool trigger = false;
  switch (config_.mode) {
    case BalanceConfig::Mode::kOff:
      break;
    case BalanceConfig::Mode::kEvery:
      trigger = step_ % config_.every == 0;
      break;
    case BalanceConfig::Mode::kAuto:
      trigger = step_ - last_rebalance_step_ >= config_.min_interval &&
                info_.ratio > trigger_level_;
      break;
  }
  if (trigger) rebalance(comm, engine);
}

void Rebalancer::rebalance(Comm& comm, RankEngine& engine) {
  const Decomposition& decomp = engine.decomp();
  const ForceStrategy& strategy = engine.strategy();

  // Fine cut lattice and per-grid reach parameters (identical on every
  // rank: derived from shared configuration only).
  std::vector<Int3> dims;
  std::vector<GridReach> reaches;
  for (int n = 2; n <= kMaxTupleLen; ++n) {
    if (!engine.grid_active(n)) continue;
    const Int3 d = engine.grid(n).dims();
    dims.push_back(d);
    const HaloSpec h = strategy.halo(n);
    const HaloSpec ext = strategy.root_reach(n);
    GridReach gr;
    gr.dims = d;
    for (int a = 0; a < 3; ++a) {
      gr.halo_lo[a] = h.lo[a] + ext.lo[a];
      gr.halo_hi[a] = h.hi[a] + ext.hi[a];
    }
    reaches.push_back(gr);
  }
  Int3 res = config_.fine_res;
  if (res.x < 1 || res.y < 1 || res.z < 1)
    res = CostField::recommend_res(dims);

  // Local measured cost, apportioned onto the fine lattice.
  CostField local(decomp.box(), res);
  for (int n = 2; n <= kMaxTupleLen; ++n) {
    if (!engine.grid_active(n)) continue;
    local.deposit(engine.domain(n), engine.cell_costs(n),
                  strategy.root_reach(n));
  }

  // Gather the sparse fields on rank 0, solve, broadcast the plan as
  //   [accepted, px, py, pz, predicted, cuts_x..., cuts_y..., cuts_z...].
  const int P = comm.num_ranks();
  std::vector<double> plan;
  if (comm.rank() != 0) {
    std::vector<CostEntry> entries;
    for (const auto& [idx, val] : local.sparse())
      entries.push_back({idx, val});
    comm.send(0, tags::kBalanceCostGather, pack(entries));
    plan = unpack<double>(comm.recv(0, tags::kBalancePlanBcast));
    SCMD_REQUIRE(plan.size() >= 5, "malformed balance plan broadcast");
  } else {
    std::vector<double> field = local.values();
    for (int r = 1; r < P; ++r) {
      const auto entries = unpack<CostEntry>(comm.recv(r, tags::kBalanceCostGather));
      for (const CostEntry& e : entries) {
        SCMD_REQUIRE(e.index >= 0 &&
                         static_cast<std::size_t>(e.index) < field.size(),
                     "cost-gather entry indexes outside the fine lattice");
        field[static_cast<std::size_t>(e.index)] += e.value;
      }
    }
    const auto limits = width_limits_for(res, reaches);
    const BalanceSolution sol = solve_balanced_cuts(field, res, P, limits);
    // Re-cut only when feasible and predicted to improve on what is
    // currently measured (every-K mode re-cuts whenever feasible).
    const bool accept =
        sol.predicted_ratio > 0.0 &&
        (config_.mode == BalanceConfig::Mode::kEvery ||
         sol.predicted_ratio < info_.ratio);
    plan.push_back(accept ? 1.0 : 0.0);
    for (int a = 0; a < 3; ++a)
      plan.push_back(static_cast<double>(sol.pgrid_dims[a]));
    plan.push_back(sol.predicted_ratio);
    if (accept) {
      for (const auto& axis : sol.cuts)
        for (const int c : axis) plan.push_back(static_cast<double>(c));
    }
    for (int r = 1; r < P; ++r) {
      Bytes payload = pack(plan);
      comm.send(r, tags::kBalancePlanBcast, std::move(payload));
    }
  }

  last_rebalance_step_ = step_;
  engine.reset_cell_costs();
  if (plan[0] == 0.0) return;  // solver declined; keep the current cuts

  const Int3 pd{static_cast<int>(plan[1]), static_cast<int>(plan[2]),
                static_cast<int>(plan[3])};
  const double predicted = plan[4];
  std::array<std::vector<int>, 3> cuts;
  std::size_t at = 5;
  for (int a = 0; a < 3; ++a) {
    cuts[static_cast<std::size_t>(a)].resize(static_cast<std::size_t>(pd[a]) +
                                             1);
    for (int i = 0; i <= pd[a]; ++i)
      cuts[static_cast<std::size_t>(a)][static_cast<std::size_t>(i)] =
          static_cast<int>(plan[at++]);
  }

  const Decomposition next(decomp.box(), ProcessGrid(pd), cuts, res,
                           decomp.align_pgrid());
  engine.apply_decomposition(next);
  const std::uint64_t sent = engine.settle_atoms();
  info_.migrated_atoms = static_cast<std::uint64_t>(
      comm.allreduce_sum(static_cast<double>(sent)));
  info_.rebalanced = true;
  info_.predicted_ratio = predicted;
  trigger_level_ =
      std::max(config_.threshold, predicted * (1.0 + config_.hysteresis));
}

std::function<std::unique_ptr<RankBalancer>(int rank)> make_rebalancer_factory(
    const BalanceConfig& config) {
  return [config](int /*rank*/) {
    return std::make_unique<Rebalancer>(config);
  };
}

}  // namespace scmd
