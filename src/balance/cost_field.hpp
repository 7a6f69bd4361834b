#pragma once

/// \file cost_field.hpp
/// Measured work density on a fine lattice — the input of the balancer.
///
/// The load balancer does not model cost: it redistributes the *measured*
/// per-home-cell search work the engines already count (EngineCounters
/// deltas attributed per cell through ForceAccum::cell_cost).  Per-cell
/// enumeration work is decomposition-independent, so per-cell costs sum
/// exactly to rank costs for any candidate decomposition.
///
/// Cut planes live on a fine lattice finer than every cell grid.  To
/// evaluate sub-cell cuts, each home cell's cost is apportioned over the
/// chain-start atoms of the cells its chains start in — h + v0 over the
/// strategy's root offsets (ForceStrategy::root_reach), since the rank
/// owning the start atom does the chain's work — and deposited at each
/// atom's fine-lattice bin; cells without such atoms deposit at the cell
/// center so no cost mass is ever dropped.

#include <cstdint>
#include <utility>
#include <vector>

#include "cell/domain.hpp"
#include "geom/int3.hpp"

namespace scmd {

/// Dense cost density over a fine lattice spanning the (wrapped) box.
class CostField {
 public:
  /// `res` must be componentwise positive.
  CostField(const Box& box, const Int3& res);

  const Int3& res() const { return res_; }
  const Box& box() const { return box_; }

  /// Fine-lattice values in [z][y][x] order.
  const std::vector<double>& values() const { return values_; }
  double total() const;

  /// Linear index of the fine bin containing wrapped position `p`.
  std::int32_t bin_of(const Vec3& p) const;

  void add(std::int32_t index, double value) {
    values_[static_cast<std::size_t>(index)] += value;
  }

  /// Apportion one domain's accumulated per-owned-cell costs (one entry
  /// per owned cell, [z][y][x], as collected by RankEngine/ForceAccum)
  /// evenly over the chain-start atoms of the cells h + v0, v0 in
  /// [-root.hi, root.lo] per axis (`root` = the strategy's root_reach;
  /// zero keeps each cost in its own cell).  The domain's halo must hold
  /// those cells, as it does for the pattern that produced the costs.
  void deposit(const CellDomain& dom,
               const std::vector<std::uint64_t>& cell_cost,
               const HaloSpec& root);

  /// Nonzero entries as (index, value) pairs — the wire format ranks send
  /// to the solver rank.
  std::vector<std::pair<std::int32_t, double>> sparse() const;

  /// Recommended fine resolution for a set of cell grids: per axis, twice
  /// the least common multiple of the grid dimensions, so every cell
  /// boundary is a fine boundary and every cell splits at least in half.
  static Int3 recommend_res(const std::vector<Int3>& grid_dims);

 private:
  Box box_;
  Int3 res_;
  std::vector<double> values_;
};

}  // namespace scmd
