// CostField: fine-lattice apportionment of measured per-cell costs.  The
// invariant that makes the balancer exact is mass conservation — every
// unit of measured work lands somewhere on the fine lattice.

#include "balance/cost_field.hpp"

#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "cell/domain.hpp"
#include "cell/grid.hpp"
#include "engines/tuple_strategy.hpp"
#include "geom/box.hpp"
#include "md/builders.hpp"
#include "potentials/vashishta.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace scmd {
namespace {

TEST(CostFieldTest, RecommendResIsTwiceTheLcmOfGridDims) {
  // The silica pair (12^3) and triplet (24^3) grids on one box.
  EXPECT_EQ(CostField::recommend_res({{12, 12, 12}, {24, 24, 24}}),
            (Int3{48, 48, 48}));
  EXPECT_EQ(CostField::recommend_res({{6, 4, 3}}), (Int3{12, 8, 6}));
  EXPECT_EQ(CostField::recommend_res({{6, 4, 3}, {4, 6, 5}}),
            (Int3{24, 24, 30}));
}

TEST(CostFieldTest, BinOfCoversTheBoxAndClamps) {
  const Box box = Box::cubic(10.0);
  CostField field(box, {5, 4, 2});
  EXPECT_EQ(field.bin_of({0.1, 0.1, 0.1}), 0);
  // x bin 4, y bin 3, z bin 1 -> (1*4 + 3)*5 + 4.
  EXPECT_EQ(field.bin_of({9.9, 9.9, 9.9}), (1 * 4 + 3) * 5 + 4);
  // Exactly at the upper face clamps into the last bin instead of
  // running off the lattice.
  EXPECT_EQ(field.bin_of({10.0, 10.0, 10.0}), (1 * 4 + 3) * 5 + 4);

  field.add(field.bin_of({0.1, 0.1, 0.1}), 2.5);
  field.add(field.bin_of({9.9, 0.1, 0.1}), 1.5);
  EXPECT_DOUBLE_EQ(field.total(), 4.0);
  EXPECT_EQ(field.sparse().size(), 2u);
}

TEST(CostFieldTest, DepositConservesMassAndFollowsStartAtoms) {
  const Box box = Box::cubic(12.0);
  const CellGrid grid = CellGrid::with_dims(box, {3, 3, 3});
  // Two atoms in cell (0,0,0), one in cell (2,2,2).
  const std::vector<Vec3> pos{
      {1.0, 1.0, 1.0}, {3.0, 3.0, 3.0}, {9.0, 9.0, 9.0}};
  const std::vector<int> type{0, 0, 0};
  const HaloSpec halo{{1, 1, 1}, {1, 1, 1}};
  const CellDomain dom = make_serial_domain(grid, halo, pos, type);

  std::vector<std::uint64_t> cell_cost(
      static_cast<std::size_t>(grid.dims().volume()), 0);
  auto cell = [&](int x, int y, int z) {
    return static_cast<std::size_t>((z * 3 + y) * 3 + x);
  };
  cell_cost[cell(0, 0, 0)] = 10;  // split between the two start atoms
  cell_cost[cell(2, 2, 2)] = 6;   // all on the single atom
  cell_cost[cell(1, 1, 1)] = 4;   // no atoms: cell-center fallback

  CostField field(box, CostField::recommend_res({grid.dims()}));
  field.deposit(dom, cell_cost, HaloSpec{});
  EXPECT_DOUBLE_EQ(field.total(), 20.0);

  // The two atoms of cell (0,0,0) got 5 each at their own fine bins.
  EXPECT_DOUBLE_EQ(field.values()[static_cast<std::size_t>(
                       field.bin_of({1.0, 1.0, 1.0}))],
                   5.0);
  EXPECT_DOUBLE_EQ(field.values()[static_cast<std::size_t>(
                       field.bin_of({3.0, 3.0, 3.0}))],
                   5.0);
  EXPECT_DOUBLE_EQ(field.values()[static_cast<std::size_t>(
                       field.bin_of({9.0, 9.0, 9.0}))],
                   6.0);
  // Empty-cell mass sits at the cell's center (6, 6, 6).
  EXPECT_DOUBLE_EQ(field.values()[static_cast<std::size_t>(
                       field.bin_of({6.0, 6.0, 6.0}))],
                   4.0);
}

TEST(CostFieldTest, DepositSpreadsOverTheCellsChainsStartIn) {
  // An SC-style root reach of one cell up: a home's chains start in
  // h + {0,1}^3, so its cost goes to the start atoms there — periodic
  // images in the halo included, at their wrapped positions.
  const Box box = Box::cubic(12.0);
  const CellGrid grid = CellGrid::with_dims(box, {3, 3, 3});
  const std::vector<Vec3> pos{
      {1.0, 1.0, 1.0}, {3.0, 3.0, 3.0}, {9.0, 9.0, 9.0}};
  const std::vector<int> type{0, 0, 0};
  const CellDomain dom =
      make_serial_domain(grid, HaloSpec{{0, 0, 0}, {1, 1, 1}}, pos, type);

  std::vector<std::uint64_t> cell_cost(
      static_cast<std::size_t>(grid.dims().volume()), 0);
  auto cell = [&](int x, int y, int z) {
    return static_cast<std::size_t>((z * 3 + y) * 3 + x);
  };
  cell_cost[cell(0, 0, 0)] = 10;  // cells 0..1: the two atoms of cell 0
  cell_cost[cell(1, 1, 1)] = 4;   // cells 1..2: the atom of cell (2,2,2)
  cell_cost[cell(2, 2, 2)] = 6;   // cells 2..3: all three, via images

  CostField field(box, CostField::recommend_res({grid.dims()}));
  field.deposit(dom, cell_cost, HaloSpec{{1, 1, 1}, {0, 0, 0}});
  EXPECT_DOUBLE_EQ(field.total(), 20.0);
  auto at = [&](const Vec3& p) {
    return field.values()[static_cast<std::size_t>(field.bin_of(p))];
  };
  EXPECT_DOUBLE_EQ(at({1.0, 1.0, 1.0}), 5.0 + 2.0);
  EXPECT_DOUBLE_EQ(at({3.0, 3.0, 3.0}), 5.0 + 2.0);
  EXPECT_DOUBLE_EQ(at({9.0, 9.0, 9.0}), 4.0 + 2.0);
}

TEST(CostFieldTest, DepositRejectsMismatchedCostVector) {
  const Box box = Box::cubic(12.0);
  const CellGrid grid = CellGrid::with_dims(box, {3, 3, 3});
  const std::vector<Vec3> pos{{1.0, 1.0, 1.0}};
  const std::vector<int> type{0};
  const CellDomain dom =
      make_serial_domain(grid, HaloSpec{{1, 1, 1}, {1, 1, 1}}, pos, type);
  CostField field(box, {6, 6, 6});
  std::vector<std::uint64_t> wrong_size(5, 1);
  EXPECT_THROW(field.deposit(dom, wrong_size, HaloSpec{}), Error);
}

/// Per-owned-cell costs of one cached build (compute_build) over the
/// pair and triplet domains.
std::array<std::vector<std::uint64_t>, 4> build_cell_costs(
    const TupleStrategy& strategy, const ForceField& field,
    const std::array<CellDomain, 4>& dom, double skin) {
  DomainSet domains;
  ForceAccum accum;
  std::array<std::vector<Vec3>, 4> f;
  std::array<std::vector<std::uint64_t>, 4> cost;
  for (std::size_t n = 2; n <= 3; ++n) {
    domains.dom[n] = &dom[n];
    f[n].resize(static_cast<std::size_t>(dom[n].num_atoms()));
    cost[n].assign(static_cast<std::size_t>(dom[n].owned_dims().volume()), 0);
    accum.f[n] = &f[n];
    accum.cell_cost[n] = &cost[n];
  }
  TupleListCache cache(TupleCacheConfig{true, skin});
  EngineCounters counters;
  strategy.compute_build(field, domains, skin, cache, accum, counters);
  return cost;
}

TEST(CostFieldTest, CachedBuildCostIsDecompositionIndependent) {
  // Per-home-cell build work — pair search steps, and the walk's chain
  // candidates for triplets — depends only on the atoms around the
  // cell, so a 2x2x1 decomposition's rank fields tile the serial field.
  Rng rng(330);
  const ParticleSystem sys = make_silica(1536, 2.2, 400.0, rng);
  const VashishtaSiO2 field;
  const TupleStrategy strategy(field, PatternKind::kShiftCollapse, false);
  const double skin = 0.5;
  std::array<CellGrid, 4> grid;
  std::array<CellDomain, 4> serial;
  for (std::size_t n = 2; n <= 3; ++n) {
    const int ni = static_cast<int>(n);
    grid[n] = CellGrid(sys.box(),
                       strategy.min_cell_size(ni, field.rcut(ni) + skin));
    serial[n] = make_serial_domain(grid[n], strategy.halo(ni),
                                   sys.positions(), sys.types());
  }
  const auto whole = build_cell_costs(strategy, field, serial, skin);

  std::array<std::vector<std::uint64_t>, 4> tiled;
  for (std::size_t n = 2; n <= 3; ++n) tiled[n].assign(whole[n].size(), 0);
  for (int px = 0; px < 2; ++px) {
    for (int py = 0; py < 2; ++py) {
      std::array<CellDomain, 4> brick;
      std::array<Int3, 4> lo;
      for (std::size_t n = 2; n <= 3; ++n) {
        const Int3 g = grid[n].dims();
        lo[n] = {px * g.x / 2, py * g.y / 2, 0};
        const Int3 dims{(px + 1) * g.x / 2 - lo[n].x,
                        (py + 1) * g.y / 2 - lo[n].y, g.z};
        brick[n] = make_brick_domain(bin_globally(grid[n], sys.positions()),
                                     sys.positions(), sys.types(), lo[n],
                                     dims, strategy.halo(static_cast<int>(n)));
      }
      const auto part = build_cell_costs(strategy, field, brick, skin);
      for (std::size_t n = 2; n <= 3; ++n) {
        const Int3 g = grid[n].dims();
        const Int3 dims = brick[n].owned_dims();
        for (int z = 0; z < dims.z; ++z)
          for (int y = 0; y < dims.y; ++y)
            for (int x = 0; x < dims.x; ++x)
              tiled[n][(static_cast<std::size_t>(lo[n].z + z) * g.y +
                        lo[n].y + y) *
                           g.x +
                       lo[n].x + x] +=
                  part[n][(static_cast<std::size_t>(z) * dims.y + y) *
                              dims.x +
                          x];
      }
    }
  }
  for (std::size_t n = 2; n <= 3; ++n) {
    SCOPED_TRACE(n);
    EXPECT_GT(std::accumulate(whole[n].begin(), whole[n].end(),
                              std::uint64_t{0}),
              0u);
    EXPECT_EQ(tiled[n], whole[n]);
  }
}

}  // namespace
}  // namespace scmd
