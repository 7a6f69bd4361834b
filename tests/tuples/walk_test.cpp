// The neighbour-graph walk (tuples/walk.hpp) must deliver exactly the
// directed tuples of the per-path UCP enumeration: same local atom
// indices in the same chain order, same multiplicities, same
// chain_candidates and accepted counts — for every pattern family,
// reach, arity and domain kind, whole or split into start-layer parts.

#include "tuples/walk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "cell/domain.hpp"
#include "cell/grid.hpp"
#include "pattern/generate.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tuples/ucp.hpp"

namespace scmd {
namespace {

enum class Family { kSc, kFs, kOc, kRc };

const char* family_name(Family f) {
  switch (f) {
    case Family::kSc: return "SC";
    case Family::kFs: return "FS";
    case Family::kOc: return "OC";
    case Family::kRc: return "RC";
  }
  return "?";
}

CompiledPattern compiled(Family f, int n, int reach) {
  switch (f) {
    case Family::kSc: return CompiledPattern(make_sc(n, reach));
    case Family::kFs: return CompiledPattern(generate_fs(n, reach));
    case Family::kOc: return CompiledPattern(oc_shift(generate_fs(n, reach)));
    case Family::kRc: return CompiledPattern(r_collapse(generate_fs(n, reach)));
  }
  return {};
}

enum class DomainKind { kSerial, kBrick, kRegion };

const char* domain_name(DomainKind d) {
  switch (d) {
    case DomainKind::kSerial: return "serial";
    case DomainKind::kBrick: return "brick";
    case DomainKind::kRegion: return "region";
  }
  return "?";
}

constexpr double kSide = 6.0;
constexpr double kRcut = 2.0;

// A 6-cell-per-axis grid at reach 2 (cells of rcut/2) and a 3-cell one at
// reach 1: the smallest grids the reach-2/reach-1 n = 4 full-shell halos
// fit, keeping the per-path reference affordable.
CellDomain make_domain(DomainKind kind, const CompiledPattern& cp, int reach,
                       const std::vector<Vec3>& pos,
                       const std::vector<int>& type) {
  const Box box = Box::cubic(kSide);
  const int g = 3 * reach;
  const CellGrid grid = CellGrid::with_dims(box, {g, g, g});
  HaloSpec halo = cp.required_halo();
  const GlobalBins bins = bin_globally(grid, pos);
  switch (kind) {
    case DomainKind::kSerial:
      return make_serial_domain(grid, halo, pos, type);
    case DomainKind::kBrick:
      // One rank of a uniform 2x2x1 decomposition.
      return make_brick_domain(bins, pos, type, {g / 2, 0, 0},
                               {g - g / 2, g / 2, g}, halo);
    case DomainKind::kRegion:
      // A cut plane inside a cell: starts are the region's atoms only.
      return make_brick_domain(bins, pos, type, {0, 0, 0}, {g, g, g}, halo,
                               OwnedRegion{{1.3, 0.0, 0.0}, {4.1, kSide, kSide}});
  }
  return {};
}

struct Stream {
  std::vector<std::vector<int>> tuples;  // delivery order
  TupleCounters tc;
};

Stream per_path(const CellDomain& dom, const CompiledPattern& cp,
               bool trie) {
  Stream s;
  enumerate_tuples(
      trie, dom, cp, kRcut,
      [&](std::span<const int> t) { s.tuples.emplace_back(t.begin(), t.end()); },
      &s.tc);
  return s;
}

Stream walked(const CellDomain& dom, const CompiledPattern& cp, int parts) {
  const ShapeTable shapes(cp);
  NeighbourGraph graph;
  TupleCounters graph_tc;
  graph.build(dom, shapes, kRcut, graph_tc);
  Stream s;
  const auto [z0, z1] = walk_start_layers(dom, shapes);
  for (int p = 0; p < parts; ++p) {
    walk_tuples(
        dom, shapes, graph, z0 + (z1 - z0) * p / parts,
        z0 + (z1 - z0) * (p + 1) / parts,
        [&](std::span<const int> t) {
          s.tuples.emplace_back(t.begin(), t.end());
        },
        &s.tc);
  }
  return s;
}

using Case = std::tuple<Family, int, int>;

class WalkReferenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(WalkReferenceTest, SameDirectedTuplesAsPerPath) {
  const auto [family, reach, n] = GetParam();
  const CompiledPattern cp = compiled(family, n, reach);
  // The reach-2 n = 4 patterns hold 0.9-2M paths; a per-path search of
  // every one from every home cell takes seconds per domain, so the
  // prefix trie stands in there.  It visits the same (home, path) pairs
  // and so streams the same directed tuples, which the smaller cases pin.
  const bool huge = cp.paths().size() > 100000;
  Rng rng(900 + static_cast<std::uint64_t>(n * 10 + reach));
  std::vector<Vec3> pos;
  std::vector<int> type;
  for (int i = 0; i < 40; ++i) {
    pos.push_back({rng.uniform(0, kSide), rng.uniform(0, kSide),
                   rng.uniform(0, kSide)});
    type.push_back(0);
  }
  for (const DomainKind kind :
       {DomainKind::kSerial, DomainKind::kBrick, DomainKind::kRegion}) {
    SCOPED_TRACE(domain_name(kind));
    const CellDomain dom = make_domain(kind, cp, reach, pos, type);

    Stream ref = per_path(dom, cp, huge);
    ASSERT_GT(ref.tuples.size(), 0u);
    std::sort(ref.tuples.begin(), ref.tuples.end());
    if (!huge) {
      Stream trie = per_path(dom, cp, true);
      std::sort(trie.tuples.begin(), trie.tuples.end());
      EXPECT_EQ(trie.tuples, ref.tuples);
    }

    const Stream whole = walked(dom, cp, 1);
    for (const int parts : {1, 3}) {
      Stream w = parts == 1 ? whole : walked(dom, cp, parts);
      // Start-layer parts partition the stream in order.
      EXPECT_EQ(w.tuples, whole.tuples) << parts << " parts";
      EXPECT_EQ(w.tc.chain_candidates, ref.tc.chain_candidates);
      EXPECT_EQ(w.tc.accepted, ref.tc.accepted);
      std::sort(w.tuples.begin(), w.tuples.end());
      EXPECT_EQ(w.tuples, ref.tuples) << parts << " parts";
    }
  }
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto [family, reach, n] = info.param;
  return std::string(family_name(family)) + "_k" + std::to_string(reach) +
         "_n" + std::to_string(n);
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, WalkReferenceTest,
    ::testing::Combine(::testing::Values(Family::kSc, Family::kFs,
                                         Family::kOc, Family::kRc),
                       ::testing::Values(1, 2), ::testing::Values(3, 4)),
    case_name);

TEST(ShapeTableTest, EveryScTripletPathIsItsShapesLeaf) {
  const CompiledPattern cp(make_sc(3));
  const ShapeTable shapes(cp);
  EXPECT_EQ(shapes.n(), 3);
  EXPECT_EQ(shapes.step_reach(), 1);
  EXPECT_EQ(shapes.num_codes(), 27);
  int leaves = 0;
  for (int d1 = 0; d1 < 27; ++d1) {
    for (int d2 = 0; d2 < 27; ++d2) {
      const int node = shapes.row(0)[d1];
      if (node != 0 && shapes.row(node)[d2] != 0) ++leaves;
    }
  }
  EXPECT_EQ(leaves, static_cast<int>(cp.paths().size()));
  for (const CompiledPath& p : cp.paths()) {
    const int node = shapes.row(0)[shapes.code(p.v[1] - p.v[0])];
    ASSERT_NE(node, 0);
    const ShapeEntry& s = shapes.leaf(shapes.row(node)[shapes.code(p.v[2] - p.v[1])]);
    EXPECT_EQ(s.v0, p.v[0]);
    EXPECT_EQ(s.guard, p.guard);
  }
}

TEST(ShapeTableTest, RejectsTwoPathsOfOneShape) {
  // p and p + (1,0,0) generate the same tuples: the pattern double counts.
  Pattern psi(3);
  psi.add(Path{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}});
  psi.add(Path{{1, 0, 0}, {2, 0, 0}, {2, 1, 0}});
  EXPECT_THROW(ShapeTable{CompiledPattern(psi)}, Error);
}

}  // namespace
}  // namespace scmd
