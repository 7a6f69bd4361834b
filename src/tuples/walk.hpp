#pragma once

/// \file walk.hpp
/// Neighbour-graph walk enumeration: the tuple-cache build's n >= 3 path.
///
/// UCP (ucp.hpp) searches every path of the pattern from every home cell:
/// for SC(3) that is 378 chain searches per cell, almost all of which die
/// at the cutoff test (about 1% of n = 3 search steps are accepted).  The
/// walk reaches the same tuples from the other side.  Once per build it
/// links every atom to the atoms within rcut in the (2R+1)^3 cells around
/// its own (R = the pattern's largest per-axis cell step), then walks from
/// each chain-start atom along those edges to chains of length n with
/// distinct gids.  A chain's consecutive cell deltas are its shape — the
/// differential representation σ(p) of path.hpp — and a ShapeTable built
/// from the compiled pattern names the path of that shape as (v0,
/// guard).  The chain is recorded when that path's home cell h = c0 - v0
/// (c0: the start atom's cell) is owned and its orientation guard
/// passes.  (Paths of one shape generate the same tuples — Theorem 1's
/// shift invariance — so a pattern that generates each tuple once has at
/// most one path per shape; the table requires it.)
///
/// That is exactly UCP's rule: path p at home h finds chain (a0..a_{n-1})
/// iff a0 is a start atom of cell h + v0, each a_k lies in cell h + v_k,
/// consecutive atoms are closer than rcut (the same floating-point test),
/// gids are distinct, and the guard passes.  So both deliver the same
/// directed tuples (local atom indices in chain order), and the same
/// chain_candidates and accepted counts; only the order and the search
/// work differ.  tests/tuples/walk_test.cpp pins the equality.

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cell/domain.hpp"
#include "tuples/ucp.hpp"

namespace scmd {

/// The path of a given shape: where it starts relative to its home cell.
struct ShapeEntry {
  Int3 v0;             ///< start-cell offset: home = c0 - v0
  bool guard = false;  ///< the path's orientation guard
};

/// Delta-keyed table of a compiled pattern: a trie over the n-1 cell
/// deltas of each path, with dense child rows, whose leaves name the
/// path of that shape.  The walk descends it one edge at a time, so an
/// edge whose delta no path continues with is dropped at once.
class ShapeTable {
 public:
  ShapeTable() = default;
  explicit ShapeTable(const CompiledPattern& cp);

  int n() const { return n_; }

  /// Largest per-axis cell step between consecutive cells of a path.
  int step_reach() const { return reach_; }

  /// Dense code of a cell delta with every component in
  /// [-step_reach(), step_reach()].
  int code(const Int3& d) const {
    return ((d.z + reach_) * width_ + (d.y + reach_)) * width_ +
           (d.x + reach_);
  }
  int num_codes() const { return width_ * width_ * width_; }

  /// Child row of trie node `node` (the root is node 0), indexed by
  /// delta code: the next node, or 0 when no path continues so.  Rows of
  /// nodes at depth n-2 hold leaf ids instead, 0 again for none.
  const int* row(int node) const {
    return next_.data() + static_cast<std::size_t>(node) *
                              static_cast<std::size_t>(num_codes());
  }

  /// Bounding box of the start offsets v0 of the paths below internal
  /// node `node`: the walk prunes a branch when no such path can have an
  /// owned home.
  const Int3& node_v0_lo(int node) const {
    return node_v0_lo_[static_cast<std::size_t>(node)];
  }
  const Int3& node_v0_hi(int node) const {
    return node_v0_hi_[static_cast<std::size_t>(node)];
  }

  /// The path of leaf `leaf`'s shape.  Leaf 0, "no such shape", holds a
  /// start offset no home cell is owned from, so the walk can look every
  /// edge up without a branch.
  const ShapeEntry& leaf(int leaf) const {
    return leaves_[static_cast<std::size_t>(leaf)];
  }

  /// Bounding box of the start offsets v0 over all paths.
  const Int3& v0_lo() const { return v0_lo_; }
  const Int3& v0_hi() const { return v0_hi_; }

  /// Bounding box of the offsets v_0..v_{n-2}: the cells whose atoms
  /// need outgoing edges.
  const Int3& source_lo() const { return source_lo_; }
  const Int3& source_hi() const { return source_hi_; }

 private:
  int n_ = 0;
  int reach_ = 1;
  int width_ = 3;
  std::vector<int> next_;        ///< num_codes() ints per internal node
  std::vector<Int3> node_v0_lo_, node_v0_hi_;  ///< per internal node
  std::vector<ShapeEntry> leaves_;
  Int3 v0_lo_, v0_hi_, source_lo_, source_hi_;
};

/// One directed edge of the neighbour graph.
struct NeighbourEdge {
  int atom;  ///< neighbour's local (binned) atom index
  int code;  ///< ShapeTable code of cell(atom) - cell(source)
};

/// CSR neighbour graph over a cell domain: for every atom of the cells
/// a walk can extend from, the atoms of the (2R+1)^3 surrounding cells
/// closer than rcut, same-gid images excluded.  Edges are ordered by
/// neighbour cell, then atom index.
class NeighbourGraph {
 public:
  /// Build over `dom` for `shapes`' pattern at cutoff `rcut`.  Adds one
  /// search step per distance test and one cell visit per neighbour-cell
  /// scan to `tc`.
  void build(const CellDomain& dom, const ShapeTable& shapes, double rcut,
             TupleCounters& tc);

  std::span<const NeighbourEdge> edges(int atom) const {
    const auto b = static_cast<std::size_t>(begin_[static_cast<std::size_t>(atom)]);
    const auto e = static_cast<std::size_t>(begin_[static_cast<std::size_t>(atom) + 1]);
    return {edges_.data() + b, e - b};
  }
  long long num_edges() const { return static_cast<long long>(edges_.size()); }

 private:
  std::vector<int> begin_;  ///< num_atoms + 1
  std::vector<NeighbourEdge> edges_;
};

/// Local z-layers [first, second) of the cells a chain can start in: the
/// owned brick widened by the pattern's start offsets, clipped to the
/// lattice.  walk_tuples splits this range into parts.
std::pair<int, int> walk_start_layers(const CellDomain& dom,
                                      const ShapeTable& shapes);

namespace detail {

/// Loop-invariant state of one walk.
struct WalkCtx {
  const NeighbourGraph* graph;
  const ShapeTable* shapes;
  const std::int64_t* gid;
  Int3 c0;    ///< local coordinate of the start atom's cell
  Int3 base;  ///< owned brick [base, base + od) in local coordinates
  Int3 od;
  /// Start offsets giving c0 an owned home: [c0 - base - od + 1, c0 - base].
  Int3 v0_lo;
  Int3 v0_hi;
  std::uint64_t* cell_cost;
};

/// Extend chain[0..Level-1] by one edge of chain[Level-1], descending
/// the shape trie from `node`.  The level and tuple length are fixed at
/// compile time, as in extend_chain_fixed.  With Clip (a start cell near
/// the brick's edge, where only some start offsets give an owned home),
/// branches whose paths all have unowned homes are skipped.
template <int Level, int N, bool Clip, class Visitor>
inline void walk_level(const WalkCtx& ctx, int node,
                       std::array<int, kMaxTupleLen>& chain,
                       std::array<std::int64_t, kMaxTupleLen>& cg,
                       Visitor& visit, TupleCounters& tc) {
  static_assert(Level >= 1 && Level < N && N <= kMaxTupleLen);
  constexpr bool kIsLast = (Level == N - 1);
  const std::span<const NeighbourEdge> edges =
      ctx.graph->edges(chain[static_cast<std::size_t>(Level - 1)]);
  const int* row = ctx.shapes->row(node);
  // Every edge examined is one search step.
  tc.search_steps += edges.size();
  if constexpr (!kIsLast) {
    for (const NeighbourEdge& e : edges) {
      const int child = row[e.code];
      if (child == 0) continue;
      if constexpr (Clip) {
        const Int3 lo = Int3::max(ctx.v0_lo, ctx.shapes->node_v0_lo(child));
        const Int3 hi = Int3::min(ctx.v0_hi, ctx.shapes->node_v0_hi(child));
        if (lo.x > hi.x || lo.y > hi.y || lo.z > hi.z) continue;
      }
      // The graph has no same-gid edges, so only members before the
      // previous one can repeat.
      const std::int64_t ga = ctx.gid[static_cast<std::size_t>(e.atom)];
      bool dup = false;
      for (int k = 0; k + 1 < Level; ++k) {
        dup |= cg[static_cast<std::size_t>(k)] == ga;
      }
      if (dup) continue;
      chain[static_cast<std::size_t>(Level)] = e.atom;
      cg[static_cast<std::size_t>(Level)] = ga;
      walk_level<Level + 1, N, Clip>(ctx, child, chain, cg, visit, tc);
    }
  } else {
    // Last level: look the shape up (leaf 0 for none, whose home is
    // never owned) and fold shape, home, distinctness and guard into
    // flags, so only a candidate (and the cost array) takes a branch —
    // as in extend_chain_fixed's last level.
    std::uint64_t cands = 0;
    std::uint64_t acc = 0;
    for (const NeighbourEdge& e : edges) {
      const ShapeEntry& s = ctx.shapes->leaf(row[e.code]);
      const Int3 h = ctx.c0 - s.v0 - ctx.base;
      const std::int64_t ga = ctx.gid[static_cast<std::size_t>(e.atom)];
      bool dup = false;
      for (int k = 0; k + 1 < Level; ++k) {
        dup |= cg[static_cast<std::size_t>(k)] == ga;
      }
      const bool owned =
          (static_cast<unsigned>(h.x) < static_cast<unsigned>(ctx.od.x)) &
          (static_cast<unsigned>(h.y) < static_cast<unsigned>(ctx.od.y)) &
          (static_cast<unsigned>(h.z) < static_cast<unsigned>(ctx.od.z));
      const bool cand = owned & !dup;
      cands += static_cast<std::uint64_t>(cand);
      if (ctx.cell_cost != nullptr && cand) {
        ++ctx.cell_cost[(static_cast<std::size_t>(h.z) * ctx.od.y + h.y) *
                            ctx.od.x +
                        h.x];
      }
      if (cand & !(s.guard & (cg[0] > ga))) {
        ++acc;
        chain[static_cast<std::size_t>(Level)] = e.atom;
        visit(std::span<const int>(chain.data(), static_cast<std::size_t>(N)));
      }
    }
    tc.chain_candidates += cands;
    tc.accepted += acc;
  }
}

template <int N, class Visitor>
void walk_layers(const CellDomain& dom, const ShapeTable& shapes,
                 const NeighbourGraph& graph, int z_begin, int z_end,
                 Visitor& visit, TupleCounters& tc, std::uint64_t* cell_cost) {
  const Int3 ext = dom.ext();
  const Int3 base = dom.owned_base();
  const Int3 od = dom.owned_dims();
  const Int3 lo = Int3::max(base + shapes.v0_lo(), {0, 0, 0});
  const Int3 hi =
      Int3::min(base + od + shapes.v0_hi(), ext);  // exclusive
  WalkCtx ctx{&graph, &shapes, dom.gids().data(), {}, base, od, {}, {},
              cell_cost};
  std::array<int, kMaxTupleLen> chain{};
  std::array<std::int64_t, kMaxTupleLen> cg{};
  for (int z = std::max(z_begin, lo.z); z < std::min(z_end, hi.z); ++z) {
    for (int y = lo.y; y < hi.y; ++y) {
      for (int x = lo.x; x < hi.x; ++x) {
        ctx.c0 = {x, y, z};
        ++tc.cell_visits;
        // Chain starts only: the start flags partition the tuples.
        const auto [first, last] = dom.cell_start_range(dom.cell_index(ctx.c0));
        tc.search_steps += static_cast<std::uint64_t>(last - first);
        ctx.v0_lo = ctx.c0 - base - od + Int3{1, 1, 1};
        ctx.v0_hi = ctx.c0 - base;
        const bool interior =
            ctx.v0_lo.x <= shapes.v0_lo().x && ctx.v0_lo.y <= shapes.v0_lo().y &&
            ctx.v0_lo.z <= shapes.v0_lo().z && ctx.v0_hi.x >= shapes.v0_hi().x &&
            ctx.v0_hi.y >= shapes.v0_hi().y && ctx.v0_hi.z >= shapes.v0_hi().z;
        for (int a = first; a < last; ++a) {
          chain[0] = a;
          cg[0] = ctx.gid[static_cast<std::size_t>(a)];
          if (interior) {
            walk_level<1, N, false>(ctx, 0, chain, cg, visit, tc);
          } else {
            walk_level<1, N, true>(ctx, 0, chain, cg, visit, tc);
          }
        }
      }
    }
  }
}

}  // namespace detail

/// Walk every chain starting in local z-layers [z_begin, z_end) (a
/// sub-range of walk_start_layers) and deliver each (chain, path) match
/// whose home cell is owned, after the path's guard, to `visit` as local
/// atom indices in chain order.  The graph must be built from the same
/// domain and table, at the enumeration cutoff.
///
/// Start-layer ranges partition the tuples: the parts of a split,
/// concatenated in range order, give the unsplit stream exactly.
/// Counters: search_steps counts start atoms plus edges examined;
/// chain_candidates and accepted are UCP's (the same totals).
/// `cell_cost`, when given, points at an owned_dims-sized [z][y][x]
/// array; each match's home cell gets one unit per chain candidate
/// (before the guard).  Parts of a split share home cells, so each needs
/// its own array.
template <class Visitor>
void walk_tuples(const CellDomain& dom, const ShapeTable& shapes,
                 const NeighbourGraph& graph, int z_begin, int z_end,
                 Visitor&& visit, TupleCounters* tc = nullptr,
                 std::uint64_t* cell_cost = nullptr) {
  TupleCounters local;
  TupleCounters& counters = tc ? *tc : local;
  auto run = [&](auto n_tag) {
    constexpr int kN = decltype(n_tag)::value;
    detail::walk_layers<kN>(dom, shapes, graph, z_begin, z_end, visit,
                            counters, cell_cost);
  };
  switch (shapes.n()) {
    case 3: run(std::integral_constant<int, 3>{}); break;
    case 4: run(std::integral_constant<int, 4>{}); break;
    case 5: run(std::integral_constant<int, 5>{}); break;
    case 6: run(std::integral_constant<int, 6>{}); break;
    case 7: run(std::integral_constant<int, 7>{}); break;
    case 8: run(std::integral_constant<int, 8>{}); break;
    default: break;
  }
}

}  // namespace scmd
