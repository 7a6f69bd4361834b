#pragma once

/// \file ucp.hpp
/// Uniform-cell-pattern (UCP) n-tuple enumeration (paper Table 1).
///
/// Given a cell domain and a computation pattern, stream every accepted
/// range-limited n-tuple to a visitor.  "Accepted" means:
///
///  1. chain cutoff: every consecutive pair of the chain is closer than
///     rcut (Eq. 6) — checked incrementally, pruning the search;
///  2. distinctness: all atoms of the tuple have distinct global ids
///     (tuples are over distinct atoms; periodic self-images excluded);
///  3. orientation: each *undirected* tuple is delivered exactly once.
///     A collapsed pattern generates each tuple in one orientation except
///     through self-reflective paths, which generate both; an uncollapsed
///     (full-shell) pattern generates both orientations through twin
///     paths.  Guarded paths therefore keep a tuple only when
///     gid(first) < gid(last).
///
/// The enumeration cost counters are the measured quantities behind the
/// paper's Fig. 7 and the search-cost side of Figs. 8-9.  (The tuple
/// cache's build reaches the same n >= 3 tuples by the cheaper
/// neighbour-graph walk of walk.hpp.)

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "cell/domain.hpp"
#include "pattern/pattern.hpp"

namespace scmd {

/// One path preprocessed for enumeration.
struct CompiledPath {
  std::array<Int3, kMaxTupleLen> v{};  ///< cell offsets
  int n = 0;
  /// Apply the gid(first) < gid(last) orientation guard (see file docs).
  bool guard = false;
};

/// One node of the compiled prefix trie (see CompiledPattern).
struct TrieNode {
  Int3 v;             ///< cell offset at this chain level
  bool guard = false; ///< orientation guard (meaningful at leaves)
  int child_begin = 0;  ///< children occupy [child_begin, child_end) in
  int child_end = 0;    ///< the node pool; leaves have an empty range
};

/// A pattern preprocessed for enumeration.
///
/// Two enumeration modes are compiled:
///
///  - per-path (paper Table 1): each path's chain search runs
///    independently — the implementation model the paper's cost analysis
///    (Lemma 5: T_UCP ∝ |Ψ|) and its FS/SC comparisons assume;
///  - prefix trie: paths sharing the offsets (v0..vk) share the
///    partial-chain search for those levels.  This is an extension of
///    ours: it speeds everything up, it is what makes sub-cutoff
///    (reach >= 2) patterns profitable at all, and it measurably *narrows*
///    the FS-vs-SC search gap, because full-shell paths (all rooted at
///    v0 = 0) share prefixes maximally while OC-shift scatters the SC
///    roots.  See EXPERIMENTS.md.
class CompiledPattern {
 public:
  CompiledPattern() = default;

  /// Compile a pattern.  `collapsed()` of the pattern decides guarding:
  /// collapsed patterns guard only self-reflective paths; uncollapsed
  /// patterns guard every path.
  explicit CompiledPattern(const Pattern& psi);

  int n() const { return n_; }
  std::span<const CompiledPath> paths() const { return paths_; }

  /// Trie access: nodes at depth 0 occupy [0, root_end()); a node's
  /// children are nodes()[child_begin..child_end).
  std::span<const TrieNode> nodes() const { return nodes_; }
  int root_end() const { return root_end_; }

  /// Largest coverage offsets — must fit in the domain halo.
  HaloSpec required_halo() const { return halo_; }

 private:
  int n_ = 0;
  std::vector<CompiledPath> paths_;
  std::vector<TrieNode> nodes_;
  int root_end_ = 0;
  HaloSpec halo_;
};

/// Work counters accumulated during enumeration.
struct TupleCounters {
  /// Candidate atoms examined across all partial chain extensions — the
  /// search workload T_UCP (proportional to Eq. 12's filtering cost).
  std::uint64_t search_steps = 0;
  /// Complete chains that passed every cutoff and distinctness check.
  std::uint64_t chain_candidates = 0;
  /// Tuples delivered to the visitor (after the orientation guard).
  std::uint64_t accepted = 0;
  /// Cell lookups performed (one per path/trie-node extension reaching a
  /// cell, even an empty one).  The bookkeeping cost that dominates
  /// sub-cutoff (reach >= 2) patterns, whose many small cells are mostly
  /// empty.
  std::uint64_t cell_visits = 0;

  TupleCounters& operator+=(const TupleCounters& o) {
    search_steps += o.search_steps;
    chain_candidates += o.chain_candidates;
    accepted += o.accepted;
    cell_visits += o.cell_visits;
    return *this;
  }

  /// Snapshot-delta support (per-step work from cumulative counters).
  TupleCounters& operator-=(const TupleCounters& o) {
    search_steps -= o.search_steps;
    chain_candidates -= o.chain_candidates;
    accepted -= o.accepted;
    cell_visits -= o.cell_visits;
    return *this;
  }
};

/// |S(n)| — the force-set size generated by the pattern over the domain:
/// sum over owned home cells and paths of the product of the n touched
/// cells' occupancies (paper Eq. 23; the quantity plotted in Fig. 7).
/// Computed from occupancies alone, no tuple enumeration.
long long force_set_size(const CellDomain& dom, const CompiledPattern& cp);

namespace detail {

/// Atom-index ranges of one visited cell, precomputed per home cell for
/// the arity-specialized extensions: [first, mid) are the cell's
/// chain-start atoms (level-0 candidates), [first, last) all its atoms
/// (continuation-level candidates).
struct CellRange {
  int first;
  int mid;
  int last;
};

/// Recursive chain extension for one path (paper Table 1).  Kept in the
/// header so the visitor callback inlines.
template <class Visitor>
inline void extend_chain(const CellDomain& dom, const CompiledPath& path,
                         const Int3& home, double rcut2, int level,
                         std::array<int, kMaxTupleLen>& chain,
                         Visitor& visit, TupleCounters& tc) {
  // Bound the recursion depth visibly for the optimizer (callers always
  // satisfy level < path.n <= kMaxTupleLen).
  if (level < 0 || level >= kMaxTupleLen) return;
  ++tc.cell_visits;
  const Int3 cell = home + path.v[static_cast<std::size_t>(level)];
  // Level 0 visits chain starts only (the rank-ownership partition);
  // continuation levels see every atom, ghosts included.
  const auto [first, last] = level == 0
                                 ? dom.cell_start_range(dom.cell_index(cell))
                                 : dom.cell_range(dom.cell_index(cell));
  const std::span<const Vec3> pos = dom.positions();
  const std::span<const std::int64_t> gid = dom.gids();
  const bool is_last = (level == path.n - 1);
  const int prev = level > 0 ? chain[static_cast<std::size_t>(level - 1)] : -1;
  // Loads invariant across the candidate loop, hoisted: the previous
  // chain atom's position, the earlier chain members' gids (distinctness
  // compares against these), and the guard's gid(first).
  const Vec3 prev_pos = level > 0 ? pos[static_cast<std::size_t>(prev)]
                                  : Vec3{};
  std::array<std::int64_t, kMaxTupleLen> cg{};
  for (int k = 0; k < level; ++k) {
    cg[static_cast<std::size_t>(k)] =
        gid[static_cast<std::size_t>(chain[static_cast<std::size_t>(k)])];
  }
  const std::int64_t guard_gid0 =
      (is_last && path.guard && level > 0) ? cg[0] : 0;

  // Every candidate in the range is one search step; counted up front so
  // the hot loop carries no memory increment (same total, same meaning).
  tc.search_steps += static_cast<std::uint64_t>(last - first);
  for (int a = first; a < last; ++a) {
    if (level > 0) {
      const Vec3 d = pos[static_cast<std::size_t>(a)] - prev_pos;
      if (d.norm2() >= rcut2) continue;
    }
    const std::int64_t ga = gid[static_cast<std::size_t>(a)];
    bool dup = false;
    for (int k = 0; k < level; ++k) {
      if (cg[static_cast<std::size_t>(k)] == ga) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    chain[static_cast<std::size_t>(level)] = a;
    if (!is_last) {
      extend_chain(dom, path, home, rcut2, level + 1, chain, visit, tc);
      continue;
    }
    ++tc.chain_candidates;
    if (path.guard && guard_gid0 > ga) continue;
    ++tc.accepted;
    visit(std::span<const int>(chain.data(), static_cast<std::size_t>(path.n)));
  }
}

/// Arity-specialized chain extension: the recursion of extend_chain with
/// the level and tuple length fixed at compile time, so the loop nest
/// fully unrolls — the distinctness compares, the is-last branch, and
/// the guard load all resolve statically and the per-candidate body
/// carries no arity branching.  Two further invariants move out of the
/// per-visit work relative to extend_chain:
///
///  - a path touches few *distinct* cells (the same offsets recur across
///    paths and levels), but the recursion revisits each one per
///    surviving partial chain — and visited cells hold ~2 candidates at
///    MD densities, so per-visit setup dominates the whole search.  The
///    caller therefore resolves every distinct offset's cell range ONCE
///    per home cell into `ranges`, and `level_slot[k]` names the path's
///    level-k entry; each visit reads a small, cache-hot array instead
///    of re-deriving the cell index and loading its bin bounds;
///  - `cg` carries the chain's gid prefix down the recursion — the
///    caller appends the survivor's gid before recursing instead of the
///    callee re-gathering every chain member's gid per visit.
///
/// Counter semantics are identical to extend_chain (same increments,
/// same order).
template <int Level, int N, class Visitor>
inline void extend_chain_fixed(const CellDomain& dom,
                               const CellRange* ranges,
                               const int* level_slot,
                               const CompiledPath& path, double rcut2,
                               std::array<int, kMaxTupleLen>& chain,
                               std::array<std::int64_t, kMaxTupleLen>& cg,
                               Visitor& visit, TupleCounters& tc) {
  static_assert(Level >= 0 && Level < N && N <= kMaxTupleLen);
  ++tc.cell_visits;
  const CellRange& cr = ranges[level_slot[Level]];
  // Level 0 visits chain starts only (the rank-ownership partition);
  // continuation levels see every atom, ghosts included.
  const int first = cr.first;
  const int last = Level == 0 ? cr.mid : cr.last;
  const std::span<const Vec3> pos = dom.positions();
  const std::span<const std::int64_t> gid = dom.gids();
  constexpr bool kIsLast = (Level == N - 1);
  const Vec3 prev_pos =
      Level > 0 ? pos[static_cast<std::size_t>(
                      chain[static_cast<std::size_t>(Level - 1)])]
                : Vec3{};
  const std::int64_t guard_gid0 = (kIsLast && path.guard) ? cg[0] : 0;

  // Every candidate in the range is one search step; counted up front so
  // the hot loop carries no memory increment (same total, same meaning).
  tc.search_steps += static_cast<std::uint64_t>(last - first);
  if constexpr (Level == 0) {
    for (int a = first; a < last; ++a) {
      chain[0] = a;
      cg[0] = gid[static_cast<std::size_t>(a)];
      extend_chain_fixed<1, N>(dom, ranges, level_slot, path, rcut2, chain,
                               cg, visit, tc);
    }
  } else if constexpr (!kIsLast) {
    for (int a = first; a < last; ++a) {
      const Vec3 d = pos[static_cast<std::size_t>(a)] - prev_pos;
      // Cutoff and distinctness (unrolled: Level is a constant) folded
      // into one branch — the separate early-outs each mispredict on
      // these ~2-candidate cells.
      const std::int64_t ga = gid[static_cast<std::size_t>(a)];
      bool dup = false;
      for (int k = 0; k < Level; ++k) {
        dup |= cg[static_cast<std::size_t>(k)] == ga;
      }
      if (d.norm2() < rcut2 && !dup) {
        chain[static_cast<std::size_t>(Level)] = a;
        cg[static_cast<std::size_t>(Level)] = ga;
        extend_chain_fixed<Level + 1, N>(dom, ranges, level_slot, path,
                                         rcut2, chain, cg, visit, tc);
      }
    }
  } else {
    // Last level: the accept test is evaluated branch-free per candidate
    // (cutoff, distinctness, orientation guard), and the counters
    // accumulate in registers — only an actual acceptance (rare) takes a
    // branch.  Increment-for-increment equivalent to the branchy form.
    std::uint64_t cands = 0;
    std::uint64_t acc = 0;
    for (int a = first; a < last; ++a) {
      const Vec3 d = pos[static_cast<std::size_t>(a)] - prev_pos;
      const std::int64_t ga = gid[static_cast<std::size_t>(a)];
      bool dup = false;
      for (int k = 0; k < Level; ++k) {
        dup |= cg[static_cast<std::size_t>(k)] == ga;
      }
      const bool cand = d.norm2() < rcut2 && !dup;
      cands += static_cast<std::uint64_t>(cand);
      const bool ok = cand && !(path.guard && guard_gid0 > ga);
      if (ok) {
        ++acc;
        chain[static_cast<std::size_t>(Level)] = a;
        visit(std::span<const int>(chain.data(),
                                   static_cast<std::size_t>(N)));
      }
    }
    tc.chain_candidates += cands;
    tc.accepted += acc;
  }
}

/// Recursive chain extension down the prefix trie.  Kept in the header so
/// the visitor callback inlines.
template <class Visitor>
inline void extend_trie(const CellDomain& dom,
                        std::span<const TrieNode> nodes, int node_idx,
                        int depth, int n, const Int3& home, double rcut2,
                        std::array<int, kMaxTupleLen>& chain, Visitor& visit,
                        TupleCounters& tc) {
  // Bound the recursion depth visibly for the optimizer (callers always
  // satisfy depth < n <= kMaxTupleLen).
  if (depth < 0 || depth >= kMaxTupleLen) return;
  ++tc.cell_visits;
  const TrieNode& node = nodes[static_cast<std::size_t>(node_idx)];
  const Int3 cell = home + node.v;
  // Level 0 visits chain starts only (the rank-ownership partition);
  // continuation levels see every atom, ghosts included.
  const auto [first, last] = depth == 0
                                 ? dom.cell_start_range(dom.cell_index(cell))
                                 : dom.cell_range(dom.cell_index(cell));
  const std::span<const Vec3> pos = dom.positions();
  const std::span<const std::int64_t> gid = dom.gids();
  const bool is_last = (depth == n - 1);
  const int prev = depth > 0 ? chain[static_cast<std::size_t>(depth - 1)] : -1;
  // Loop-invariant loads hoisted out of the candidate loop (see
  // extend_chain).
  const Vec3 prev_pos = depth > 0 ? pos[static_cast<std::size_t>(prev)]
                                  : Vec3{};
  std::array<std::int64_t, kMaxTupleLen> cg{};
  for (int k = 0; k < depth; ++k) {
    cg[static_cast<std::size_t>(k)] =
        gid[static_cast<std::size_t>(chain[static_cast<std::size_t>(k)])];
  }
  const std::int64_t guard_gid0 =
      (is_last && node.guard && depth > 0) ? cg[0] : 0;

  // Every candidate in the range is one search step; counted up front so
  // the hot loop carries no memory increment (same total, same meaning).
  tc.search_steps += static_cast<std::uint64_t>(last - first);
  for (int a = first; a < last; ++a) {
    if (depth > 0) {
      const Vec3 d = pos[static_cast<std::size_t>(a)] - prev_pos;
      if (d.norm2() >= rcut2) continue;
    }
    // Distinctness against all earlier chain members.
    const std::int64_t ga = gid[static_cast<std::size_t>(a)];
    bool dup = false;
    for (int k = 0; k < depth; ++k) {
      if (cg[static_cast<std::size_t>(k)] == ga) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    chain[static_cast<std::size_t>(depth)] = a;
    if (!is_last) {
      for (int c = node.child_begin; c < node.child_end; ++c) {
        extend_trie(dom, nodes, c, depth + 1, n, home, rcut2, chain, visit,
                    tc);
      }
      continue;
    }
    ++tc.chain_candidates;
    if (node.guard && guard_gid0 > ga) continue;
    ++tc.accepted;
    visit(std::span<const int>(chain.data(), static_cast<std::size_t>(n)));
  }
}

/// Arity-specialized trie extension (see extend_chain_fixed): depth and
/// tuple length fixed at compile time, per-home-cell precomputed cell
/// ranges in `ranges` selected by `node_slot`, gid prefix carried in
/// `cg`.  Counter semantics identical to extend_trie.
template <int Depth, int N, class Visitor>
inline void extend_trie_fixed(const CellDomain& dom,
                              const CellRange* ranges, const int* node_slot,
                              std::span<const TrieNode> nodes, int node_idx,
                              double rcut2,
                              std::array<int, kMaxTupleLen>& chain,
                              std::array<std::int64_t, kMaxTupleLen>& cg,
                              Visitor& visit, TupleCounters& tc) {
  static_assert(Depth >= 0 && Depth < N && N <= kMaxTupleLen);
  ++tc.cell_visits;
  const TrieNode& node = nodes[static_cast<std::size_t>(node_idx)];
  const CellRange& cr = ranges[node_slot[node_idx]];
  // Level 0 visits chain starts only (the rank-ownership partition);
  // continuation levels see every atom, ghosts included.
  const int first = cr.first;
  const int last = Depth == 0 ? cr.mid : cr.last;
  const std::span<const Vec3> pos = dom.positions();
  const std::span<const std::int64_t> gid = dom.gids();
  constexpr bool kIsLast = (Depth == N - 1);
  const Vec3 prev_pos =
      Depth > 0 ? pos[static_cast<std::size_t>(
                      chain[static_cast<std::size_t>(Depth - 1)])]
                : Vec3{};
  const std::int64_t guard_gid0 = (kIsLast && node.guard) ? cg[0] : 0;

  // Every candidate in the range is one search step; counted up front so
  // the hot loop carries no memory increment (same total, same meaning).
  tc.search_steps += static_cast<std::uint64_t>(last - first);
  if constexpr (Depth == 0) {
    for (int a = first; a < last; ++a) {
      chain[0] = a;
      cg[0] = gid[static_cast<std::size_t>(a)];
      for (int c = node.child_begin; c < node.child_end; ++c) {
        extend_trie_fixed<1, N>(dom, ranges, node_slot, nodes, c, rcut2,
                                chain, cg, visit, tc);
      }
    }
  } else if constexpr (!kIsLast) {
    for (int a = first; a < last; ++a) {
      const Vec3 d = pos[static_cast<std::size_t>(a)] - prev_pos;
      // Cutoff and distinctness folded into one branch (see
      // extend_chain_fixed).
      const std::int64_t ga = gid[static_cast<std::size_t>(a)];
      bool dup = false;
      for (int k = 0; k < Depth; ++k) {
        dup |= cg[static_cast<std::size_t>(k)] == ga;
      }
      if (d.norm2() < rcut2 && !dup) {
        chain[static_cast<std::size_t>(Depth)] = a;
        cg[static_cast<std::size_t>(Depth)] = ga;
        for (int c = node.child_begin; c < node.child_end; ++c) {
          extend_trie_fixed<Depth + 1, N>(dom, ranges, node_slot, nodes, c,
                                          rcut2, chain, cg, visit, tc);
        }
      }
    }
  } else {
    // Branch-free last-level accept with register counters (see
    // extend_chain_fixed); increment-for-increment equivalent.
    std::uint64_t cands = 0;
    std::uint64_t acc = 0;
    for (int a = first; a < last; ++a) {
      const Vec3 d = pos[static_cast<std::size_t>(a)] - prev_pos;
      const std::int64_t ga = gid[static_cast<std::size_t>(a)];
      bool dup = false;
      for (int k = 0; k < Depth; ++k) {
        dup |= cg[static_cast<std::size_t>(k)] == ga;
      }
      const bool cand = d.norm2() < rcut2 && !dup;
      cands += static_cast<std::uint64_t>(cand);
      const bool ok = cand && !(node.guard && guard_gid0 > ga);
      if (ok) {
        ++acc;
        chain[static_cast<std::size_t>(Depth)] = a;
        visit(std::span<const int>(chain.data(),
                                   static_cast<std::size_t>(N)));
      }
    }
    tc.chain_candidates += cands;
    tc.accepted += acc;
  }
}

/// Pre-linearised cell offset of `v` against the domain extent:
/// cell_index(home + v) == cell_index(home) + linear_cell_offset(dom, v)
/// for every home cell, so the enumeration's per-visit cell lookup is one
/// integer add.
inline long long linear_cell_offset(const CellDomain& dom, const Int3& v) {
  const Int3 e = dom.ext();
  return (static_cast<long long>(v.z) * e.y + v.y) * e.x + v.x;
}

}  // namespace detail

/// Enumerate accepted n-tuples whose home cell lies in the owned z-slab
/// [z_begin, z_end), path by path (paper Table 1 — the default, whose
/// search counters obey the paper's Lemma 5 cost model).  Home-cell slabs
/// partition the tuple stream, which is how intra-rank threads split the
/// work.  `visit` receives local (binned) atom indices in chain order.
/// `cell_cost`, when given, points at an owned_dims-sized [z][y][x] array;
/// each home cell's search steps are *added* to its entry — the exact
/// per-cell work attribution the load balancer's cost field accumulates
/// (per-home-cell work is decomposition-independent, so per-cell costs sum
/// exactly to rank costs under any axis-aligned re-cut).
template <class Visitor>
void for_each_tuple(const CellDomain& dom, const CompiledPattern& cp,
                    double rcut, int z_begin, int z_end, Visitor&& visit,
                    TupleCounters* tc = nullptr,
                    std::uint64_t* cell_cost = nullptr) {
  TupleCounters local;
  TupleCounters& counters = tc ? *tc : local;
  const double rcut2 = rcut * rcut;
  const Int3 base = dom.owned_base();
  const Int3 od = dom.owned_dims();
  std::array<int, kMaxTupleLen> chain{};
  std::array<std::int64_t, kMaxTupleLen> cg{};
  // The paths reuse a handful of distinct cell offsets (27 for the
  // reach-1 three-body SC pattern, against ~1500 cell visits per home
  // cell).  Dedupe them into slots once, then resolve every slot's atom
  // range a single time per home cell below — the specialized recursion
  // reads the small `ranges` array instead of deriving a cell index and
  // loading its bin bounds on every visit (see extend_chain_fixed).
  std::vector<long long> slot_off;
  std::vector<Int3> slot_v;
  std::vector<std::array<int, kMaxTupleLen>> path_slot(cp.paths().size());
  for (std::size_t p = 0; p < cp.paths().size(); ++p) {
    const CompiledPath& path = cp.paths()[p];
    for (int k = 0; k < path.n; ++k) {
      const Int3& v = path.v[static_cast<std::size_t>(k)];
      std::size_t slot = 0;
      while (slot < slot_v.size() && !(slot_v[slot] == v)) ++slot;
      if (slot == slot_v.size()) {
        slot_v.push_back(v);
        slot_off.push_back(detail::linear_cell_offset(dom, v));
      }
      path_slot[p][static_cast<std::size_t>(k)] = static_cast<int>(slot);
    }
  }
  std::vector<detail::CellRange> ranges(slot_off.size());
  // Dispatch once on the tuple length so the chain recursion runs with
  // the arity fixed at compile time (extend_chain_fixed); lengths beyond
  // the specialized set use the dynamic recursion.  N = 0 marks dynamic.
  auto run = [&](auto n_tag) {
    constexpr int kN = decltype(n_tag)::value;
    for (int z = z_begin; z < z_end; ++z) {
      for (int y = 0; y < od.y; ++y) {
        for (int x = 0; x < od.x; ++x) {
          const Int3 home = base + Int3{x, y, z};
          const std::uint64_t before = counters.search_steps;
          if constexpr (kN != 0) {
            const long long home_idx = dom.cell_index(home);
            for (std::size_t sl = 0; sl < slot_off.size(); ++sl) {
              const long long ci = home_idx + slot_off[sl];
              const auto [f, l] = dom.cell_range(ci);
              const auto [f0, mid] = dom.cell_start_range(ci);
              ranges[sl] = detail::CellRange{f, mid, l};
            }
          }
          for (std::size_t p = 0; p < cp.paths().size(); ++p) {
            const CompiledPath& path = cp.paths()[p];
            if constexpr (kN == 0) {
              detail::extend_chain(dom, path, home, rcut2, 0, chain, visit,
                                   counters);
            } else {
              if (path.n == kN) {
                detail::extend_chain_fixed<0, kN>(dom, ranges.data(),
                                                  path_slot[p].data(), path,
                                                  rcut2, chain, cg, visit,
                                                  counters);
              } else {
                detail::extend_chain(dom, path, home, rcut2, 0, chain, visit,
                                     counters);
              }
            }
          }
          if (cell_cost != nullptr) {
            cell_cost[(static_cast<std::size_t>(z) * od.y + y) * od.x + x] +=
                counters.search_steps - before;
          }
        }
      }
    }
  };
  switch (cp.n()) {
    case 2:
      run(std::integral_constant<int, 2>{});
      break;
    case 3:
      run(std::integral_constant<int, 3>{});
      break;
    case 4:
      run(std::integral_constant<int, 4>{});
      break;
    default:
      run(std::integral_constant<int, 0>{});
      break;
  }
}

/// Whole-domain convenience overload.
template <class Visitor>
void for_each_tuple(const CellDomain& dom, const CompiledPattern& cp,
                    double rcut, Visitor&& visit,
                    TupleCounters* tc = nullptr) {
  for_each_tuple(dom, cp, rcut, 0, dom.owned_dims().z,
                 std::forward<Visitor>(visit), tc);
}

/// Same tuple stream as for_each_tuple, via the prefix-sharing trie (our
/// extension; see the CompiledPattern docs).
template <class Visitor>
void for_each_tuple_shared(const CellDomain& dom, const CompiledPattern& cp,
                           double rcut, int z_begin, int z_end,
                           Visitor&& visit, TupleCounters* tc = nullptr,
                           std::uint64_t* cell_cost = nullptr) {
  TupleCounters local;
  TupleCounters& counters = tc ? *tc : local;
  const double rcut2 = rcut * rcut;
  const Int3 base = dom.owned_base();
  const Int3 od = dom.owned_dims();
  const std::span<const TrieNode> nodes = cp.nodes();
  std::array<int, kMaxTupleLen> chain{};
  std::array<std::int64_t, kMaxTupleLen> cg{};
  // Dedupe the trie nodes' cell offsets into slots resolved once per
  // home cell (see for_each_tuple / extend_chain_fixed).
  std::vector<long long> slot_off;
  std::vector<Int3> slot_v;
  std::vector<int> node_slot(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Int3& v = nodes[i].v;
    std::size_t slot = 0;
    while (slot < slot_v.size() && !(slot_v[slot] == v)) ++slot;
    if (slot == slot_v.size()) {
      slot_v.push_back(v);
      slot_off.push_back(detail::linear_cell_offset(dom, v));
    }
    node_slot[i] = static_cast<int>(slot);
  }
  std::vector<detail::CellRange> ranges(slot_off.size());
  // Same arity dispatch as for_each_tuple: fix the trie depth bound at
  // compile time for the common tuple lengths.  N = 0 marks dynamic.
  auto run = [&](auto n_tag) {
    constexpr int kN = decltype(n_tag)::value;
    for (int z = z_begin; z < z_end; ++z) {
      for (int y = 0; y < od.y; ++y) {
        for (int x = 0; x < od.x; ++x) {
          const Int3 home = base + Int3{x, y, z};
          const std::uint64_t before = counters.search_steps;
          if constexpr (kN != 0) {
            const long long home_idx = dom.cell_index(home);
            for (std::size_t sl = 0; sl < slot_off.size(); ++sl) {
              const long long ci = home_idx + slot_off[sl];
              const auto [f, l] = dom.cell_range(ci);
              const auto [f0, mid] = dom.cell_start_range(ci);
              ranges[sl] = detail::CellRange{f, mid, l};
            }
          }
          for (int root = 0; root < cp.root_end(); ++root) {
            if constexpr (kN == 0) {
              detail::extend_trie(dom, nodes, root, 0, cp.n(), home, rcut2,
                                  chain, visit, counters);
            } else {
              detail::extend_trie_fixed<0, kN>(dom, ranges.data(),
                                               node_slot.data(), nodes, root,
                                               rcut2, chain, cg, visit,
                                               counters);
            }
          }
          if (cell_cost != nullptr) {
            cell_cost[(static_cast<std::size_t>(z) * od.y + y) * od.x + x] +=
                counters.search_steps - before;
          }
        }
      }
    }
  };
  switch (cp.n()) {
    case 2:
      run(std::integral_constant<int, 2>{});
      break;
    case 3:
      run(std::integral_constant<int, 3>{});
      break;
    case 4:
      run(std::integral_constant<int, 4>{});
      break;
    default:
      run(std::integral_constant<int, 0>{});
      break;
  }
}

/// Whole-domain convenience overload.
template <class Visitor>
void for_each_tuple_shared(const CellDomain& dom, const CompiledPattern& cp,
                           double rcut, Visitor&& visit,
                           TupleCounters* tc = nullptr) {
  for_each_tuple_shared(dom, cp, rcut, 0, dom.owned_dims().z,
                        std::forward<Visitor>(visit), tc);
}

/// Mode dispatcher used by the force strategies.
template <class Visitor>
void enumerate_tuples(bool shared_prefix, const CellDomain& dom,
                      const CompiledPattern& cp, double rcut, int z_begin,
                      int z_end, Visitor&& visit, TupleCounters* tc = nullptr,
                      std::uint64_t* cell_cost = nullptr) {
  if (shared_prefix) {
    for_each_tuple_shared(dom, cp, rcut, z_begin, z_end,
                          std::forward<Visitor>(visit), tc, cell_cost);
  } else {
    for_each_tuple(dom, cp, rcut, z_begin, z_end,
                   std::forward<Visitor>(visit), tc, cell_cost);
  }
}

/// Whole-domain convenience overload.
template <class Visitor>
void enumerate_tuples(bool shared_prefix, const CellDomain& dom,
                      const CompiledPattern& cp, double rcut,
                      Visitor&& visit, TupleCounters* tc = nullptr) {
  enumerate_tuples(shared_prefix, dom, cp, rcut, 0, dom.owned_dims().z,
                   std::forward<Visitor>(visit), tc);
}

/// Count-only convenience wrapper (per-path mode).
TupleCounters count_tuples(const CellDomain& dom, const CompiledPattern& cp,
                           double rcut);

}  // namespace scmd
