#include "tuples/walk.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace scmd {

ShapeTable::ShapeTable(const CompiledPattern& cp) : n_(cp.n()) {
  const std::span<const CompiledPath> paths = cp.paths();
  // Pairs keep per-path UCP: the SC pair pattern already is the
  // eighth-shell neighbour search.
  SCMD_REQUIRE(n_ >= 3, "the walk serves tuples of length 3 and more");
  SCMD_REQUIRE(!paths.empty(), "cannot tabulate an empty pattern");
  v0_lo_ = v0_hi_ = source_lo_ = source_hi_ = paths[0].v[0];
  for (const CompiledPath& p : paths) {
    v0_lo_ = Int3::min(v0_lo_, p.v[0]);
    v0_hi_ = Int3::max(v0_hi_, p.v[0]);
    for (int k = 0; k + 1 < n_; ++k) {
      source_lo_ = Int3::min(source_lo_, p.v[static_cast<std::size_t>(k)]);
      source_hi_ = Int3::max(source_hi_, p.v[static_cast<std::size_t>(k)]);
    }
    for (int k = 1; k < n_; ++k) {
      const Int3 d = p.v[static_cast<std::size_t>(k)] -
                     p.v[static_cast<std::size_t>(k - 1)];
      reach_ = std::max(reach_, d.chebyshev());
    }
  }
  width_ = 2 * reach_ + 1;
  const std::size_t codes = static_cast<std::size_t>(num_codes());

  // Insert every path's delta sequence; the last delta names its leaf.
  // Id 0 is the root among nodes and "none" among leaves, and is never a
  // child, so 0 in a row means no path continues.
  next_.assign(codes, 0);
  node_v0_lo_.assign(1, v0_lo_);
  node_v0_hi_.assign(1, v0_hi_);
  constexpr int kFar = 1 << 29;  // no home cell is owned from here
  leaves_.assign(1, ShapeEntry{{-kFar, -kFar, -kFar}, false});
  for (const CompiledPath& p : paths) {
    int node = 0;
    for (int k = 1; k < n_; ++k) {
      const Int3 d = p.v[static_cast<std::size_t>(k)] -
                     p.v[static_cast<std::size_t>(k - 1)];
      const std::size_t slot =
          static_cast<std::size_t>(node) * codes +
          static_cast<std::size_t>(code(d));
      if (k + 1 == n_) {
        SCMD_REQUIRE(next_[slot] == 0,
                     "pattern has two paths of one shape (duplicate tuples)");
        next_[slot] = static_cast<int>(leaves_.size());
        leaves_.push_back(ShapeEntry{p.v[0], p.guard});
        break;
      }
      if (next_[slot] == 0) {
        next_[slot] = static_cast<int>(node_v0_lo_.size());
        next_.resize(next_.size() + codes, 0);
        node_v0_lo_.push_back(p.v[0]);
        node_v0_hi_.push_back(p.v[0]);
      }
      node = next_[slot];
      const std::size_t ni = static_cast<std::size_t>(node);
      node_v0_lo_[ni] = Int3::min(node_v0_lo_[ni], p.v[0]);
      node_v0_hi_[ni] = Int3::max(node_v0_hi_[ni], p.v[0]);
    }
  }
}

void NeighbourGraph::build(const CellDomain& dom, const ShapeTable& shapes,
                           double rcut, TupleCounters& tc) {
  const double rcut2 = rcut * rcut;
  const std::span<const Vec3> pos = dom.positions();
  const std::span<const std::int64_t> gid = dom.gids();
  const Int3 ext = dom.ext();
  const Int3 base = dom.owned_base();
  const Int3 src_lo = Int3::max(base + shapes.source_lo(), {0, 0, 0});
  const Int3 src_hi =
      Int3::min(base + dom.owned_dims() + shapes.source_hi(), ext);
  const int r = shapes.step_reach();

  begin_.assign(static_cast<std::size_t>(dom.num_atoms()) + 1, 0);
  // Cells adjacent along x are adjacent in the binned atom order, so the
  // (2r+1)^3 neighbour cells are (2r+1)^2 contiguous atom rows; an edge's
  // x delta comes from its atom's cell column.
  std::vector<int> column(static_cast<std::size_t>(dom.num_atoms()));
  for (long long ci = 0; ci < dom.num_local_cells(); ++ci) {
    const auto [first, last] = dom.cell_range(ci);
    const int x = static_cast<int>(ci % ext.x);
    for (int a = first; a < last; ++a) column[static_cast<std::size_t>(a)] = x;
  }
  // Edges are written branch-free into spare room past `count`; the
  // buffer grows ahead of each source atom by its candidate total.
  std::size_t count = 0;
  // Neighbour rows of the current source cell: atom range and the code
  // of the row's delta at dx = -r (codes are x-fastest).
  struct Row {
    int first;
    int last;
    int code;
  };
  std::vector<Row> rows;
  rows.reserve(static_cast<std::size_t>((2 * r + 1) * (2 * r + 1)));
  std::uint64_t tests = 0;
  for (int z = 0; z < ext.z; ++z) {
    for (int y = 0; y < ext.y; ++y) {
      for (int x = 0; x < ext.x; ++x) {
        const Int3 c{x, y, z};
        const auto [first, last] = dom.cell_range(dom.cell_index(c));
        const bool source = x >= src_lo.x && y >= src_lo.y && z >= src_lo.z &&
                            x < src_hi.x && y < src_hi.y && z < src_hi.z;
        if (!source || first == last) {
          for (int a = first; a < last; ++a)
            begin_[static_cast<std::size_t>(a) + 1] = static_cast<int>(count);
          continue;
        }
        rows.clear();
        std::size_t candidates = 0;
        const int x0 = std::max(x - r, 0);
        const int x1 = std::min(x + r, ext.x - 1);
        for (int dz = -r; dz <= r; ++dz) {
          for (int dy = -r; dy <= r; ++dy) {
            if (!dom.in_local({x, y + dy, z + dz})) continue;
            const int rf = dom.cell_range(dom.cell_index({x0, y + dy, z + dz})).first;
            const int rl = dom.cell_range(dom.cell_index({x1, y + dy, z + dz})).second;
            if (rf == rl) continue;
            rows.push_back({rf, rl, shapes.code({-r, dy, dz}) - (x - r)});
            candidates += static_cast<std::size_t>(rl - rf);
            tc.cell_visits += static_cast<std::uint64_t>(x1 - x0 + 1);
          }
        }
        tests += candidates * static_cast<std::size_t>(last - first);
        for (int a = first; a < last; ++a) {
          if (edges_.size() < count + candidates)
            edges_.resize(std::max(2 * edges_.size(), count + candidates));
          const Vec3 pa = pos[static_cast<std::size_t>(a)];
          const std::int64_t ga = gid[static_cast<std::size_t>(a)];
          for (const Row& row : rows) {
            for (int j = row.first; j < row.last; ++j) {
              const std::size_t jj = static_cast<std::size_t>(j);
              // The same difference, operand order included, as the UCP
              // cutoff test, so both accept exactly the same pairs.
              const Vec3 d = pos[jj] - pa;
              edges_[count] = {j, row.code + column[jj]};
              count += static_cast<std::size_t>((d.norm2() < rcut2) &
                                                (gid[jj] != ga));
            }
          }
          begin_[static_cast<std::size_t>(a) + 1] = static_cast<int>(count);
        }
      }
    }
  }
  edges_.resize(count);
  tc.search_steps += tests;
}

std::pair<int, int> walk_start_layers(const CellDomain& dom,
                                      const ShapeTable& shapes) {
  const int base = dom.owned_base().z;
  return {std::max(base + shapes.v0_lo().z, 0),
          std::min(base + dom.owned_dims().z + shapes.v0_hi().z,
                   dom.ext().z)};
}

}  // namespace scmd
