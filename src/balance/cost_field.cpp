#include "balance/cost_field.hpp"

#include <algorithm>
#include <numeric>

#include "support/error.hpp"

namespace scmd {

CostField::CostField(const Box& box, const Int3& res)
    : box_(box), res_(res) {
  SCMD_REQUIRE(res.x >= 1 && res.y >= 1 && res.z >= 1,
               "fine lattice resolution must be positive");
  values_.assign(static_cast<std::size_t>(res_.volume()), 0.0);
}

double CostField::total() const {
  double t = 0.0;
  for (double v : values_) t += v;
  return t;
}

std::int32_t CostField::bin_of(const Vec3& p) const {
  Int3 b;
  for (int a = 0; a < 3; ++a) {
    const int i = static_cast<int>(p[a] / box_.length(a) *
                                   static_cast<double>(res_[a]));
    b[a] = std::clamp(i, 0, res_[a] - 1);
  }
  return static_cast<std::int32_t>((static_cast<long long>(b.z) * res_.y +
                                    b.y) *
                                       res_.x +
                                   b.x);
}

void CostField::deposit(const CellDomain& dom,
                        const std::vector<std::uint64_t>& cell_cost,
                        const HaloSpec& root) {
  const Int3 od = dom.owned_dims();
  SCMD_REQUIRE(static_cast<long long>(cell_cost.size()) == od.volume(),
               "cell cost array does not match the domain's owned brick");
  const Vec3 cl = dom.grid().cell_lengths();
  const auto pos = dom.positions();
  std::vector<int> starts;
  for (int z = 0; z < od.z; ++z) {
    for (int y = 0; y < od.y; ++y) {
      for (int x = 0; x < od.x; ++x) {
        const double w = static_cast<double>(
            cell_cost[(static_cast<std::size_t>(z) * od.y + y) * od.x + x]);
        if (w == 0.0) continue;
        const Int3 local = dom.owned_base() + Int3{x, y, z};
        // The home's chains start in h + v0: with SC's first-octant
        // shift that is up to root_reach cells above h, and charging the
        // work to h itself misplaces it at cuts through density steps.
        starts.clear();
        for (int dz = -root.hi.z; dz <= root.lo.z; ++dz) {
          for (int dy = -root.hi.y; dy <= root.lo.y; ++dy) {
            for (int dx = -root.hi.x; dx <= root.lo.x; ++dx) {
              const Int3 c = local + Int3{dx, dy, dz};
              if (!dom.in_local(c)) continue;
              const auto [first, mid] = dom.cell_start_range(dom.cell_index(c));
              for (int i = first; i < mid; ++i) starts.push_back(i);
            }
          }
        }
        if (!starts.empty()) {
          const double share = w / static_cast<double>(starts.size());
          for (const int i : starts)
            add(bin_of(box_.wrap(pos[static_cast<std::size_t>(i)])), share);
        } else {
          // No chain-start atoms (its work came from scans that rejected
          // every candidate, or from extended home cells): keep the
          // mass, deposited at the cell center.
          const Int3 g = dom.global_coord(local);
          const Vec3 center{(g.x + 0.5) * cl.x, (g.y + 0.5) * cl.y,
                            (g.z + 0.5) * cl.z};
          add(bin_of(box_.wrap(center)), w);
        }
      }
    }
  }
}

std::vector<std::pair<std::int32_t, double>> CostField::sparse() const {
  std::vector<std::pair<std::int32_t, double>> out;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] != 0.0)
      out.emplace_back(static_cast<std::int32_t>(i), values_[i]);
  }
  return out;
}

Int3 CostField::recommend_res(const std::vector<Int3>& grid_dims) {
  SCMD_REQUIRE(!grid_dims.empty(), "need at least one grid");
  Int3 res{1, 1, 1};
  for (const Int3& d : grid_dims) {
    for (int a = 0; a < 3; ++a) res[a] = std::lcm(res[a], d[a]);
  }
  for (int a = 0; a < 3; ++a) res[a] *= 2;
  return res;
}

}  // namespace scmd
