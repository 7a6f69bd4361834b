#include "check/engine_checks.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

namespace scmd::check {

namespace {

/// Owned-atom record exchanged during the ghost-consistency gather.
struct WireAtom {
  std::int64_t gid;
  double x, y, z;
};
static_assert(std::is_trivially_copyable_v<WireAtom>);

/// Gather every rank's vector at rank 0 (concatenated in rank order),
/// then redistribute the concatenation to all ranks.  Single-rank: the
/// local vector comes straight back.
template <class T>
std::vector<T> gather_all(Channel* channel, std::vector<T> local) {
  if (channel == nullptr || channel->num_ranks() <= 1) return local;
  const int rank = channel->rank();
  const int num_ranks = channel->num_ranks();
  if (rank == 0) {
    std::vector<T> all = std::move(local);
    for (int r = 1; r < num_ranks; ++r) {
      const std::vector<T> part = unpack<T>(channel->recv(r));
      all.insert(all.end(), part.begin(), part.end());
    }
    const Bytes payload = pack(all);
    for (int r = 1; r < num_ranks; ++r) channel->send(r, payload);
    return all;
  }
  channel->send(0, pack(local));
  return unpack<T>(channel->recv(0));
}

}  // namespace

void collective_invariant(Channel* channel, bool local_ok,
                          const std::string& local_msg, const char* what) {
  bool global_ok = local_ok;
  if (channel != nullptr && channel->num_ranks() > 1) {
    global_ok = channel->allreduce_max(local_ok ? 0.0 : 1.0) == 0.0;
  }
  SCMD_INVARIANT(global_ok,
                 local_ok ? std::string(what) + " violated on another rank"
                          : local_msg);
  count_check();
}

void check_force_balance(Channel* channel,
                         std::span<const Vec3> owned_forces) {
  if (!enabled() || !options().force_balance) return;
  double sx = 0.0, sy = 0.0, sz = 0.0, scale = 0.0;
  for (const Vec3& f : owned_forces) {
    sx += f.x;
    sy += f.y;
    sz += f.z;
    scale += std::fabs(f.x) + std::fabs(f.y) + std::fabs(f.z);
  }
  if (channel != nullptr && channel->num_ranks() > 1) {
    sx = channel->allreduce_sum(sx);
    sy = channel->allreduce_sum(sy);
    sz = channel->allreduce_sum(sz);
    scale = channel->allreduce_sum(scale);
  }
  const double tol = options().force_rel_tol * std::max(1.0, scale);
  const bool ok = std::fabs(sx) <= tol && std::fabs(sy) <= tol &&
                  std::fabs(sz) <= tol;
  // The reduced sums are identical on every rank, so the verdict already
  // is collective.
  SCMD_INVARIANT(ok, "total force not zero (Newton's third law): sum = (" +
                         std::to_string(sx) + ", " + std::to_string(sy) +
                         ", " + std::to_string(sz) + "), tol = " +
                         std::to_string(tol));
  count_check();
}

void check_ghost_consistency(Channel* channel, const Box& box,
                             std::span<const std::int64_t> owned_gid,
                             std::span<const Vec3> owned_pos,
                             std::span<const std::int64_t> ghost_gid,
                             std::span<const Vec3> ghost_pos,
                             long long expected_total) {
  if (!enabled() || !options().ghost_consistency) return;
  std::vector<WireAtom> local(owned_gid.size());
  for (std::size_t i = 0; i < owned_gid.size(); ++i) {
    local[i] = WireAtom{owned_gid[i], owned_pos[i].x, owned_pos[i].y,
                        owned_pos[i].z};
  }
  const std::vector<WireAtom> table = gather_all(channel, std::move(local));

  bool ok = true;
  std::string msg;
  auto flag = [&](std::string m) {
    if (ok) {
      ok = false;
      msg = std::move(m);
    }
  };

  std::unordered_map<std::int64_t, Vec3> owners;
  owners.reserve(table.size());
  for (const WireAtom& a : table) {
    if (!owners.emplace(a.gid, Vec3(a.x, a.y, a.z)).second)
      flag("atom gid " + std::to_string(a.gid) +
           " owned by more than one rank");
  }
  if (expected_total >= 0 &&
      static_cast<long long>(table.size()) != expected_total)
    flag("global atom count " + std::to_string(table.size()) +
         " != expected " + std::to_string(expected_total) +
         " (atoms lost or duplicated)");

  const double tol2 = options().ghost_tol * options().ghost_tol;
  for (std::size_t i = 0; i < ghost_gid.size(); ++i) {
    const auto it = owners.find(ghost_gid[i]);
    if (it == owners.end()) {
      flag("ghost gid " + std::to_string(ghost_gid[i]) +
           " has no owning rank");
      continue;
    }
    const Vec3 d = box.min_image(ghost_pos[i], it->second);
    if (d.norm2() > tol2)
      flag("ghost gid " + std::to_string(ghost_gid[i]) +
           " position diverged from its owner by |d| = " +
           std::to_string(std::sqrt(d.norm2())) +
           " (mod periodic image), tol = " +
           std::to_string(options().ghost_tol));
  }
  collective_invariant(channel, ok, msg, "ghost/home consistency");
}

void check_tuple_ownership(Channel* channel, int n,
                           std::span<const std::int64_t> tuples_flat,
                           long long reference_total) {
  if (!enabled() || !options().tuple_ownership) return;
  SCMD_INVARIANT(n >= 2 && tuples_flat.size() % static_cast<std::size_t>(n) ==
                               0,
                 "tuple census: flat array length must be a multiple of n");
  const std::size_t un = static_cast<std::size_t>(n);

  // Canonical orientation: a chain and its reversal name the same
  // undirected tuple; keep the lexicographically smaller of the two.
  // (Chains over the same atom *set* in different visit order are
  // distinct tuples and must not be merged.)
  std::vector<std::int64_t> canon(tuples_flat.begin(), tuples_flat.end());
  for (std::size_t t = 0; t + un <= canon.size(); t += un) {
    std::int64_t* b = canon.data() + t;
    bool reverse = false;
    for (std::size_t k = 0; k < un; ++k) {
      if (b[k] != b[un - 1 - k]) {
        reverse = b[k] > b[un - 1 - k];
        break;
      }
    }
    if (reverse) std::reverse(b, b + un);
  }

  // Rank 0 inspects the global census; the verdict is reduced so every
  // rank fails together.
  const std::vector<std::int64_t> all = gather_all(channel, std::move(canon));
  bool ok = true;
  std::string msg;
  const bool inspector = channel == nullptr || channel->rank() == 0;
  if (inspector) {
    const std::size_t count = all.size() / un;
    if (reference_total >= 0 &&
        static_cast<long long>(count) != reference_total) {
      ok = false;
      msg = "n=" + std::to_string(n) + " tuple count " +
            std::to_string(count) + " != reference " +
            std::to_string(reference_total) + " (missing or extra tuples)";
    } else {
      std::vector<std::size_t> idx(count);
      std::iota(idx.begin(), idx.end(), 0);
      auto tuple_less = [&](std::size_t a, std::size_t b) {
        return std::lexicographical_compare(
            all.begin() + static_cast<std::ptrdiff_t>(a * un),
            all.begin() + static_cast<std::ptrdiff_t>((a + 1) * un),
            all.begin() + static_cast<std::ptrdiff_t>(b * un),
            all.begin() + static_cast<std::ptrdiff_t>((b + 1) * un));
      };
      std::sort(idx.begin(), idx.end(), tuple_less);
      for (std::size_t i = 0; i + 1 < idx.size(); ++i) {
        if (!tuple_less(idx[i], idx[i + 1]) &&
            !tuple_less(idx[i + 1], idx[i])) {
          std::string gids;
          for (std::size_t k = 0; k < un; ++k) {
            if (k) gids += ",";
            gids += std::to_string(all[idx[i] * un + k]);
          }
          ok = false;
          msg = "n=" + std::to_string(n) + " tuple (" + gids +
                ") enumerated more than once (duplicate ownership)";
          break;
        }
      }
    }
  }
  collective_invariant(channel, ok, msg, "exactly-once tuple ownership");
}

void check_replay_parity(Channel* channel, std::span<const Vec3> replay_f,
                         std::span<const Vec3> fresh_f, double replay_energy,
                         double fresh_energy) {
  if (!enabled() || !options().replay_parity) return;
  // Multi-rank callers pass each rank's *owned* forces (comparable — the
  // ownership partition is shared) but per-rank *partial* energies, which
  // legitimately differ when the replayed and fresh tuple sets partition
  // across ranks differently.  Sum the energies globally before
  // comparing; collective, so it runs before any local verdict.
  if (channel != nullptr && channel->num_ranks() > 1) {
    replay_energy = channel->allreduce_sum(replay_energy);
    fresh_energy = channel->allreduce_sum(fresh_energy);
  }
  bool ok = replay_f.size() == fresh_f.size();
  std::string msg;
  if (!ok) {
    msg = "replay force array size " + std::to_string(replay_f.size()) +
          " != fresh " + std::to_string(fresh_f.size());
  } else {
    double max_diff = 0.0, max_mag = 0.0;
    std::size_t worst = 0;
    for (std::size_t i = 0; i < fresh_f.size(); ++i) {
      const Vec3 d = replay_f[i] - fresh_f[i];
      const double diff2 = d.norm2();
      if (diff2 > max_diff) {
        max_diff = diff2;
        worst = i;
      }
      max_mag = std::max(max_mag, fresh_f[i].norm2());
    }
    max_diff = std::sqrt(max_diff);
    max_mag = std::sqrt(max_mag);
    const double ftol = options().parity_rel_tol * std::max(1.0, max_mag);
    const double etol =
        options().parity_rel_tol * std::max(1.0, std::fabs(fresh_energy));
    if (max_diff > ftol) {
      ok = false;
      msg = "replay force diverged from fresh enumeration at slot " +
            std::to_string(worst) + ": |df| = " + std::to_string(max_diff) +
            ", tol = " + std::to_string(ftol);
    } else if (std::fabs(replay_energy - fresh_energy) > etol) {
      ok = false;
      msg = "replay energy " + std::to_string(replay_energy) +
            " != fresh " + std::to_string(fresh_energy) + ", tol = " +
            std::to_string(etol);
    }
  }
  collective_invariant(channel, ok, msg, "tuple-cache replay parity");
}

}  // namespace scmd::check
