#pragma once

/// \file tuple_list.hpp
/// Persistent n-tuple lists: Verlet-skin tuple caching across MD steps.
///
/// Hybrid-MD wins serial walltime comparisons by amortizing pair-list
/// construction across steps.  This subsystem extends the same skin-based
/// retention from pairs to arbitrary n-tuple patterns: one enumeration at
/// the inflated cutoff rcut + skin (UCP for pairs, the neighbour-graph walk
/// of walk.hpp for n >= 3) records every accepted tuple of each active n
/// as a compact flat index array; subsequent steps *replay* the
/// recorded lists with exact-rcut filtering inside the eval kernel — no
/// cell walk, no chain search, no re-binning.
///
/// Correctness (the generalized Verlet criterion): while no atom has moved
/// farther than skin/2 since the build, two atoms within rcut now were
/// within rcut + 2*(skin/2) = rcut + skin at build time, so every chain
/// whose consecutive pairs currently pass the exact cutoff was accepted by
/// the inflated enumeration — the cached list is a superset of the exact
/// tuple set, and the replay filter recovers it exactly.
///
/// A list freezes the binned atom table of its build domain ("slots"):
/// tuple entries are slot indices, and each slot remembers the source atom
/// (local_ref) it mirrors.  On reuse steps the slot positions are
/// refreshed in place, each new value snapped to the periodic image
/// nearest the slot's previous position, so the build-time unwrapped frame
/// survives atoms wrapping around the box.  See docs/TUPLECACHE.md.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "cell/domain.hpp"
#include "geom/box.hpp"
#include "pattern/path.hpp"

namespace scmd {

/// Tuple-cache mode shared by the engines (off by default).
struct TupleCacheConfig {
  bool enabled = false;
  /// Cutoff inflation in distance units.  Lists rebuild when any atom has
  /// moved farther than skin/2 since the last build; skin = 0 degenerates
  /// to rebuild-every-step.
  double skin = 0.0;
};

/// One n's persistent tuple list plus its frozen slot table.
class TupleList {
 public:
  /// Freeze `dom`'s atom table as the slot table and clear the tuples.
  void reset(const CellDomain& dom, int n);

  /// Append recorded tuples (flat, length a multiple of n) in build
  /// order; called once per enumeration thread, in thread order.
  void append_flat(const std::vector<int>& flat);

  int n() const { return n_; }
  long long num_tuples() const {
    return n_ > 0 ? static_cast<long long>(tuples_.size()) / n_ : 0;
  }
  int num_slots() const { return static_cast<int>(pos_.size()); }

  std::span<const int> tuples() const { return tuples_; }
  std::span<const Vec3> positions() const { return pos_; }
  std::span<const int> types() const { return type_; }
  std::span<const int> refs() const { return ref_; }

  /// Refresh every slot position from its source atom.  `src(ref)` must
  /// return the source atom's current position in any periodic image; the
  /// stored value is snapped to the image nearest the slot's previous
  /// position, preserving the build-time frame.
  template <class SrcFn>
  void refresh_positions(const Box& box, SrcFn&& src) {
    for (std::size_t s = 0; s < pos_.size(); ++s) {
      pos_[s] = box.image_near(src(ref_[s]), pos_[s]);
    }
  }

 private:
  int n_ = 0;
  std::vector<int> tuples_;  ///< flat slot indices, n per tuple
  std::vector<Vec3> pos_;    ///< slot positions (build frame, refreshed)
  std::vector<int> type_;
  std::vector<int> ref_;     ///< slot -> source atom (domain local_ref)
};

/// Per-engine tuple cache: one list per active n, the retention state,
/// and the owned-position snapshot behind the displacement trigger.
class TupleListCache {
 public:
  TupleListCache() = default;
  explicit TupleListCache(const TupleCacheConfig& config)
      : config_(config) {}

  bool enabled() const { return config_.enabled; }
  double skin() const { return config_.skin; }

  /// Lists are valid (built and not invalidated).  The replay path may
  /// only run while this holds.
  bool valid() const { return valid_; }
  void invalidate() { valid_ = false; }

  /// Snapshot the owned positions as the displacement reference and mark
  /// the lists valid.  Call right after a build.
  void mark_built(std::span<const Vec3> owned_pos);

  /// Largest squared min-image displacement of any owned atom since the
  /// last build.  The caller must pass the same atom set (size-checked).
  double max_displacement2(const Box& box,
                           std::span<const Vec3> owned_pos) const;

  /// Retention test: true when the lists must be rebuilt.  In parallel
  /// runs feed max_displacement2 through an all-ranks max-reduce first so
  /// the decision is collective.
  bool exceeds_skin(double max_disp2) const {
    const double half = 0.5 * config_.skin;
    return max_disp2 > half * half;
  }

  TupleList& list(int n) { return lists_[static_cast<std::size_t>(n)]; }
  const TupleList& list(int n) const {
    return lists_[static_cast<std::size_t>(n)];
  }

 private:
  TupleCacheConfig config_;
  bool valid_ = false;
  std::array<TupleList, kMaxTupleLen + 1> lists_{};
  std::vector<Vec3> ref_pos_;  ///< owned positions at build time
};

}  // namespace scmd
