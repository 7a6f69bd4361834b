#pragma once

/// \file strategy.hpp
/// Force-computation strategies — the three codes benchmarked in the
/// paper (Sec. 5): SC-MD, FS-MD, and Hybrid-MD.
///
/// A strategy consumes per-n cell domains (each n-body term uses its own
/// cell grid with cell side >= rcut(n), rebuilt every step) and produces
/// forces in arrays parallel to each domain's binned atoms.  The caller
/// (serial engine, parallel rank driver, or cluster simulator) folds those
/// per-domain forces back to atom owners.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cell/domain.hpp"
#include "engines/counters.hpp"
#include "potentials/force_field.hpp"

namespace scmd {

/// The per-n domains a strategy computes from.  dom[n] is null when the
/// strategy does not request grid n (see ForceStrategy::needs_grid).
struct DomainSet {
  std::array<const CellDomain*, kMaxTupleLen + 1> dom{};
};

/// Per-n force outputs, parallel to the corresponding domain's atoms.
/// f[n] is null when dom[n] is.
struct ForceAccum {
  std::array<std::vector<Vec3>*, kMaxTupleLen + 1> f{};
  /// Optional per-home-cell search-work attribution, one entry per owned
  /// cell of dom[n] in [z][y][x] order (sized owned_dims().volume()).
  /// Entries are *added to*, so a caller can accumulate across steps —
  /// this feeds the load balancer's cost field.  Null to skip.  (A
  /// tuple-cache build counts chain candidates for n >= 3; see
  /// TupleStrategy::compute_build.)
  std::array<std::vector<std::uint64_t>*, kMaxTupleLen + 1> cell_cost{};
};

/// Strategy interface.  Implementations are stateless w.r.t. the
/// trajectory (compute() may be called with any domains), so one instance
/// serves many ranks.
class ForceStrategy {
 public:
  virtual ~ForceStrategy() = default;

  virtual std::string name() const = 0;

  /// True if the strategy needs a cell grid/domain for tuple length n.
  virtual bool needs_grid(int n) const = 0;

  /// Ghost-halo margins required on grid n.  Only meaningful when
  /// needs_grid(n).
  virtual HaloSpec halo(int n) const = 0;

  /// Cell offsets the strategy's *level-0* (chain-start) candidates can
  /// have relative to the home cell: lo[a] is the largest positive root
  /// offset on axis a, hi[a] the largest negative one.  Zero for
  /// strategies that always start chains in the home cell (FS patterns,
  /// cell-list pair sweeps).  Non-uniform decompositions extend each
  /// rank's home-cell iteration range by these margins so that the rank
  /// owning a chain-start atom always iterates the anchoring home cell
  /// (exactly-once generation under atom-granular ownership).
  virtual HaloSpec root_reach(int n) const {
    (void)n;
    return HaloSpec{};
  }

  /// Minimum cell side the strategy wants for grid n, given the n-body
  /// cutoff.  Default: the cutoff itself (classic cell method); the
  /// sub-cutoff generalization returns rcut/reach.
  virtual double min_cell_size(int n, double rcut) const;

  /// Intra-rank thread count for the force computation (paper Sec. 6:
  /// tuple computations are independent and expose maximal concurrency).
  /// Default: ignored.  Configure before sharing the strategy across
  /// ranks; compute() itself stays const and thread-compatible.
  virtual void set_num_threads(int num_threads);

  /// Compute forces and return the potential energy contribution of this
  /// rank (each tuple's energy is counted on exactly one rank globally).
  virtual double compute(const ForceField& field, const DomainSet& domains,
                         ForceAccum& forces, EngineCounters& counters) const = 0;
};

/// Which computation pattern a tuple-based strategy uses.  The two middle
/// variants isolate the SC algorithm's phases for ablation studies: OC
/// shrinks the import volume only, RC halves the search only.
enum class PatternKind {
  kShiftCollapse,  ///< SC-MD: OC-shifted, reflect-collapsed patterns
  kFullShell,      ///< FS-MD: raw GENERATE-FS patterns
  kOcOnly,         ///< OC-SHIFT(FS): compact coverage, redundant search
  kRcOnly,         ///< R-COLLAPSE(FS): halved search, full-shell coverage
                   ///< (the half-shell method generalized to any n)
};

/// Pattern-based strategy (SC-MD / FS-MD): per-n UCP enumeration.
/// `reach` > 1 selects sub-cutoff cells of side rcut/reach (paper Sec. 6,
/// midpoint-method style).
std::unique_ptr<ForceStrategy> make_tuple_strategy(const ForceField& field,
                                                   PatternKind kind,
                                                   bool measure_force_set =
                                                       false,
                                                   int reach = 1);

/// Hybrid-MD: full-shell pair grid, dynamic Verlet pair list, triplets
/// pruned from the list with rcut(3) (paper Sec. 5).  Supports fields
/// with max_n() <= 3.
std::unique_ptr<ForceStrategy> make_hybrid_strategy(const ForceField& field,
                                                    bool measure_force_set =
                                                        false);

/// Convenience: "SC" / "FS" / "Hybrid" by name.
std::unique_ptr<ForceStrategy> make_strategy(const std::string& name,
                                             const ForceField& field,
                                             bool measure_force_set = false);

}  // namespace scmd
