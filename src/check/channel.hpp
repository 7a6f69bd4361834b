#pragma once

/// \file channel.hpp
/// Communication abstraction for cross-rank invariant checks.
///
/// The engine-level checks (force balance, tuple-ownership census,
/// ghost/home consistency) are collective: every rank must contribute
/// and every rank must learn the verdict, or a throwing failure on one
/// rank would leave its peers blocked in a receive.  The checks talk to
/// the cluster through this minimal byte-oriented interface so the check
/// library stays free of the parallel layer (the same dependency
/// inversion RankBalancer uses); src/parallel adapts its Comm to it, and
/// a null Channel* means "single rank" everywhere.

#include "support/wire.hpp"

namespace scmd::check {

/// One rank's handle onto the cluster, restricted to what checks need.
/// All operations are collective-phase safe: checks call them in the
/// same order on every rank.
class Channel {
 public:
  virtual ~Channel() = default;

  virtual int rank() const = 0;
  virtual int num_ranks() const = 0;

  /// Asynchronous point-to-point send on the checker's own tag space.
  virtual void send(int dst, Bytes payload) = 0;
  /// Blocking receive of the next checker message from `src`.
  virtual Bytes recv(int src) = 0;

  virtual double allreduce_sum(double value) = 0;
  virtual double allreduce_max(double value) = 0;
};

}  // namespace scmd::check
