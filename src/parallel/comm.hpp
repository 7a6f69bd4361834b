#pragma once

/// \file comm.hpp
/// Per-rank communication handle over a pluggable Transport.
///
/// The engine layers (HaloExchange, Migrator, RankEngine, the balancer
/// protocol, check::Channel) all talk through Comm, which forwards to an
/// abstract Transport endpoint (src/net): the in-process thread cluster
/// for tests and single-node runs, or the multi-process TCP backend for
/// real cluster runs — same MPI-like semantics either way
/// (docs/TRANSPORT.md):
///  - send() is asynchronous and never blocks;
///  - recv() blocks until a message with the given (src, tag) arrives;
///  - message order is preserved per (src, dst, tag);
///  - collectives must be entered by every rank.

#include <functional>

#include "net/inproc.hpp"
#include "net/transport.hpp"

namespace scmd {

/// One rank's handle onto the cluster, bound to a Transport endpoint.
class Comm {
 public:
  explicit Comm(Transport& transport) : transport_(&transport) {}
  /// Convenience: bind to rank's endpoint of an in-process cluster.
  Comm(Cluster& cluster, int rank) : transport_(&cluster.transport(rank)) {}

  int rank() const { return transport_->rank(); }
  int num_ranks() const { return transport_->num_ranks(); }

  void send(int dst, int tag, Bytes payload) {
    transport_->send(dst, tag, std::move(payload));
  }
  Bytes recv(int src, int tag) { return transport_->recv(src, tag); }
  void barrier() { transport_->barrier(); }
  double allreduce_sum(double v) { return transport_->allreduce_sum(v); }
  double allreduce_max(double v) { return transport_->allreduce_max(v); }

  /// The underlying endpoint (statistics, backend-specific knobs).
  Transport& transport() { return *transport_; }
  const Transport& transport() const { return *transport_; }

 private:
  Transport* transport_;
};

/// Run `fn` once per rank on its own thread over an in-process cluster.
/// When a rank throws, the cluster is aborted (Cluster::abort) so no
/// peer stays blocked on it; after all threads join, the first rank
/// exception — the root cause, not a peer's follow-on abort — is
/// rethrown.
void run_cluster(int num_ranks, const std::function<void(Comm&)>& fn);

}  // namespace scmd
