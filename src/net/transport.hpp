#pragma once

/// \file transport.hpp
/// Pluggable communication transport for the SC-MD cluster runtime.
///
/// Every parallel protocol in this repo — octant 3-stage forwarded
/// import, full-shell 6-stage import, reverse force write-back, staged
/// migration, the collective balance/cache decisions — talks to the
/// cluster through the MPI-like semantics defined here:
///
///  - send() is asynchronous and never blocks the sender;
///  - recv() blocks until a message with the given (src, tag) arrives
///    (backends may bound the wait and surface a timeout as an error);
///  - message order is preserved per (src, dst, tag);
///  - collectives (barrier, allreduce) must be entered by every rank,
///    in the same order.
///
/// Backends:
///  - InProcTransport (net/inproc.hpp): ranks are threads of one
///    process, messages move through shared-memory mailboxes.  The
///    testing and single-node workhorse.
///  - TcpTransport (net/tcp.hpp): one process per rank, length-prefixed
///    frames over TCP sockets, rank-0 rendezvous for address exchange.
///    The multi-process / multi-host backend.
///
/// The engine layers never see a backend type: src/parallel adapts a
/// Transport into its per-rank Comm handle, so RankEngine, HaloExchange,
/// Migrator, the balancer protocol, and check::Channel run unchanged on
/// either backend (docs/TRANSPORT.md).

#include <cstdint>

#include "support/wire.hpp"  // Bytes, pack/unpack

namespace scmd {

/// Cumulative per-rank transport statistics.  Sent counts are recorded
/// when the message is accepted (enqueue), received counts when it is
/// taken off the wire/mailbox; recv_stall_ns is the time this rank spent
/// blocked in recv() waiting for a message that had not arrived yet;
/// max_mailbox_depth is the high watermark of messages queued for this
/// rank but not yet received — the observable for the unbounded-mailbox
/// assumption (docs/TRANSPORT.md).
struct TransportStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t recv_stall_ns = 0;
  std::uint64_t max_mailbox_depth = 0;

  TransportStats& operator+=(const TransportStats& o) {
    messages_sent += o.messages_sent;
    bytes_sent += o.bytes_sent;
    messages_received += o.messages_received;
    bytes_received += o.bytes_received;
    recv_stall_ns += o.recv_stall_ns;
    if (o.max_mailbox_depth > max_mailbox_depth)
      max_mailbox_depth = o.max_mailbox_depth;
    return *this;
  }
};

/// One rank's endpoint onto the cluster.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int rank() const = 0;
  virtual int num_ranks() const = 0;

  /// Deposit a message for `dst`; never blocks on the receiver.
  virtual void send(int dst, int tag, Bytes payload) = 0;

  /// Blocking receive of the next message from (src, tag).  Backends
  /// with a receive timeout throw scmd::Error when it expires or when
  /// the peer is known dead — a fault is an error, never a hang.
  virtual Bytes recv(int src, int tag) = 0;

  /// Generation barrier; all ranks must call.
  virtual void barrier() = 0;

  /// Sum reduction over all ranks; all ranks must call, all get the sum.
  virtual double allreduce_sum(double value) = 0;

  /// Max reduction over all ranks.
  virtual double allreduce_max(double value) = 0;

  /// Snapshot of this rank's cumulative statistics.
  virtual TransportStats stats() const = 0;
};

}  // namespace scmd
