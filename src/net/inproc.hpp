#pragma once

/// \file inproc.hpp
/// In-process transport backend: ranks are threads of one process.
///
/// Substitute for MPI on the paper's clusters (see DESIGN.md §4): ranks
/// are threads in one process, point-to-point messages are byte payloads
/// moved through per-destination mailboxes, and collectives are built on
/// a generation-counted monitor.  Every communication pattern of the
/// paper — octant 3-stage forwarded import, full-shell 6-stage import,
/// reverse force write-back, staged migration — runs for real on this
/// layer, so parallel correctness is testable without cluster hardware.
///
/// The Cluster owns the shared state; each rank talks to it through its
/// InProcTransport handle (Cluster::transport(rank)), which implements
/// the abstract Transport interface and keeps that rank's statistics:
/// send/receive volume, recv stall time, and the high watermark of its
/// mailbox — the unbounded-mailbox assumption made visible.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "net/transport.hpp"
#include "support/thread_safety.hpp"

namespace scmd {

class InProcTransport;

/// Shared communication state for a set of thread-ranks.
class Cluster {
 public:
  explicit Cluster(int num_ranks);

  int num_ranks() const { return num_ranks_; }

  /// Rank r's endpoint (stable for the Cluster's lifetime).
  InProcTransport& transport(int rank);

  /// Deposit a message; never blocks.
  void send(int src, int dst, int tag, Bytes payload);

  /// Blocking receive of the next message from (src, tag).  When
  /// `stall_ns` is non-null it accumulates the time spent waiting.
  Bytes recv(int dst, int src, int tag, std::uint64_t* stall_ns = nullptr);

  /// Generation barrier; all ranks must call.
  void barrier(int rank);

  /// Sum reduction over all ranks; all ranks must call, all get the sum.
  /// The values are folded in rank order once the last rank arrives, so
  /// the result is bit-reproducible whatever the arrival order (the same
  /// order TcpTransport folds in).
  double allreduce_sum(int rank, double value);

  /// Max reduction over all ranks.
  double allreduce_max(int rank, double value);

  /// Fail the cluster: every recv/barrier/allreduce that is blocked now,
  /// or blocks later, throws Error instead of waiting for a rank that
  /// will never send.  run_cluster calls this when a rank throws.
  void abort();

  /// High watermark of messages queued-but-unreceived in rank's mailbox.
  std::uint64_t mailbox_high_water(int rank) const;
  /// Max of mailbox_high_water over all ranks.
  std::uint64_t max_mailbox_depth() const;

 private:
  struct Mailbox {
    mutable Mutex m;
    CondVar cv;
    /// (src, tag) -> pending payloads.
    std::map<std::pair<int, int>, std::deque<Bytes>> queues SCMD_GUARDED_BY(m);
    std::uint64_t depth SCMD_GUARDED_BY(m) = 0;       ///< queued, unreceived
    std::uint64_t high_water SCMD_GUARDED_BY(m) = 0;  ///< max depth observed
  };

  double reduce(int rank, double value, bool is_max);
  void throw_if_aborted() const;

  int num_ranks_;
  std::vector<Mailbox> boxes_;
  std::vector<std::unique_ptr<InProcTransport>> transports_;

  /// Generation-counted monitor for barrier/allreduce.
  Mutex coll_m_;
  CondVar coll_cv_;
  std::uint64_t coll_gen_ SCMD_GUARDED_BY(coll_m_) = 0;
  int coll_count_ SCMD_GUARDED_BY(coll_m_) = 0;
  std::vector<double> coll_values_ SCMD_GUARDED_BY(coll_m_);  ///< by rank
  double coll_result_ SCMD_GUARDED_BY(coll_m_) = 0.0;

  std::atomic<bool> aborted_{false};
};

/// One rank's Transport endpoint onto a Cluster.
class InProcTransport final : public Transport {
 public:
  InProcTransport(Cluster& cluster, int rank)
      : cluster_(&cluster), rank_(rank) {}

  int rank() const override { return rank_; }
  int num_ranks() const override { return cluster_->num_ranks(); }

  void send(int dst, int tag, Bytes payload) override {
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(payload.size(), std::memory_order_relaxed);
    cluster_->send(rank_, dst, tag, std::move(payload));
  }

  Bytes recv(int src, int tag) override {
    std::uint64_t stall = 0;
    Bytes out = cluster_->recv(rank_, src, tag, &stall);
    messages_received_.fetch_add(1, std::memory_order_relaxed);
    bytes_received_.fetch_add(out.size(), std::memory_order_relaxed);
    recv_stall_ns_.fetch_add(stall, std::memory_order_relaxed);
    return out;
  }

  void barrier() override { cluster_->barrier(rank_); }
  double allreduce_sum(double v) override {
    return cluster_->allreduce_sum(rank_, v);
  }
  double allreduce_max(double v) override {
    return cluster_->allreduce_max(rank_, v);
  }

  TransportStats stats() const override {
    TransportStats s;
    s.messages_sent = messages_sent_.load(std::memory_order_relaxed);
    s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    s.messages_received = messages_received_.load(std::memory_order_relaxed);
    s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
    s.recv_stall_ns = recv_stall_ns_.load(std::memory_order_relaxed);
    s.max_mailbox_depth = cluster_->mailbox_high_water(rank_);
    return s;
  }

 private:
  Cluster* cluster_;
  int rank_;
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> messages_received_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> recv_stall_ns_{0};
};

}  // namespace scmd
