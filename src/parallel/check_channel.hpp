#pragma once

/// \file check_channel.hpp
/// check::Channel adapter over the threads-as-ranks Comm.
///
/// Checker traffic runs on its own registered channel (tags::kCheck in
/// net/tags.hpp) so it can never interleave with the engine exchange
/// windows.  The adapter is stateless and cheap to construct at a check
/// site.

#include "check/channel.hpp"
#include "net/tags.hpp"
#include "parallel/comm.hpp"

namespace scmd {

/// One rank's checker view of the cluster.
class CommCheckChannel final : public check::Channel {
 public:
  explicit CommCheckChannel(Comm& comm) : comm_(&comm) {}

  int rank() const override { return comm_->rank(); }
  int num_ranks() const override { return comm_->num_ranks(); }

  void send(int dst, Bytes payload) override {
    comm_->send(dst, tags::kCheck, std::move(payload));
  }
  Bytes recv(int src) override {
    return comm_->recv(src, tags::kCheck);
  }

  double allreduce_sum(double value) override {
    return comm_->allreduce_sum(value);
  }
  double allreduce_max(double value) override {
    return comm_->allreduce_max(value);
  }

 private:
  Comm* comm_;
};

}  // namespace scmd
