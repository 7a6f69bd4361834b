#include "net/inproc.hpp"

#include <algorithm>
#include <chrono>

#include "support/error.hpp"

namespace scmd {

Cluster::Cluster(int num_ranks) : num_ranks_(num_ranks), boxes_(num_ranks) {
  SCMD_REQUIRE(num_ranks >= 1, "cluster needs at least one rank");
  coll_values_.assign(static_cast<std::size_t>(num_ranks), 0.0);
  transports_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r)
    transports_.push_back(std::make_unique<InProcTransport>(*this, r));
}

InProcTransport& Cluster::transport(int rank) {
  SCMD_REQUIRE(rank >= 0 && rank < num_ranks_, "transport for invalid rank");
  return *transports_[static_cast<std::size_t>(rank)];
}

void Cluster::send(int src, int dst, int tag, Bytes payload) {
  SCMD_REQUIRE(dst >= 0 && dst < num_ranks_, "send to invalid rank");
  Mailbox& box = boxes_[static_cast<std::size_t>(dst)];
  {
    MutexLock lk(box.m);
    box.queues[{src, tag}].push_back(std::move(payload));
    ++box.depth;
    if (box.depth > box.high_water) box.high_water = box.depth;
  }
  box.cv.notify_all();
}

Bytes Cluster::recv(int dst, int src, int tag, std::uint64_t* stall_ns) {
  SCMD_REQUIRE(dst >= 0 && dst < num_ranks_, "recv on invalid rank");
  Mailbox& box = boxes_[static_cast<std::size_t>(dst)];
  MutexLock lk(box.m);
  auto& q = box.queues[{src, tag}];
  if (q.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    while (q.empty()) {
      throw_if_aborted();
      box.cv.wait(box.m);
    }
    if (stall_ns != nullptr)
      *stall_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
  }
  Bytes out = std::move(q.front());
  q.pop_front();
  --box.depth;
  return out;
}

double Cluster::reduce(int rank, double value, bool is_max) {
  SCMD_REQUIRE(rank >= 0 && rank < num_ranks_, "collective on invalid rank");
  MutexLock lk(coll_m_);
  throw_if_aborted();
  const std::uint64_t my_gen = coll_gen_;
  coll_values_[static_cast<std::size_t>(rank)] = value;
  if (++coll_count_ == num_ranks_) {
    double acc = coll_values_[0];
    for (std::size_t r = 1; r < coll_values_.size(); ++r)
      acc = is_max ? std::max(acc, coll_values_[r]) : acc + coll_values_[r];
    coll_result_ = acc;
    coll_count_ = 0;
    ++coll_gen_;
    coll_cv_.notify_all();
    return coll_result_;
  }
  while (coll_gen_ == my_gen) {
    throw_if_aborted();
    coll_cv_.wait(coll_m_);
  }
  return coll_result_;
}

void Cluster::barrier(int rank) { reduce(rank, 0.0, false); }

double Cluster::allreduce_sum(int rank, double value) {
  return reduce(rank, value, false);
}

double Cluster::allreduce_max(int rank, double value) {
  return reduce(rank, value, true);
}

void Cluster::abort() {
  aborted_.store(true);
  // Taking each mutex between the store and the notify guarantees that a
  // waiter which saw aborted_ == false is already parked on its condition
  // variable, so the notify cannot be lost.
  for (Mailbox& box : boxes_) {
    { MutexLock lk(box.m); }
    box.cv.notify_all();
  }
  { MutexLock lk(coll_m_); }
  coll_cv_.notify_all();
}

void Cluster::throw_if_aborted() const {
  SCMD_REQUIRE(!aborted_.load(),
               "in-process cluster aborted: a peer rank failed");
}

std::uint64_t Cluster::mailbox_high_water(int rank) const {
  SCMD_REQUIRE(rank >= 0 && rank < num_ranks_, "watermark for invalid rank");
  const Mailbox& box = boxes_[static_cast<std::size_t>(rank)];
  MutexLock lk(box.m);
  return box.high_water;
}

std::uint64_t Cluster::max_mailbox_depth() const {
  std::uint64_t max_depth = 0;
  for (int r = 0; r < num_ranks_; ++r)
    max_depth = std::max(max_depth, mailbox_high_water(r));
  return max_depth;
}

}  // namespace scmd
