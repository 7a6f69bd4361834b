#pragma once

// Transport decorator for the traced runs: forwards every call to the
// wrapped endpoint and tallies, per net/tags.hpp window, the messages and
// bytes this rank sent and received and the wall time it spent inside
// send and recv, plus the count and time of its collectives.  The engines
// never see it: run_parallel_md_rank receives a Comm bound to the probe.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "net/tags.hpp"
#include "net/transport.hpp"

namespace perfbench {

/// Window index of a tag: the position of its range in tags::kRegistry,
/// or kOtherWindow for a tag outside every registered range.
inline constexpr std::size_t kOtherWindow = scmd::tags::kNumRanges;
inline constexpr std::size_t kNumWindows = scmd::tags::kNumRanges + 1;
std::size_t window_of(int tag);
std::string window_name(std::size_t window);

/// Plain-value totals of one probe, or a sum or difference of several.
/// Doubles, so that the difference of two operations' timings can be
/// negative without wrapping.
struct NetTally {
  struct Window {
    double messages_sent = 0;
    double bytes_sent = 0;
    double messages_received = 0;
    double bytes_received = 0;
    double send_ns = 0;
    double recv_ns = 0;
  };
  std::array<Window, kNumWindows> windows{};
  double collectives = 0;
  double collective_ns = 0;
  /// From the wrapped endpoint's own statistics.
  double recv_stall_ns = 0;
  double max_mailbox_depth = 0;  ///< not summed: the max over tallies

  NetTally& operator+=(const NetTally& o);
  NetTally& operator-=(const NetTally& o);

  /// Messages / bytes sent in every window whose registry name starts
  /// with `prefix` ("" = all windows).
  double messages(const std::string& prefix = "") const;
  double bytes(const std::string& prefix = "") const;
  double recv_ns_total() const;
};

class ProbeTransport final : public scmd::Transport {
 public:
  explicit ProbeTransport(scmd::Transport& inner) : inner_(inner) {}

  ProbeTransport(const ProbeTransport&) = delete;
  ProbeTransport& operator=(const ProbeTransport&) = delete;

  int rank() const override { return inner_.rank(); }
  int num_ranks() const override { return inner_.num_ranks(); }
  void send(int dst, int tag, scmd::Bytes payload) override;
  scmd::Bytes recv(int src, int tag) override;
  void barrier() override;
  double allreduce_sum(double value) override;
  double allreduce_max(double value) override;
  scmd::TransportStats stats() const override { return inner_.stats(); }

  /// Snapshot of everything tallied so far.
  NetTally tally() const;

 private:
  struct Counters {
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> messages_received{0};
    std::atomic<std::uint64_t> bytes_received{0};
    std::atomic<std::uint64_t> send_ns{0};
    std::atomic<std::uint64_t> recv_ns{0};
  };

  template <class F>
  auto collective(F&& f);

  scmd::Transport& inner_;
  std::array<Counters, kNumWindows> windows_{};
  std::atomic<std::uint64_t> collectives_{0};
  std::atomic<std::uint64_t> collective_ns_{0};
};

}  // namespace perfbench
