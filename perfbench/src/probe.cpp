#include "probe.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

std::size_t window_of(int tag) {
  for (std::size_t i = 0; i < scmd::tags::kNumRanges; ++i) {
    const scmd::tags::TagRange& r = scmd::tags::kRegistry[i];
    if (tag >= r.base && tag < r.base + r.width) return i;
  }
  return kOtherWindow;
}

std::string window_name(std::size_t window) {
  return window < scmd::tags::kNumRanges ? scmd::tags::kRegistry[window].name
                                         : "other";
}

NetTally& NetTally::operator+=(const NetTally& o) {
  for (std::size_t i = 0; i < kNumWindows; ++i) {
    Window& w = windows[i];
    const Window& v = o.windows[i];
    w.messages_sent += v.messages_sent;
    w.bytes_sent += v.bytes_sent;
    w.messages_received += v.messages_received;
    w.bytes_received += v.bytes_received;
    w.send_ns += v.send_ns;
    w.recv_ns += v.recv_ns;
  }
  collectives += o.collectives;
  collective_ns += o.collective_ns;
  recv_stall_ns += o.recv_stall_ns;
  max_mailbox_depth = std::max(max_mailbox_depth, o.max_mailbox_depth);
  return *this;
}

NetTally& NetTally::operator-=(const NetTally& o) {
  for (std::size_t i = 0; i < kNumWindows; ++i) {
    Window& w = windows[i];
    const Window& v = o.windows[i];
    w.messages_sent -= v.messages_sent;
    w.bytes_sent -= v.bytes_sent;
    w.messages_received -= v.messages_received;
    w.bytes_received -= v.bytes_received;
    w.send_ns -= v.send_ns;
    w.recv_ns -= v.recv_ns;
  }
  collectives -= o.collectives;
  collective_ns -= o.collective_ns;
  recv_stall_ns -= o.recv_stall_ns;
  return *this;
}

double NetTally::messages(const std::string& prefix) const {
  double n = 0;
  for (std::size_t i = 0; i < kNumWindows; ++i) {
    if (window_name(i).rfind(prefix, 0) == 0) n += windows[i].messages_sent;
  }
  return n;
}

double NetTally::bytes(const std::string& prefix) const {
  double n = 0;
  for (std::size_t i = 0; i < kNumWindows; ++i) {
    if (window_name(i).rfind(prefix, 0) == 0) n += windows[i].bytes_sent;
  }
  return n;
}

double NetTally::recv_ns_total() const {
  double n = 0;
  for (const Window& w : windows) n += w.recv_ns;
  return n;
}

void ProbeTransport::send(int dst, int tag, scmd::Bytes payload) {
  Counters& c = windows_[window_of(tag)];
  c.messages_sent.fetch_add(1, kRelaxed);
  c.bytes_sent.fetch_add(payload.size(), kRelaxed);
  const std::uint64_t t0 = now_ns();
  inner_.send(dst, tag, std::move(payload));
  c.send_ns.fetch_add(now_ns() - t0, kRelaxed);
}

scmd::Bytes ProbeTransport::recv(int src, int tag) {
  Counters& c = windows_[window_of(tag)];
  const std::uint64_t t0 = now_ns();
  scmd::Bytes out = inner_.recv(src, tag);
  c.recv_ns.fetch_add(now_ns() - t0, kRelaxed);
  c.messages_received.fetch_add(1, kRelaxed);
  c.bytes_received.fetch_add(out.size(), kRelaxed);
  return out;
}

template <class F>
auto ProbeTransport::collective(F&& f) {
  const std::uint64_t t0 = now_ns();
  auto result = f();
  collective_ns_.fetch_add(now_ns() - t0, kRelaxed);
  collectives_.fetch_add(1, kRelaxed);
  return result;
}

void ProbeTransport::barrier() {
  collective([this] {
    inner_.barrier();
    return 0;
  });
}

double ProbeTransport::allreduce_sum(double value) {
  return collective([&] { return inner_.allreduce_sum(value); });
}

double ProbeTransport::allreduce_max(double value) {
  return collective([&] { return inner_.allreduce_max(value); });
}

NetTally ProbeTransport::tally() const {
  auto get = [](const std::atomic<std::uint64_t>& a) {
    return static_cast<double>(a.load(kRelaxed));
  };
  NetTally t;
  for (std::size_t i = 0; i < kNumWindows; ++i) {
    const Counters& c = windows_[i];
    NetTally::Window& w = t.windows[i];
    w.messages_sent = get(c.messages_sent);
    w.bytes_sent = get(c.bytes_sent);
    w.messages_received = get(c.messages_received);
    w.bytes_received = get(c.bytes_received);
    w.send_ns = get(c.send_ns);
    w.recv_ns = get(c.recv_ns);
  }
  t.collectives = get(collectives_);
  t.collective_ns = get(collective_ns_);
  const scmd::TransportStats inner = inner_.stats();
  t.recv_stall_ns = static_cast<double>(inner.recv_stall_ns);
  t.max_mailbox_depth = static_cast<double>(inner.max_mailbox_depth);
  return t;
}

}  // namespace perfbench
