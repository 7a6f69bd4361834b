#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

#include "net/tags.hpp"
#include "support/error.hpp"

// Frames are raw little-endian structs; a big-endian build would need a
// byte-swapping layer that nothing in this repo targets.
static_assert(std::endian::native == std::endian::little,
              "TcpTransport assumes a little-endian host");

namespace scmd {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// The rank-0-rooted collective protocol rides on the reserved
/// tags::kCollective channel; user tags must stay below it.
using tags::kCollective;

/// Sanity bound on a single frame — anything larger is a corrupt header.
constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 32;

/// Wire header of every mesh frame: u32 tag, u64 payload length.
constexpr std::size_t kHeaderBytes = 12;

/// Sanity bound on a rendezvous message (a P-entry address table).
constexpr std::uint32_t kMaxRendezvousBytes = 1u << 20;

std::string errno_str() { return std::strerror(errno); }

std::uint64_t elapsed_ns(SteadyClock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now() - t0)
          .count());
}

sockaddr_in resolve(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (host.empty() || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    return addr;
  }
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  SCMD_REQUIRE(rc == 0 && res != nullptr,
               "cannot resolve host '" + host + "': " + gai_strerror(rc));
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return addr;
}

/// Dial host:port, retrying with exponential backoff until `deadline`.
int connect_with_retry(const std::string& host, int port,
                       SteadyClock::time_point deadline) {
  const sockaddr_in addr = resolve(host, port);
  auto backoff = std::chrono::milliseconds(20);
  std::string last_error = "timed out before first attempt";
  do {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    SCMD_REQUIRE(fd >= 0, "socket(): " + errno_str());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      set_nodelay(fd);
      return fd;
    }
    last_error = errno_str();
    ::close(fd);
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(500));
  } while (SteadyClock::now() < deadline);
  SCMD_REQUIRE(false, "connect to " + host + ":" + std::to_string(port) +
                          " failed: " + last_error);
  return -1;
}

/// Accept one connection before `deadline` or throw.
int accept_with_deadline(int listen_fd, SteadyClock::time_point deadline) {
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - SteadyClock::now());
    SCMD_REQUIRE(remaining.count() > 0,
                 "timed out waiting for a peer connection");
    pollfd pfd{listen_fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (rc < 0 && errno == EINTR) continue;
    SCMD_REQUIRE(rc >= 0, "poll(): " + errno_str());
    if (rc == 0) continue;  // re-check the deadline
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0 && (errno == EINTR || errno == ECONNABORTED)) continue;
    SCMD_REQUIRE(fd >= 0, "accept(): " + errno_str());
    set_nodelay(fd);
    return fd;
  }
}

/// One rendezvous message (an announcement or the address table), sent
/// as one u32-length-prefixed frame.
Bytes recv_rendezvous(int fd, const char* what) {
  Bytes msg;
  SCMD_REQUIRE(recv_frame(fd, &msg, kMaxRendezvousBytes),
               std::string("rendezvous: connection dropped while reading ") +
                   what);
  return msg;
}

}  // namespace

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool send_all(int fd, const void* head, std::size_t head_size,
              const void* body, std::size_t body_size) {
  iovec iov[2] = {{const_cast<void*>(head), head_size},
                  {const_cast<void*>(body), body_size}};
  iovec* next = iov;
  std::size_t count = body_size > 0 ? 2 : 1;
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Skip what the kernel took; resume mid-iovec after a short write.
    auto left = static_cast<std::size_t>(n);
    while (count > 0 && left >= next->iov_len) {
      left -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + left;
      next->iov_len -= left;
    }
  }
  return true;
}

bool recv_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::recv(fd, p, size, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool send_frame(int fd, const void* data, std::size_t size) {
  SCMD_REQUIRE(size <= std::numeric_limits<std::uint32_t>::max(),
               "frame of " + std::to_string(size) +
                   " bytes overflows its u32 length prefix");
  const auto len = static_cast<std::uint32_t>(size);
  return send_all(fd, &len, sizeof(len), data, size);
}

bool recv_frame(int fd, Bytes* payload, std::uint32_t max_bytes) {
  std::uint32_t len = 0;
  if (!recv_all(fd, &len, sizeof(len))) return false;
  SCMD_REQUIRE(len <= max_bytes,
               "frame announces " + std::to_string(len) + " bytes (limit " +
                   std::to_string(max_bytes) + ") — protocol violation");
  payload->resize(len);
  return recv_all(fd, payload->data(), len);
}

std::pair<int, int> bind_listener(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SCMD_REQUIRE(fd >= 0, "socket(): " + errno_str());
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = resolve(host, port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 128) != 0) {
    const std::string err = errno_str();
    ::close(fd);
    SCMD_REQUIRE(false, "cannot listen on " + host + ":" +
                            std::to_string(port) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  SCMD_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
                   0,
               "getsockname(): " + errno_str());
  return {fd, static_cast<int>(ntohs(bound.sin_port))};
}

TcpTransport::TcpTransport(const TcpConfig& config) : config_(config) {
  SCMD_REQUIRE(config_.num_ranks >= 1, "tcp transport needs >= 1 rank");
  SCMD_REQUIRE(config_.rank >= 0 && config_.rank < config_.num_ranks,
               "tcp rank out of range");
  const int P = config_.num_ranks;
  {
    // Single-threaded here, but the analysis doesn't know that.
    MutexLock lk(inbox_.m);
    inbox_.peer_dead.assign(static_cast<std::size_t>(P), 0);
  }
  peers_.resize(static_cast<std::size_t>(P));
  if (P == 1) return;  // no wire, only the self lane

  SCMD_REQUIRE(config_.rendezvous_port > 0 || config_.rendezvous_fd >= 0,
               "tcp transport needs a rendezvous port");
  const auto [listen_fd, listen_port] = bind_listener("0.0.0.0", 0);
  std::vector<std::string> hosts(static_cast<std::size_t>(P));
  std::vector<int> ports(static_cast<std::size_t>(P), 0);
  try {
    rendezvous(listen_port, hosts, ports);
    connect_mesh(listen_fd, hosts, ports);
  } catch (...) {
    ::close(listen_fd);
    for (auto& p : peers_) {
      if (p && p->fd >= 0) ::close(p->fd);
    }
    throw;
  }
  ::close(listen_fd);

  for (int r = 0; r < P; ++r) {
    if (r == config_.rank) continue;
    Peer& peer = *peers_[static_cast<std::size_t>(r)];
    peer.reader = std::thread([this, r] { reader_loop(r); });
    peer.writer = std::thread([this, r] { writer_loop(r); });
  }
}

void TcpTransport::rendezvous(int listen_port, std::vector<std::string>& hosts,
                              std::vector<int>& ports) {
  const int P = config_.num_ranks;
  const auto deadline =
      SteadyClock::now() +
      std::chrono::milliseconds(
          static_cast<long long>(config_.connect_timeout_s * 1000.0));
  if (config_.rank == 0) {
    int rfd = config_.rendezvous_fd;
    if (rfd < 0)
      rfd = bind_listener(config_.rendezvous_host, config_.rendezvous_port)
                .first;
    hosts[0] = config_.advertise_host;
    ports[0] = listen_port;
    std::vector<int> conns;
    conns.reserve(static_cast<std::size_t>(P - 1));
    try {
      // Collect every rank's announcement: {rank, listener port, host}.
      for (int i = 0; i < P - 1; ++i) {
        const int fd = accept_with_deadline(rfd, deadline);
        conns.push_back(fd);
        const Bytes hello = recv_rendezvous(fd, "an announcement");
        ByteReader in(hello);
        const auto r = static_cast<int>(in.pod<std::uint32_t>());
        SCMD_REQUIRE(r > 0 && r < P && ports[static_cast<std::size_t>(r)] == 0,
                     "rendezvous: invalid or duplicate rank " +
                         std::to_string(r));
        ports[static_cast<std::size_t>(r)] =
            static_cast<int>(in.pod<std::uint32_t>());
        hosts[static_cast<std::size_t>(r)] = in.string();
      }
      // Broadcast the completed address table.
      ByteWriter w;
      for (int r = 0; r < P; ++r) {
        const auto at = static_cast<std::size_t>(r);
        w.pod(static_cast<std::uint32_t>(ports[at]));
        w.string(hosts[at]);
      }
      const Bytes& table = w.bytes();
      for (const int fd : conns)
        SCMD_REQUIRE(send_frame(fd, table.data(), table.size()),
                     "rendezvous: failed to send the address table");
    } catch (...) {
      for (const int fd : conns) ::close(fd);
      ::close(rfd);
      throw;
    }
    for (const int fd : conns) ::close(fd);
    ::close(rfd);
    return;
  }
  // Ranks 1..P-1: announce ourselves, receive the table.
  const int fd = connect_with_retry(config_.rendezvous_host,
                                    config_.rendezvous_port, deadline);
  try {
    ByteWriter hello;
    hello.pod(static_cast<std::uint32_t>(config_.rank));
    hello.pod(static_cast<std::uint32_t>(listen_port));
    hello.string(config_.advertise_host);
    SCMD_REQUIRE(send_frame(fd, hello.bytes().data(), hello.bytes().size()),
                 "rendezvous: failed to announce to rank 0");
    const Bytes table = recv_rendezvous(fd, "the address table");
    ByteReader in(table);
    for (int r = 0; r < P; ++r) {
      ports[static_cast<std::size_t>(r)] =
          static_cast<int>(in.pod<std::uint32_t>());
      hosts[static_cast<std::size_t>(r)] = in.string();
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

void TcpTransport::connect_mesh(int listen_fd,
                                const std::vector<std::string>& hosts,
                                const std::vector<int>& ports) {
  const auto deadline =
      SteadyClock::now() +
      std::chrono::milliseconds(
          static_cast<long long>(config_.connect_timeout_s * 1000.0));
  // Dial every higher rank's listener (its listener exists since before
  // the rendezvous, so the connection parks in its backlog at worst).
  for (int r = config_.rank + 1; r < config_.num_ranks; ++r) {
    const int fd = connect_with_retry(hosts[static_cast<std::size_t>(r)],
                                      ports[static_cast<std::size_t>(r)],
                                      deadline);
    const auto me = static_cast<std::uint32_t>(config_.rank);
    SCMD_REQUIRE(send_all(fd, &me, sizeof(me)), "mesh handshake send failed");
    auto peer = std::make_unique<Peer>();
    peer->fd = fd;
    peers_[static_cast<std::size_t>(r)] = std::move(peer);
  }
  // Accept one connection from every lower rank.
  for (int i = 0; i < config_.rank; ++i) {
    const int fd = accept_with_deadline(listen_fd, deadline);
    std::uint32_t from = 0;
    SCMD_REQUIRE(recv_all(fd, &from, sizeof(from)),
                 "connection dropped while reading a mesh handshake");
    const auto r = static_cast<int>(from);
    SCMD_REQUIRE(r >= 0 && r < config_.rank &&
                     peers_[static_cast<std::size_t>(r)] == nullptr,
                 "mesh handshake: invalid or duplicate rank " +
                     std::to_string(r));
    auto peer = std::make_unique<Peer>();
    peer->fd = fd;
    peers_[static_cast<std::size_t>(r)] = std::move(peer);
  }
}

TcpTransport::~TcpTransport() {
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    Peer* peer = peers_[r].get();
    if (peer == nullptr) continue;
    {
      MutexLock lk(peer->m);
      peer->closing = true;
    }
    peer->cv.notify_all();
    if (peer->writer.joinable()) peer->writer.join();  // flushes the outbox
    // FIN after the flushed data; our blocked reader wakes with EOF.
    ::shutdown(peer->fd, SHUT_RDWR);
    if (peer->reader.joinable()) peer->reader.join();
    ::close(peer->fd);
  }
}

void TcpTransport::deposit(int src, int tag, Bytes payload) {
  {
    MutexLock lk(inbox_.m);
    inbox_.queues[{src, tag}].push_back(std::move(payload));
    ++inbox_.depth;
    if (inbox_.depth > inbox_.high_water) inbox_.high_water = inbox_.depth;
  }
  inbox_.cv.notify_all();
}

void TcpTransport::mark_peer_dead(int src) {
  Peer* peer = peers_[static_cast<std::size_t>(src)].get();
  if (peer != nullptr) {
    peer->dead.store(true);
    peer->cv.notify_all();
  }
  {
    MutexLock lk(inbox_.m);
    inbox_.peer_dead[static_cast<std::size_t>(src)] = 1;
  }
  inbox_.cv.notify_all();
}

void TcpTransport::reader_loop(int src) {
  const int fd = peers_[static_cast<std::size_t>(src)]->fd;
  for (;;) {
    Bytes header(kHeaderBytes);
    if (!recv_all(fd, header.data(), header.size())) break;
    ByteReader in(header);
    const auto tag = static_cast<int>(in.pod<std::uint32_t>());
    const auto len = in.pod<std::uint64_t>();
    if (len > kMaxFrameBytes) break;  // corrupt header; drop the peer
    Bytes payload(len);
    if (!recv_all(fd, payload.data(), payload.size())) break;
    deposit(src, tag, std::move(payload));
  }
  mark_peer_dead(src);
}

void TcpTransport::writer_loop(int dst) {
  Peer& peer = *peers_[static_cast<std::size_t>(dst)];
  MutexLock lk(peer.m);
  for (;;) {
    while (peer.outbox.empty() && !peer.closing && !peer.dead.load())
      peer.cv.wait(peer.m);
    if (peer.dead.load()) return;
    if (peer.outbox.empty()) {
      if (peer.closing) return;
      continue;
    }
    auto [tag, payload] = std::move(peer.outbox.front());
    peer.outbox.pop_front();
    lk.unlock();
    ByteWriter header;
    header.pod(static_cast<std::uint32_t>(tag));
    header.pod(static_cast<std::uint64_t>(payload.size()));
    const bool ok = send_all(peer.fd, header.bytes().data(), kHeaderBytes,
                             payload.data(), payload.size());
    if (!ok) {
      mark_peer_dead(dst);
      return;
    }
    lk.lock();
  }
}

void TcpTransport::send(int dst, int tag, Bytes payload) {
  SCMD_REQUIRE(dst >= 0 && dst < config_.num_ranks, "send to invalid rank");
  SCMD_REQUIRE(tag >= 0 && tag < kCollective,
               "tag " + std::to_string(tag) + " is reserved");
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(payload.size(), std::memory_order_relaxed);
  if (dst == config_.rank) {
    deposit(dst, tag, std::move(payload));
    return;
  }
  Peer& peer = *peers_[static_cast<std::size_t>(dst)];
  SCMD_REQUIRE(!peer.dead.load(), "send to rank " + std::to_string(dst) +
                                      ": connection lost");
  {
    MutexLock lk(peer.m);
    peer.outbox.emplace_back(tag, std::move(payload));
  }
  peer.cv.notify_all();
}

Bytes TcpTransport::recv(int src, int tag) {
  SCMD_REQUIRE(src >= 0 && src < config_.num_ranks, "recv from invalid rank");
  const bool bounded = config_.recv_timeout_s > 0.0;
  const auto deadline =
      SteadyClock::now() +
      std::chrono::milliseconds(
          static_cast<long long>(config_.recv_timeout_s * 1000.0));
  const auto t0 = SteadyClock::now();
  MutexLock lk(inbox_.m);
  auto& q = inbox_.queues[{src, tag}];
  for (;;) {
    if (!q.empty()) {
      Bytes out = std::move(q.front());
      q.pop_front();
      --inbox_.depth;
      messages_received_.fetch_add(1, std::memory_order_relaxed);
      bytes_received_.fetch_add(out.size(), std::memory_order_relaxed);
      recv_stall_ns_.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
      return out;
    }
    // Dead peer with an empty queue: nothing more can ever arrive.
    SCMD_REQUIRE(!inbox_.peer_dead[static_cast<std::size_t>(src)],
                 "recv from rank " + std::to_string(src) +
                     ": connection lost (peer died?)");
    if (bounded) {
      SCMD_REQUIRE(SteadyClock::now() < deadline,
                   "recv from rank " + std::to_string(src) + " tag " +
                       std::to_string(tag) + " timed out after " +
                       std::to_string(config_.recv_timeout_s) + " s");
      inbox_.cv.wait_until(inbox_.m, deadline);
    } else {
      inbox_.cv.wait(inbox_.m);
    }
  }
}

double TcpTransport::reduce(double value, bool is_max) {
  // Rank-0-rooted reduce + broadcast on the reserved tag.  All ranks
  // enter collectives in the same order and per-(src, dst, tag) FIFO
  // holds, so consecutive collectives cannot interleave.
  const int P = config_.num_ranks;
  if (P == 1) return value;
  auto pack1 = [](double v) { return pack(std::vector<double>{v}); };
  auto post = [this](int dst, Bytes b) {
    // Bypass the public-tag check; stats still count the traffic.
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(b.size(), std::memory_order_relaxed);
    Peer& peer = *peers_[static_cast<std::size_t>(dst)];
    SCMD_REQUIRE(!peer.dead.load(), "collective: connection to rank " +
                                        std::to_string(dst) + " lost");
    {
      MutexLock lk(peer.m);
      peer.outbox.emplace_back(kCollective, std::move(b));
    }
    peer.cv.notify_all();
  };
  auto fetch = [this](int src) {
    // recv() validates only the rank, not the tag, so reuse it directly.
    const std::vector<double> v = unpack<double>(recv_internal(src));
    SCMD_REQUIRE(v.size() == 1, "collective: malformed reduction frame");
    return v[0];
  };
  if (config_.rank == 0) {
    double acc = value;
    for (int r = 1; r < P; ++r) {
      const double v = fetch(r);
      acc = is_max ? std::max(acc, v) : acc + v;
    }
    const Bytes result = pack1(acc);
    for (int r = 1; r < P; ++r) post(r, result);
    return acc;
  }
  post(0, pack1(value));
  return fetch(0);
}

Bytes TcpTransport::recv_internal(int src) {
  // recv() only rejects out-of-range ranks, so the reserved tag can ride
  // through it and inherit the timeout/fault behavior.
  return recv(src, kCollective);
}

void TcpTransport::barrier() { reduce(0.0, false); }

double TcpTransport::allreduce_sum(double value) {
  return reduce(value, false);
}

double TcpTransport::allreduce_max(double value) {
  return reduce(value, true);
}

TransportStats TcpTransport::stats() const {
  TransportStats s;
  s.messages_sent = messages_sent_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.messages_received = messages_received_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.recv_stall_ns = recv_stall_ns_.load(std::memory_order_relaxed);
  MutexLock lk(inbox_.m);
  s.max_mailbox_depth = inbox_.high_water;
  return s;
}

void TcpTransport::hard_kill() {
  killed_.store(true);
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    Peer* peer = peers_[r].get();
    if (peer == nullptr) continue;
    peer->dead.store(true);
    ::shutdown(peer->fd, SHUT_RDWR);
    peer->cv.notify_all();
  }
  {
    MutexLock lk(inbox_.m);
    for (auto& dead : inbox_.peer_dead) dead = 1;
  }
  inbox_.cv.notify_all();
}

}  // namespace scmd
