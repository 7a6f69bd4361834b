#include "net/status_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>

#include "net/tcp.hpp"
#include "support/error.hpp"

namespace scmd {

namespace {

/// A status request larger than this is a confused client, not a
/// request.
constexpr std::uint32_t kMaxRequestBytes = 1 << 16;

}  // namespace

StatusServer::StatusServer(int port) {
  const auto [fd, bound] = bind_listener("0.0.0.0", port);
  listen_fd_ = fd;
  port_ = bound;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

StatusServer::~StatusServer() { stop(); }

void StatusServer::publish(std::string json) {
  publish("status", std::move(json));
}

void StatusServer::publish(const std::string& channel, std::string json) {
  const MutexLock lock(snapshot_mu_);
  snapshots_[channel] = std::move(json);
}

void StatusServer::accept_loop() {
  while (running_.load()) {
    // Short poll so stop() is observed promptly even with no clients.
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    set_nodelay(fd);
    const MutexLock lock(conn_mu_);
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve(fd); });
  }
}

void StatusServer::serve(int fd) {
  while (running_.load()) {
    Bytes request;
    try {
      if (!recv_frame(fd, &request, kMaxRequestBytes)) break;
    } catch (const Error&) {
      break;  // oversized request: a confused client, drop it
    }
    std::string channel(reinterpret_cast<const char*>(request.data()),
                        request.size());
    if (channel.empty()) channel = "status";
    std::string reply = "{}";
    {
      const MutexLock lock(snapshot_mu_);
      const auto it = snapshots_.find(channel);
      if (it != snapshots_.end()) reply = it->second;
    }
    if (!send_frame(fd, reply.data(), reply.size())) break;
  }
  ::close(fd);
}

void StatusServer::stop() {
  if (!running_.exchange(false)) return;
  // Unblock serve() threads stuck in recv by half-closing their sockets;
  // serve() owns the close itself.
  {
    const MutexLock lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // The accept loop (the only other writer) is joined; serve() threads
    // never touch conn_threads_, so joining under the lock cannot
    // deadlock.
    const MutexLock lock(conn_mu_);
    for (std::thread& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace scmd
