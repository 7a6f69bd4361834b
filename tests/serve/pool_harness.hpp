#pragma once

// Warm-pool harness for the service tests (docs/SERVICE.md): boots a
// ServeDaemon on pool rank 0 plus serve::run_worker on ranks 1..P-1,
// over either the in-process cluster or a loopback TCP mesh — the
// transport-semantics harness shape (tests/net/transport_semantics_
// test.cpp), with a daemon instead of a test body on rank 0.  Tests
// talk to the daemon through serve::ClientConnection against its real
// client socket, so the whole wire path runs even for the inproc pool.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/worker.hpp"
#include "support/error.hpp"

namespace scmd::serve_test {

enum class Backend { kInProc, kTcp };

inline std::string backend_name(
    const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kInProc ? "InProc" : "Tcp";
}

/// One warm pool: `pool_ranks` total ranks, rank 0 the daemon.  The
/// constructor blocks until the daemon's client port is bound.  Tests
/// end with shutdown() + join() so rank-thread exceptions propagate;
/// the destructor is a best-effort fallback that cannot throw.
class ServicePool {
 public:
  ServicePool(Backend backend, int pool_ranks,
              serve::DaemonConfig cfg = serve::DaemonConfig{}) {
    const int P = pool_ranks;
    errors_.resize(static_cast<std::size_t>(P));
    std::promise<int> port_promise;
    std::future<int> port_ready = port_promise.get_future();
    int rendezvous_fd = -1;
    int rendezvous_port = 0;
    if (backend == Backend::kInProc) {
      cluster_ = std::make_unique<Cluster>(P);
    } else {
      std::tie(rendezvous_fd, rendezvous_port) =
          bind_listener("127.0.0.1", 0);
    }
    for (int r = 0; r < P; ++r) {
      threads_.emplace_back([this, backend, P, r, cfg, rendezvous_fd,
                             rendezvous_port, &port_promise] {
        try {
          if (backend == Backend::kInProc) {
            run_rank(r, cluster_->transport(r), cfg, port_promise);
          } else {
            TcpConfig tc;
            tc.rank = r;
            tc.num_ranks = P;
            tc.rendezvous_port = rendezvous_port;
            if (r == 0) tc.rendezvous_fd = rendezvous_fd;
            // A warm pool idles between jobs: never time out pool recvs
            // (dead peers are still detected by socket state).
            tc.recv_timeout_s = 0.0;
            TcpTransport transport(tc);
            run_rank(r, transport, cfg, port_promise);
          }
        } catch (...) {
          errors_[static_cast<std::size_t>(r)] = std::current_exception();
          if (r == 0) {
            try {
              port_promise.set_exception(std::current_exception());
            } catch (const std::future_error&) {
              // The port was already delivered; keep the error for
              // join() instead.
            }
          }
        }
      });
    }
    port_ = port_ready.get();
  }

  ~ServicePool() {
    if (joined_) return;
    try {
      shutdown();
    } catch (...) {
      // The daemon may already be gone; joining is all that's left.
    }
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  ServicePool(const ServicePool&) = delete;
  ServicePool& operator=(const ServicePool&) = delete;

  int client_port() const { return port_; }

  /// Ask the daemon to drain via a throwaway client connection.
  void shutdown() {
    serve::ClientConnection conn("127.0.0.1", port_);
    conn.shutdown();
  }

  /// Join every pool rank and rethrow the first rank failure.
  void join() {
    if (joined_) return;
    joined_ = true;
    for (std::thread& t : threads_) t.join();
    for (const std::exception_ptr& e : errors_) {
      if (e) std::rethrow_exception(e);
    }
  }

  void shutdown_and_join() {
    shutdown();
    join();
  }

 private:
  template <class PortPromise>
  void run_rank(int r, Transport& transport, const serve::DaemonConfig& cfg,
                PortPromise& port_promise) {
    if (r == 0) {
      serve::ServeDaemon daemon(transport, cfg);
      port_promise.set_value(daemon.client_port());
      daemon.run();
    } else {
      serve::run_worker(transport);
    }
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<std::thread> threads_;
  std::vector<std::exception_ptr> errors_;
  int port_ = 0;
  bool joined_ = false;
};

/// A small LJ gas job config (serve/runplan.hpp key set).
inline std::string lj_job(int steps, int ranks = 2, int atoms = 256,
                          const std::string& extra = "") {
  std::ostringstream out;
  out << "field = lj\n"
      << "atoms = " << atoms << "\n"
      << "steps = " << steps << "\n"
      << "ranks = " << ranks << "\n"
      << "seed = 11\n"
      // Conservative timestep: the default dt diverges this hot random
      // gas within ~60 steps, and a diverged job now fails collectively
      // (rank_engine divergence gate) instead of running long — the
      // cancel/disconnect tests need jobs that genuinely keep going.
      << "dt_fs = 0.1\n"
      << extra;
  return out.str();
}

/// Poll until the job reaches a terminal state.
inline serve::JobStatus wait_terminal(serve::ClientConnection& conn,
                                      std::int64_t job_id,
                                      double timeout_s = 180.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    const serve::JobStatus st = conn.poll(job_id);
    if (serve::job_state_terminal(st.state)) return st;
    SCMD_REQUIRE(std::chrono::steady_clock::now() < deadline,
                 "job " + std::to_string(job_id) +
                     " did not reach a terminal state in time");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// Poll until the job leaves the queue (running or terminal).
inline serve::JobStatus wait_started(serve::ClientConnection& conn,
                                     std::int64_t job_id,
                                     double timeout_s = 60.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    const serve::JobStatus st = conn.poll(job_id);
    if (st.state != serve::JobState::kQueued) return st;
    SCMD_REQUIRE(std::chrono::steady_clock::now() < deadline,
                 "job " + std::to_string(job_id) + " never started");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Scratch directory for daemon job artifacts, removed with everything
/// in it when the guard leaves scope.  Declare it before the pool that
/// writes into it so the pool is torn down first.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/scmd_serve_test_XXXXXX";
    char* dir = ::mkdtemp(tmpl.data());
    SCMD_REQUIRE(dir != nullptr, "mkdtemp failed");
    path_ = dir;
  }
  ~TempDir() {
    std::error_code ec;  // best effort: never throw from a destructor
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Fresh scratch directory for daemon job artifacts (see TempDir).
inline TempDir make_temp_dir() { return TempDir(); }

}  // namespace scmd::serve_test
