// Distributed telemetry pipeline end to end (docs/OBSERVABILITY.md):
// clock-offset estimation between endpoints with skewed clocks, the
// 4-rank TCP run whose rank-0 trace is ONE clock-aligned merged
// timeline (one lane per rank, step spans overlapping across lanes),
// live per-step metric reduction, and the status socket protocol (also
// fed by an in-process run).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "md/builders.hpp"
#include "md/units.hpp"
#include "net/clock_sync.hpp"
#include "net/inproc.hpp"
#include "net/status_server.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_engine.hpp"
#include "potentials/vashishta.hpp"
#include "support/rng.hpp"

namespace scmd {
namespace {

double wall_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TEST(ClockSyncTest, RecoversKnownSkewOverInProc) {
  const int P = 3;
  // Rank r's clock runs ahead by r * 40000 us; the offset maps local
  // time into rank 0's timebase, so the estimate must be ~ -skew.
  constexpr double skew_us = 40000.0;
  Cluster cluster(P);
  std::vector<std::vector<ClockEstimate>> est(static_cast<std::size_t>(P));
  std::vector<std::thread> threads;
  for (int r = 0; r < P; ++r) {
    threads.emplace_back([&, r] {
      est[static_cast<std::size_t>(r)] = estimate_clock_offsets(
          cluster.transport(r), [r] { return wall_us() + r * skew_us; });
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(est[0].size(), static_cast<std::size_t>(P));
  EXPECT_TRUE(est[1].empty());  // non-root gets no estimates
  EXPECT_DOUBLE_EQ(est[0][0].offset_us, 0.0);  // root's own clock
  for (int r = 1; r < P; ++r) {
    const ClockEstimate& e = est[0][static_cast<std::size_t>(r)];
    // In-process ping-pong round trips are far tighter than 1 ms.
    EXPECT_NEAR(e.offset_us, -r * skew_us, 1000.0) << r;
    EXPECT_GE(e.uncertainty_us, 0.0);
    EXPECT_LT(e.uncertainty_us, 1000.0);
  }
}

TEST(TelemetryPipelineTest, TcpRunMergesTracesAndReducesMetricsLive) {
  const int P = 4;
  const int steps = 3;
  const auto [rendezvous_fd, rendezvous_port] = bind_listener("127.0.0.1", 0);

  obs::TraceSession merged;
  obs::MetricsRegistry reg;
  std::vector<ParticleSystem> systems;
  for (int r = 0; r < P; ++r) {
    Rng rng(77);
    systems.push_back(make_silica(1500, 2.2, 350.0, rng));
  }
  std::vector<ParallelRunResult> results(static_cast<std::size_t>(P));
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    threads.emplace_back([&, r, rendezvous_fd = rendezvous_fd,
                          rendezvous_port = rendezvous_port] {
      try {
        TcpConfig tcp;
        tcp.rank = r;
        tcp.num_ranks = P;
        tcp.rendezvous_port = rendezvous_port;
        if (r == 0) tcp.rendezvous_fd = rendezvous_fd;
        tcp.recv_timeout_s = 120.0;
        TcpTransport transport(tcp);
        const VashishtaSiO2 field;
        ParallelRunConfig cfg;
        cfg.dt = 1.0 * units::kFemtosecond;
        cfg.num_steps = steps;
        if (r == 0) {  // hooks are honored on rank 0 only
          cfg.trace = &merged;
          cfg.metrics = &reg;
        }
        Comm comm(transport);
        results[static_cast<std::size_t>(r)] = run_parallel_md_rank(
            systems[static_cast<std::size_t>(r)], field, "SC",
            ProcessGrid::factor(P), cfg, comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Live metric reduction left the end-of-run schema in the registry.
  EXPECT_TRUE(reg.has("imbalance.search.ratio"));
  EXPECT_TRUE(reg.has("imbalance.search.max"));
  EXPECT_TRUE(reg.has("comm.transport.bytes_sent"));
  EXPECT_GT(reg.value("comm.transport.messages_sent"), 0.0);
  const auto hists = reg.histogram_names();
  EXPECT_NE(std::find(hists.begin(), hists.end(), "phase_hist.step"),
            hists.end());
  EXPECT_NE(std::find(hists.begin(), hists.end(), "phase_hist.force"),
            hists.end());

  // ONE merged trace: a lane per rank, each with one step span per
  // record, and the k-th step spans mutually overlapping across lanes
  // (lock-step MD; misalignment means the clock mapping is wrong).
  std::map<int, std::vector<obs::TraceEvent>> lanes;
  for (const obs::TraceEvent& e : merged.events()) {
    if (e.name == "step") lanes[e.tid].push_back(e);
  }
  ASSERT_EQ(lanes.size(), static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    ASSERT_TRUE(lanes.count(r)) << r;
    EXPECT_EQ(lanes[r].size(), static_cast<std::size_t>(steps)) << r;
  }
  const double slack_us = 5000.0;  // >> observed loopback offsets
  for (int k = 0; k < steps; ++k) {
    double last_start = 0.0, first_end = 1e300;
    for (int r = 0; r < P; ++r) {
      const obs::TraceEvent& e = lanes[r][static_cast<std::size_t>(k)];
      last_start = std::max(last_start, e.ts_us);
      first_end = std::min(first_end, e.ts_us + e.dur_us);
    }
    EXPECT_LE(last_start, first_end + slack_us) << "step " << k;
  }

  // The physics still agrees across ranks.
  EXPECT_NEAR(results[0].potential_energy, results[3].potential_energy,
              1e-8 * std::abs(results[0].potential_energy));
}

/// Length-prefixed status request over a plain socket (the scmd_top.py
/// protocol, docs/OBSERVABILITY.md).
std::string query_status(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_TRUE(send_frame(fd, nullptr, 0));
  Bytes body;
  EXPECT_TRUE(recv_frame(fd, &body, 1u << 30));
  ::close(fd);
  return std::string(reinterpret_cast<const char*>(body.data()), body.size());
}

TEST(TelemetryPipelineTest, InProcessRunPublishesStatus) {
  // run_parallel_md is the rank driver on threads, so rank 0 publishes
  // collector snapshots to the status socket as in a TCP run.
  StatusServer server(0);
  obs::MetricsRegistry reg;
  Rng rng(77);
  ParticleSystem sys = make_silica(1500, 2.2, 350.0, rng);
  const VashishtaSiO2 field;
  ParallelRunConfig cfg;
  cfg.dt = 1.0 * units::kFemtosecond;
  cfg.num_steps = 3;
  cfg.metrics = &reg;
  cfg.status = &server;
  run_parallel_md(sys, field, "SC", ProcessGrid::factor(2), cfg);
  const std::string status = query_status(server.port());
  EXPECT_NE(status.find("\"num_ranks\":2"), std::string::npos) << status;
  EXPECT_NE(status.find("\"finalized_steps\":4"), std::string::npos)
      << status;
  EXPECT_NE(status.find("\"finished\":true"), std::string::npos) << status;
  server.stop();
}

TEST(StatusServerTest, ServesLatestSnapshotToClients) {
  StatusServer server(0);  // ephemeral port
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(query_status(server.port()), "{}");  // initial snapshot
  server.publish("{\"latest_step\":7}");
  EXPECT_EQ(query_status(server.port()), "{\"latest_step\":7}");
  server.publish("{\"latest_step\":8}");
  EXPECT_EQ(query_status(server.port()), "{\"latest_step\":8}");
  server.stop();
  server.stop();  // idempotent
}

}  // namespace
}  // namespace scmd
