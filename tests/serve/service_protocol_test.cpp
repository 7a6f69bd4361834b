// Service-protocol contract (docs/SERVICE.md), in the transport-
// semantics style: the same suite runs against an inproc warm pool and
// a loopback TCP pool.  Covers the full session surface — submit /
// poll / stream / cancel / jobs / shutdown — plus the reject paths
// (bad config, resource caps, unknown jobs, malformed and oversized
// frames) and the acceptance scenario: one warm pool serving two
// concurrent jobs and a cancel without a restart.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/tcp.hpp"
#include "pool_harness.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "support/error.hpp"

namespace scmd::serve_test {
namespace {

using serve::ChunkMsg;
using serve::ClientConnection;
using serve::JobState;
using serve::JobStatus;
using serve::MsgType;
using serve::StreamEnd;
using serve::SubmitRequest;

std::int64_t submit_config(ClientConnection& conn, const std::string& config,
                           int priority = 0, bool want_checkpoint = false,
                           std::int64_t resume_job = 0) {
  SubmitRequest req;
  req.config_text = config;
  req.priority = priority;
  req.want_checkpoint = want_checkpoint;
  req.resume_job = resume_job;
  return conn.submit(req);
}

/// Raw TCP connection for speaking deliberately broken protocol.
int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

class ServiceProtocolTest : public ::testing::TestWithParam<Backend> {};

TEST_P(ServiceProtocolTest, SubmitPollStreamDone) {
  ServicePool pool(GetParam(), 3);
  ClientConnection conn("127.0.0.1", pool.client_port());

  const auto id = submit_config(conn, lj_job(/*steps=*/5));
  EXPECT_GT(id, 0);
  const JobStatus st = wait_terminal(conn, id);
  EXPECT_EQ(st.state, JobState::kDone);
  EXPECT_EQ(st.steps_done, 5);
  EXPECT_EQ(st.steps_total, 5);
  EXPECT_GT(st.chunks, 0);
  EXPECT_TRUE(std::isfinite(st.potential_energy));

  // The closed stream replays every retained chunk, densely numbered
  // from 0, then delivers the terminal marker.
  std::vector<ChunkMsg> chunks;
  const StreamEnd end = conn.stream(
      id, 0, [&chunks](const ChunkMsg& c) { chunks.push_back(c); });
  EXPECT_EQ(end.job_id, id);
  EXPECT_EQ(end.state, JobState::kDone);
  EXPECT_TRUE(end.error.empty());
  ASSERT_EQ(static_cast<std::int64_t>(chunks.size()), st.chunks);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].seq, static_cast<std::int64_t>(i));
    EXPECT_EQ(chunks[i].job_id, id);
    EXPECT_EQ(chunks[i].kind, serve::ChunkKind::kMetrics);
    EXPECT_FALSE(chunks[i].payload.empty());
  }

  // from_seq skips the replayed prefix.
  std::size_t tail = 0;
  conn.stream(id, 2, [&tail](const ChunkMsg&) { ++tail; });
  EXPECT_EQ(tail, chunks.size() - 2);

  pool.shutdown_and_join();
}

TEST_P(ServiceProtocolTest, CancelRunningJobAndPoolSurvives) {
  ServicePool pool(GetParam(), 3);
  ClientConnection conn("127.0.0.1", pool.client_port());

  const auto id = submit_config(
      conn, lj_job(/*steps=*/2000000, /*ranks=*/2, /*atoms=*/256,
                   "metrics_every = 1000\n"));
  ASSERT_EQ(wait_started(conn, id).state, JobState::kRunning);
  conn.cancel(id);
  const JobStatus st = wait_terminal(conn, id);
  EXPECT_EQ(st.state, JobState::kCancelled);
  EXPECT_TRUE(st.pool_ranks.empty());

  // The pool keeps serving: the freed ranks run the next job.
  const auto next = submit_config(conn, lj_job(/*steps=*/3));
  EXPECT_EQ(wait_terminal(conn, next).state, JobState::kDone);

  pool.shutdown_and_join();
}

/// The acceptance scenario: one warm pool, two jobs running
/// side-by-side on disjoint rank subsets, a queued job cancelled, both
/// runners cancelled, and the pool still serving afterwards — no
/// restart anywhere.
TEST_P(ServiceProtocolTest, ConcurrentJobsSpaceShareThePool) {
  ServicePool pool(GetParam(), 5);  // 4 workers
  ClientConnection conn("127.0.0.1", pool.client_port());

  const std::string long_job = lj_job(
      /*steps=*/2000000, /*ranks=*/2, /*atoms=*/256, "metrics_every = 1000\n");
  const auto a = submit_config(conn, long_job);
  const auto b = submit_config(conn, long_job);
  const JobStatus sa = wait_started(conn, a);
  const JobStatus sb = wait_started(conn, b);
  ASSERT_EQ(sa.state, JobState::kRunning);
  ASSERT_EQ(sb.state, JobState::kRunning);
  // Disjoint subsets: space sharing, not time sharing.
  for (const int ra : sa.pool_ranks) {
    for (const int rb : sb.pool_ranks) EXPECT_NE(ra, rb);
  }

  // No free ranks left: a third job queues, and a queued cancel is
  // immediate.
  const auto c = submit_config(conn, long_job);
  EXPECT_EQ(conn.poll(c).state, JobState::kQueued);
  EXPECT_EQ(conn.cancel(c).state, JobState::kCancelled);

  conn.cancel(a);
  conn.cancel(b);
  EXPECT_EQ(wait_terminal(conn, a).state, JobState::kCancelled);
  EXPECT_EQ(wait_terminal(conn, b).state, JobState::kCancelled);

  const auto d = submit_config(conn, lj_job(/*steps=*/3));
  EXPECT_EQ(wait_terminal(conn, d).state, JobState::kDone);

  const std::string table = conn.jobs();
  EXPECT_NE(table.find("\"jobs\":["), std::string::npos) << table;
  EXPECT_NE(table.find("\"state\":\"done\""), std::string::npos) << table;
  EXPECT_NE(table.find("\"state\":\"cancelled\""), std::string::npos)
      << table;

  pool.shutdown_and_join();
}

TEST_P(ServiceProtocolTest, WalltimeCapFailsTheJob) {
  ServicePool pool(GetParam(), 3);
  ClientConnection conn("127.0.0.1", pool.client_port());

  const auto id = submit_config(
      conn, lj_job(/*steps=*/2000000, /*ranks=*/2, /*atoms=*/256,
                   "metrics_every = 1000\nwalltime_s = 0.2\n"));
  const JobStatus st = wait_terminal(conn, id);
  EXPECT_EQ(st.state, JobState::kFailed);
  EXPECT_NE(st.error.find("walltime"), std::string::npos) << st.error;

  // A failed job is isolated: the pool serves the next one.
  const auto next = submit_config(conn, lj_job(/*steps=*/3));
  EXPECT_EQ(wait_terminal(conn, next).state, JobState::kDone);

  pool.shutdown_and_join();
}

TEST_P(ServiceProtocolTest, SubmitRejectsBadConfigs) {
  ServicePool pool(GetParam(), 3);
  ClientConnection conn("127.0.0.1", pool.client_port());

  // Unknown field, unknown key, bad rank demand: all kError replies
  // that leave the connection usable.
  EXPECT_THROW(submit_config(conn, "field = nosuch\n"), Error);
  EXPECT_THROW(submit_config(conn, "field = lj\nbogus_key = 1\n"), Error);
  EXPECT_THROW(submit_config(conn, lj_job(5, /*ranks=*/9)), Error);
  EXPECT_THROW(submit_config(conn, lj_job(5, /*ranks=*/1)), Error);
  // Resume needs a daemon dir (this pool has none).
  EXPECT_THROW(
      submit_config(conn, lj_job(5), 0, false, /*resume_job=*/1), Error);
  // Unknown job ids.
  EXPECT_THROW(conn.poll(12345), Error);

  const auto id = submit_config(conn, lj_job(/*steps=*/3));
  EXPECT_EQ(wait_terminal(conn, id).state, JobState::kDone);

  pool.shutdown_and_join();
}

TEST_P(ServiceProtocolTest, ResourceCapsRejectOversizedJobs) {
  serve::DaemonConfig cfg;
  cfg.limits.max_atoms = 100;
  cfg.limits.max_steps = 50;
  ServicePool pool(GetParam(), 3, cfg);
  ClientConnection conn("127.0.0.1", pool.client_port());

  try {
    submit_config(conn, lj_job(/*steps=*/5, /*ranks=*/2, /*atoms=*/256));
    FAIL() << "atom cap not enforced";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("atom"), std::string::npos)
        << e.what();
  }
  try {
    submit_config(conn, lj_job(/*steps=*/500, /*ranks=*/2, /*atoms=*/64));
    FAIL() << "step cap not enforced";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("step"), std::string::npos)
        << e.what();
  }

  const auto ok = submit_config(conn, lj_job(/*steps=*/3, 2, /*atoms=*/64));
  EXPECT_EQ(wait_terminal(conn, ok).state, JobState::kDone);

  pool.shutdown_and_join();
}

TEST_P(ServiceProtocolTest, ResumeByJobId) {
  const TempDir dir = make_temp_dir();
  serve::DaemonConfig cfg;
  cfg.dir = dir.path();
  ServicePool pool(GetParam(), 3, cfg);
  ClientConnection conn("127.0.0.1", pool.client_port());

  const std::string config =
      lj_job(/*steps=*/4, 2, 256, "checkpoint_every = 2\n");
  const auto first = submit_config(conn, config);
  ASSERT_EQ(wait_terminal(conn, first).state, JobState::kDone);

  // Resume extends the original job's snapshot lineage: the second job
  // restores the newest snapshot and finishes the same step budget.
  const auto resumed =
      submit_config(conn, config, 0, false, /*resume_job=*/first);
  const JobStatus st = wait_terminal(conn, resumed);
  EXPECT_EQ(st.state, JobState::kDone);
  EXPECT_EQ(st.steps_done, 4);

  // Resuming a job that never checkpointed is a submit-time reject.
  const auto plain = submit_config(conn, lj_job(/*steps=*/2));
  ASSERT_EQ(wait_terminal(conn, plain).state, JobState::kDone);
  EXPECT_THROW(submit_config(conn, config, 0, false, /*resume_job=*/999),
               Error);

  pool.shutdown_and_join();
}

TEST_P(ServiceProtocolTest, MalformedFramesGetErrorRepliesNotCrashes) {
  ServicePool pool(GetParam(), 3);

  {
    // Garbage magic: kError reply, connection dropped.
    const int fd = raw_connect(pool.client_port());
    const unsigned char junk[8] = {0xAB, 0xAB, 0xAB, 0xAB,
                                   0xAB, 0xAB, 0xAB, 0xAB};
    ASSERT_TRUE(send_frame(fd, junk, sizeof(junk)));
    Bytes payload;
    ASSERT_TRUE(serve::read_frame_payload(fd, &payload));
    EXPECT_EQ(serve::decode_frame(payload).type, MsgType::kError);
    EXPECT_FALSE(serve::read_frame_payload(fd, &payload));  // dropped
    ::close(fd);
  }
  {
    // Oversized announced length: unresynchronizable, kError + drop.
    const int fd = raw_connect(pool.client_port());
    const std::uint32_t huge = serve::kMaxFrameBytes + 1;
    ASSERT_TRUE(send_all(fd, &huge, sizeof(huge)));
    Bytes payload;
    ASSERT_TRUE(serve::read_frame_payload(fd, &payload));
    EXPECT_EQ(serve::decode_frame(payload).type, MsgType::kError);
    ::close(fd);
  }
  {
    // Well-formed frame of an unexpected type: kError, connection kept.
    const int fd = raw_connect(pool.client_port());
    ASSERT_TRUE(
        serve::write_frame(fd, MsgType::kStatus, serve::encode_status({})));
    Bytes payload;
    ASSERT_TRUE(serve::read_frame_payload(fd, &payload));
    EXPECT_EQ(serve::decode_frame(payload).type, MsgType::kError);
    ASSERT_TRUE(serve::write_frame(fd, MsgType::kJobs, Bytes{}));
    ASSERT_TRUE(serve::read_frame_payload(fd, &payload));
    EXPECT_EQ(serve::decode_frame(payload).type, MsgType::kJobsInfo);
    ::close(fd);
  }

  // None of it hurt the daemon: a real client still gets served.
  ClientConnection conn("127.0.0.1", pool.client_port());
  const auto id = submit_config(conn, lj_job(/*steps=*/3));
  EXPECT_EQ(wait_terminal(conn, id).state, JobState::kDone);

  pool.shutdown_and_join();
}

INSTANTIATE_TEST_SUITE_P(Backends, ServiceProtocolTest,
                         ::testing::Values(Backend::kInProc, Backend::kTcp),
                         backend_name);

}  // namespace
}  // namespace scmd::serve_test
