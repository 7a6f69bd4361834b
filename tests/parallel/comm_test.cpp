#include "parallel/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace scmd {
namespace {

TEST(PackTest, RoundTripsTrivialTypes) {
  const std::vector<int> v{1, -2, 3};
  EXPECT_EQ(unpack<int>(pack(v)), v);
  const std::vector<double> d{1.5, -2.25};
  EXPECT_EQ(unpack<double>(pack(d)), d);
  EXPECT_TRUE(unpack<int>(pack(std::vector<int>{})).empty());
}

TEST(PackTest, UnpackRejectsMisalignedPayload) {
  // A truncated or corrupted frame must fail loudly, not silently drop
  // the tail bytes.
  Bytes bytes(sizeof(double) * 2 + 1);
  EXPECT_THROW(unpack<double>(bytes), Error);
  EXPECT_THROW(unpack<int>(Bytes(3)), Error);
  EXPECT_TRUE(unpack<int>(Bytes{}).empty());
}

TEST(ClusterTest, PointToPointDelivery) {
  run_cluster(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, pack(std::vector<int>{42}));
    } else {
      const auto v = unpack<int>(comm.recv(0, 7));
      ASSERT_EQ(v.size(), 1u);
      EXPECT_EQ(v[0], 42);
    }
  });
}

TEST(ClusterTest, SelfSendWorks) {
  run_cluster(1, [](Comm& comm) {
    comm.send(0, 3, pack(std::vector<int>{5}));
    EXPECT_EQ(unpack<int>(comm.recv(0, 3))[0], 5);
  });
}

TEST(ClusterTest, OrderPreservedPerChannel) {
  run_cluster(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i) comm.send(1, 1, pack(std::vector<int>{i}));
    } else {
      for (int i = 0; i < 20; ++i)
        EXPECT_EQ(unpack<int>(comm.recv(0, 1))[0], i);
    }
  });
}

TEST(ClusterTest, TagsSeparateStreams) {
  run_cluster(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, pack(std::vector<int>{10}));
      comm.send(1, 2, pack(std::vector<int>{20}));
    } else {
      // Receive in reverse tag order.
      EXPECT_EQ(unpack<int>(comm.recv(0, 2))[0], 20);
      EXPECT_EQ(unpack<int>(comm.recv(0, 1))[0], 10);
    }
  });
}

TEST(ClusterTest, AllReduceSum) {
  for (int P : {1, 2, 4, 7}) {
    run_cluster(P, [P](Comm& comm) {
      const double sum = comm.allreduce_sum(comm.rank() + 1.0);
      EXPECT_DOUBLE_EQ(sum, P * (P + 1) / 2.0);
    });
  }
}

TEST(ClusterTest, AllReduceMax) {
  run_cluster(5, [](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())),
                     4.0);
  });
}

TEST(ClusterTest, RepeatedCollectivesStayInSync) {
  run_cluster(4, [](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      const double s = comm.allreduce_sum(1.0);
      EXPECT_DOUBLE_EQ(s, 4.0);
    }
  });
}

TEST(ClusterTest, BarrierSeparatesPhases) {
  std::atomic<int> phase1_count{0};
  run_cluster(4, [&](Comm& comm) {
    phase1_count.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(phase1_count.load(), 4);
  });
}

TEST(ClusterTest, ExceptionInRankPropagates) {
  EXPECT_THROW(run_cluster(1,
                           [](Comm&) {
                             throw Error("rank failure");
                           }),
               Error);

  // With peers blocked on the failed rank — in a receive and in both
  // kinds of collective — the cluster aborts instead of hanging, and the
  // failing rank's error (not a peer's follow-on abort) propagates.
  try {
    run_cluster(4, [](Comm& comm) {
      switch (comm.rank()) {
        case 0:
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          throw Error("rank failure");
        case 1:
          comm.recv(0, 1);
          break;
        case 2:
          comm.barrier();
          break;
        default:
          comm.allreduce_max(1.0);
          break;
      }
    });
    FAIL() << "run_cluster returned despite a failed rank";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank failure"), std::string::npos)
        << e.what();
  }
}

TEST(ClusterTest, AllReduceSumFoldsInRankOrder) {
  // Order-sensitive addends: the rank-order left fold gives 1, while
  // e.g. the arrival order 1, 2, 3, 0 gives 0.  Staggered sleeps make
  // rank 0 arrive last, so an arrival-order sum would be caught.
  const std::vector<double> values{1e16, 1.0, -1e16, 1.0};
  double expected = values[0];
  for (std::size_t r = 1; r < values.size(); ++r) expected += values[r];
  ASSERT_EQ(expected, 1.0);
  run_cluster(4, [&](Comm& comm) {
    const int r = comm.rank();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(r == 0 ? 80 : 20 * r));
    EXPECT_EQ(comm.allreduce_sum(values[static_cast<std::size_t>(r)]),
              expected);
  });
}

TEST(ClusterTest, StatsCountMessagesAndBytes) {
  Cluster cluster(2);
  Comm c0(cluster, 0);
  c0.send(1, 0, Bytes(16));
  c0.send(1, 0, Bytes(8));
  EXPECT_EQ(cluster.transport(0).stats().messages_sent, 2u);
  EXPECT_EQ(cluster.transport(0).stats().bytes_sent, 24u);
}

TEST(ClusterTest, MailboxHighWaterTracksBacklog) {
  // The unbounded-mailbox assumption made visible: the watermark is the
  // deepest any rank's queue of undelivered messages ever got.
  Cluster cluster(2);
  Comm c0(cluster, 0);
  Comm c1(cluster, 1);
  for (int i = 0; i < 5; ++i) c0.send(1, 1, Bytes(4));
  for (int i = 0; i < 5; ++i) c1.recv(0, 1);
  c0.send(1, 1, Bytes(4));  // depth never exceeds 5 again
  c1.recv(0, 1);
  EXPECT_EQ(cluster.mailbox_high_water(1), 5u);
  EXPECT_EQ(cluster.mailbox_high_water(0), 0u);
  EXPECT_EQ(cluster.max_mailbox_depth(), 5u);
  // The per-endpoint statistics view agrees.
  EXPECT_EQ(cluster.transport(1).stats().max_mailbox_depth, 5u);
  EXPECT_EQ(cluster.transport(0).stats().messages_sent, 6u);
  EXPECT_EQ(cluster.transport(1).stats().messages_received, 6u);
}

TEST(ClusterTest, RejectsInvalidRanks) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.send(0, 5, 0, Bytes{}), Error);
  EXPECT_THROW(Cluster(0), Error);
}

}  // namespace
}  // namespace scmd
