// Engine-level invariant checks (docs/CHECKING.md): force balance, tuple
// ownership census, ghost/home consistency, and replay parity — each
// verified to pass on healthy input and to fail loudly on an injected
// bug, both single-rank (null channel) and across a real message-passing
// cluster.

#include "check/engine_checks.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "parallel/check_channel.hpp"
#include "parallel/comm.hpp"
#include "support/error.hpp"

namespace scmd {
namespace {

using check::FailureAction;
using check::InvariantViolation;
using check::Options;

#if defined(SCMD_CHECK_ENABLED)

class EngineChecksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Options o;
    o.enabled = true;
    o.action = FailureAction::kThrow;
    check::set_options(o);
    check::reset_checks_passed();
  }
  void TearDown() override {
    check::set_options(Options{});
    check::bind_rank(-1);
  }
};

// --- force balance ---------------------------------------------------

TEST_F(EngineChecksTest, BalancedForcesPassAndCount) {
  const std::vector<Vec3> f = {{1.0, -2.0, 3.0}, {-1.0, 2.0, -3.0}};
  EXPECT_NO_THROW(check::check_force_balance(nullptr, f));
  EXPECT_EQ(check::checks_passed(), 1u);
}

TEST_F(EngineChecksTest, NetForceViolatesNewtonsThirdLaw) {
  const std::vector<Vec3> f = {{1.0, 0.0, 0.0}, {-1.0, 0.5, 0.0}};
  EXPECT_THROW(check::check_force_balance(nullptr, f), InvariantViolation);
}

TEST_F(EngineChecksTest, TinyFloatingPointResidualIsTolerated) {
  // Residual ~1e-13 of the magnitude scale, well inside force_rel_tol.
  const std::vector<Vec3> f = {{1e4, 0.0, 0.0}, {-1e4 + 1e-9, 0.0, 0.0}};
  EXPECT_NO_THROW(check::check_force_balance(nullptr, f));
}

// --- ghost/home consistency ------------------------------------------

TEST_F(EngineChecksTest, ConsistentGhostsPass) {
  const Box box = Box::cubic(10.0);
  const std::vector<std::int64_t> own_gid = {0, 1};
  const std::vector<Vec3> own_pos = {{1.0, 1.0, 1.0}, {9.5, 5.0, 5.0}};
  // Ghost of atom 1 held in an unwrapped frame one box length away.
  const std::vector<std::int64_t> gh_gid = {1};
  const std::vector<Vec3> gh_pos = {{-0.5, 5.0, 5.0}};
  EXPECT_NO_THROW(check::check_ghost_consistency(
      nullptr, box, own_gid, own_pos, gh_gid, gh_pos, 2));
  EXPECT_EQ(check::checks_passed(), 1u);
}

TEST_F(EngineChecksTest, DriftedGhostFails) {
  const Box box = Box::cubic(10.0);
  const std::vector<std::int64_t> own_gid = {0, 1};
  const std::vector<Vec3> own_pos = {{1.0, 1.0, 1.0}, {9.5, 5.0, 5.0}};
  const std::vector<std::int64_t> gh_gid = {1};
  const std::vector<Vec3> gh_pos = {{-0.5, 5.0, 5.2}};  // 0.2 off
  EXPECT_THROW(check::check_ghost_consistency(nullptr, box, own_gid, own_pos,
                                              gh_gid, gh_pos, 2),
               InvariantViolation);
}

TEST_F(EngineChecksTest, OrphanGhostFails) {
  const Box box = Box::cubic(10.0);
  const std::vector<std::int64_t> own_gid = {0};
  const std::vector<Vec3> own_pos = {{1.0, 1.0, 1.0}};
  const std::vector<std::int64_t> gh_gid = {7};  // nobody owns gid 7
  const std::vector<Vec3> gh_pos = {{2.0, 2.0, 2.0}};
  EXPECT_THROW(check::check_ghost_consistency(nullptr, box, own_gid, own_pos,
                                              gh_gid, gh_pos, -1),
               InvariantViolation);
}

TEST_F(EngineChecksTest, AtomCountMismatchFails) {
  const Box box = Box::cubic(10.0);
  const std::vector<std::int64_t> own_gid = {0, 1};
  const std::vector<Vec3> own_pos = {{1.0, 1.0, 1.0}, {2.0, 2.0, 2.0}};
  EXPECT_THROW(
      check::check_ghost_consistency(nullptr, box, own_gid, own_pos, {}, {},
                                     3),
      InvariantViolation);
}

// --- tuple ownership census ------------------------------------------

TEST_F(EngineChecksTest, DistinctTuplesPass) {
  const std::vector<std::int64_t> flat = {0, 1, 2, /**/ 1, 2, 3};
  EXPECT_NO_THROW(check::check_tuple_ownership(nullptr, 3, flat, 2));
  EXPECT_EQ(check::checks_passed(), 1u);
}

/// Rank 0 of a 2-rank cluster whose peer answers every gather with 13
/// bytes — not a whole number of any gathered record.
class MisalignedPeerChannel final : public check::Channel {
 public:
  int rank() const override { return 0; }
  int num_ranks() const override { return 2; }
  void send(int, Bytes) override {}
  Bytes recv(int) override { return Bytes(13); }
  double allreduce_sum(double value) override { return value; }
  double allreduce_max(double value) override { return value; }
};

TEST_F(EngineChecksTest, MisalignedGatherPayloadThrows) {
  MisalignedPeerChannel ch;
  const std::vector<std::int64_t> flat = {0, 1, 2};
  try {
    check::check_tuple_ownership(&ch, 3, flat, -1);
    FAIL() << "a 13-byte gather payload was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("misaligned payload"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(EngineChecksTest, ReversedChainIsTheSameTupleAndFails) {
  // (0,1,2) and its reversal (2,1,0) name one undirected triplet.
  const std::vector<std::int64_t> flat = {0, 1, 2, /**/ 2, 1, 0};
  EXPECT_THROW(check::check_tuple_ownership(nullptr, 3, flat, -1),
               InvariantViolation);
}

TEST_F(EngineChecksTest, ChainsOverTheSameAtomSetAreDistinctTuples) {
  // A mutually-close triangle yields three distinct chains over one atom
  // set; the census must not merge them (they are different terms).
  const std::vector<std::int64_t> flat = {0, 1, 2, /**/ 1, 0, 2,
                                          /**/ 0, 2, 1};
  EXPECT_NO_THROW(check::check_tuple_ownership(nullptr, 3, flat, 3));
}

TEST_F(EngineChecksTest, TupleCountMismatchAgainstReferenceFails) {
  const std::vector<std::int64_t> flat = {0, 1, /**/ 1, 2};
  EXPECT_THROW(check::check_tuple_ownership(nullptr, 2, flat, 3),
               InvariantViolation);
}

// --- replay parity ----------------------------------------------------

TEST_F(EngineChecksTest, MatchingReplayPasses) {
  const std::vector<Vec3> a = {{1.0, 2.0, 3.0}, {-1.0, -2.0, -3.0}};
  EXPECT_NO_THROW(check::check_replay_parity(nullptr, a, a, -5.0, -5.0));
  EXPECT_EQ(check::checks_passed(), 1u);
}

TEST_F(EngineChecksTest, DivergedReplayForceFails) {
  const std::vector<Vec3> a = {{1.0, 2.0, 3.0}};
  const std::vector<Vec3> b = {{1.0, 2.0, 3.1}};
  EXPECT_THROW(check::check_replay_parity(nullptr, a, b, -5.0, -5.0),
               InvariantViolation);
}

TEST_F(EngineChecksTest, DivergedReplayEnergyFails) {
  const std::vector<Vec3> a = {{1.0, 2.0, 3.0}};
  EXPECT_THROW(check::check_replay_parity(nullptr, a, a, -5.0, -5.001),
               InvariantViolation);
}

// --- collective behavior over a real cluster --------------------------

TEST_F(EngineChecksTest, CrossRankDuplicateOwnershipCaughtOnEveryRank) {
  // Injected ownership bug: ranks 1 and 2 both claim pair (10,11) — rank
  // 2 in reversed orientation.  The reduced verdict must fail *every*
  // rank, not just the inspector.
  std::atomic<int> failures{0};
  run_cluster(4, [&](Comm& comm) {
    CommCheckChannel ch(comm);
    std::vector<std::int64_t> flat;
    if (comm.rank() == 1) flat = {10, 11};
    if (comm.rank() == 2) flat = {11, 10};
    try {
      check::check_tuple_ownership(&ch, 2, flat, -1);
    } catch (const InvariantViolation&) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 4);
}

TEST_F(EngineChecksTest, CrossRankPartitionedTuplesPass) {
  run_cluster(4, [&](Comm& comm) {
    CommCheckChannel ch(comm);
    const std::int64_t base = 10 * comm.rank();
    const std::vector<std::int64_t> flat = {base, base + 1, base + 1,
                                            base + 2};
    check::check_tuple_ownership(&ch, 2, flat, 8);
  });
  EXPECT_GE(check::checks_passed(), 1u);
}

TEST_F(EngineChecksTest, CrossRankForceBalancePassesWhenSumVanishes) {
  run_cluster(4, [&](Comm& comm) {
    CommCheckChannel ch(comm);
    // Each rank holds a nonzero local sum; only the global sum vanishes.
    const double s = comm.rank() < 2 ? 1.0 : -1.0;
    const std::vector<Vec3> f = {{s, 2.0 * s, -s}};
    check::check_force_balance(&ch, f);
  });
}

TEST_F(EngineChecksTest, CrossRankGhostTablesGatherAndVerify) {
  const Box box = Box::cubic(8.0);
  run_cluster(2, [&](Comm& comm) {
    CommCheckChannel ch(comm);
    // Rank r owns atom r; each rank holds the other's atom as a ghost.
    const std::vector<std::int64_t> own_gid = {comm.rank()};
    const std::vector<Vec3> own_pos = {
        {1.0 + 4.0 * comm.rank(), 1.0, 1.0}};
    const std::vector<std::int64_t> gh_gid = {1 - comm.rank()};
    const std::vector<Vec3> gh_pos = {
        {1.0 + 4.0 * (1 - comm.rank()), 1.0, 1.0}};
    check::check_ghost_consistency(&ch, box, own_gid, own_pos, gh_gid,
                                   gh_pos, 2);
  });
  EXPECT_GE(check::checks_passed(), 1u);
}

TEST_F(EngineChecksTest, CollectiveInvariantReportsRemoteViolation) {
  std::atomic<int> remote_reports{0};
  run_cluster(3, [&](Comm& comm) {
    CommCheckChannel ch(comm);
    const bool local_ok = comm.rank() != 2;
    try {
      check::collective_invariant(&ch, local_ok, "local failure on rank 2",
                                  "test invariant");
    } catch (const InvariantViolation& e) {
      const std::string what = e.what();
      if (what.find("another rank") != std::string::npos)
        remote_reports.fetch_add(1);
    }
  });
  // Ranks 0 and 1 fail with the remote-violation message.
  EXPECT_EQ(remote_reports.load(), 2);
}

TEST_F(EngineChecksTest, DisabledChecksAreNoOps) {
  check::set_options(Options{});
  const std::vector<Vec3> f = {{1.0, 0.0, 0.0}};  // blatantly unbalanced
  EXPECT_NO_THROW(check::check_force_balance(nullptr, f));
  const std::vector<std::int64_t> dup = {0, 1, /**/ 0, 1};
  EXPECT_NO_THROW(check::check_tuple_ownership(nullptr, 2, dup, -1));
  EXPECT_EQ(check::checks_passed(), 0u);
}

#endif  // SCMD_CHECK_ENABLED

}  // namespace
}  // namespace scmd
