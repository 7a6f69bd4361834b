// Checkpoint/restore and rank-failure recovery semantics of the
// distributed driver, exercised in-process: a restored run must continue
// the trajectory of an uninterrupted one, and the supervisor must
// survive an injected fault by replaying from the last snapshot.  (The
// real process-kill path over TCP is the app-level kill-and-recover
// test; in-process, a fault surfaces as a thrown error that aborts the
// cluster.)

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/fault.hpp"
#include "md/builders.hpp"
#include "md/units.hpp"
#include "net/inproc.hpp"
#include "parallel/comm.hpp"
#include "parallel/parallel_engine.hpp"
#include "parallel/supervisor.hpp"
#include "potentials/vashishta.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace scmd {
namespace {

constexpr double kDt = 1.0 * units::kFemtosecond;

ParticleSystem build_initial() {
  Rng rng(88);
  return make_silica(1500, 2.2, 350.0, rng);
}

std::string fresh_dir(const std::string& stem) {
  const std::string dir =
      "/tmp/" + stem + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

/// Scoped environment variable (the fault plan is env-driven).
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }

 private:
  const char* name_;
};

/// Run `config` on `ranks` in-process rank threads (run_cluster), rank r
/// on systems[r]; returns every rank's result.
std::vector<ParallelRunResult> run_ranks(
    std::vector<ParticleSystem>& systems, const ParallelRunConfig& config,
    int ranks) {
  const VashishtaSiO2 field;
  std::vector<ParallelRunResult> results(static_cast<std::size_t>(ranks));
  run_cluster(ranks, [&](Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    results[r] = run_parallel_md_rank(systems[r], field, "SC",
                                      ProcessGrid::factor(ranks), config,
                                      comm);
  });
  return results;
}

void expect_positions_match(const ParticleSystem& a, const ParticleSystem& b,
                            double tol) {
  ASSERT_EQ(a.num_atoms(), b.num_atoms());
  for (int i = 0; i < a.num_atoms(); ++i) {
    EXPECT_NEAR(a.positions()[i].x, b.positions()[i].x, tol) << i;
    EXPECT_NEAR(a.positions()[i].y, b.positions()[i].y, tol) << i;
    EXPECT_NEAR(a.positions()[i].z, b.positions()[i].z, tol) << i;
    EXPECT_NEAR(a.velocities()[i].x, b.velocities()[i].x, tol) << i;
  }
}

TEST(RecoveryTest, RestoredRunContinuesTheTrajectory) {
  const int P = 4;
  const std::string dir = fresh_dir("scmd_recovery_restore");

  // Uninterrupted 10-step reference.
  std::vector<ParticleSystem> ref_systems;
  for (int r = 0; r < P; ++r) ref_systems.push_back(build_initial());
  ParallelRunConfig ref_cfg;
  ref_cfg.dt = kDt;
  ref_cfg.num_steps = 10;
  run_ranks(ref_systems, ref_cfg, P);

  // Interrupted run: 6 steps with snapshots every 3.
  std::vector<ParticleSystem> first_systems;
  for (int r = 0; r < P; ++r) first_systems.push_back(build_initial());
  ParallelRunConfig first_cfg = ref_cfg;
  first_cfg.num_steps = 6;
  first_cfg.durability.checkpoint_every = 3;
  first_cfg.durability.checkpoint_dir = dir;
  const auto first = run_ranks(first_systems, first_cfg, P);
  EXPECT_EQ(first[0].snapshots_written, 2);
  EXPECT_EQ(first[0].restored_step, 0);

  // Resumed run: restore the step-6 snapshot, continue to step 10.
  std::vector<ParticleSystem> resumed_systems;
  for (int r = 0; r < P; ++r) resumed_systems.push_back(build_initial());
  ParallelRunConfig resumed_cfg = first_cfg;
  resumed_cfg.num_steps = 10;
  resumed_cfg.durability.restore = true;
  const auto resumed = run_ranks(resumed_systems, resumed_cfg, P);
  EXPECT_EQ(resumed[0].restored_step, 6);

  expect_positions_match(resumed_systems[0], ref_systems[0], 5e-8);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, ExplicitRestorePathWinsOverLatest) {
  const int P = 1;
  const std::string dir = fresh_dir("scmd_recovery_explicit");
  std::vector<ParticleSystem> systems{build_initial()};
  ParallelRunConfig cfg;
  cfg.dt = kDt;
  cfg.num_steps = 4;
  cfg.durability.checkpoint_every = 2;
  cfg.durability.checkpoint_dir = dir;
  run_ranks(systems, cfg, P);  // snapshots at steps 2 and 4

  std::vector<ParticleSystem> resumed{build_initial()};
  ParallelRunConfig rcfg = cfg;
  rcfg.num_steps = 6;
  rcfg.durability.restore = true;
  rcfg.durability.restore_path =
      ckpt::CheckpointDir(dir, 3).path_for_step(2);
  const auto results = run_ranks(resumed, rcfg, P);
  EXPECT_EQ(results[0].restored_step, 2);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, RestoreWithEmptyDirStartsFresh) {
  const std::string dir = fresh_dir("scmd_recovery_fresh");
  std::filesystem::create_directories(dir);
  std::vector<ParticleSystem> systems{build_initial()};
  ParallelRunConfig cfg;
  cfg.dt = kDt;
  cfg.num_steps = 3;
  cfg.durability.checkpoint_every = 2;
  cfg.durability.checkpoint_dir = dir;
  cfg.durability.restore = true;  // nothing to restore yet
  const auto results = run_ranks(systems, cfg, 1);
  EXPECT_EQ(results[0].restored_step, 0);
  EXPECT_GT(results[0].snapshots_written, 0);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, InProcessDriverSnapshotsAndResumes) {
  // run_parallel_md is the rank driver on threads, so it honors the same
  // durability options as a TCP run.
  const int P = 2;
  const VashishtaSiO2 field;
  const std::string dir = fresh_dir("scmd_recovery_inproc");
  ParallelRunConfig ref_cfg;
  ref_cfg.dt = kDt;
  ref_cfg.num_steps = 10;
  ParticleSystem ref = build_initial();
  run_parallel_md(ref, field, "SC", ProcessGrid::factor(P), ref_cfg);

  ParallelRunConfig first_cfg = ref_cfg;
  first_cfg.num_steps = 6;
  first_cfg.durability.checkpoint_every = 3;
  first_cfg.durability.checkpoint_dir = dir;
  ParticleSystem first_sys = build_initial();
  const ParallelRunResult first = run_parallel_md(
      first_sys, field, "SC", ProcessGrid::factor(P), first_cfg);
  EXPECT_EQ(first.snapshots_written, 2);
  EXPECT_TRUE(std::filesystem::exists(
      ckpt::CheckpointDir(dir, 3).path_for_step(6)));

  ParallelRunConfig resumed_cfg = first_cfg;
  resumed_cfg.num_steps = 10;
  resumed_cfg.durability.restore = true;
  ParticleSystem resumed = build_initial();
  const ParallelRunResult res = run_parallel_md(
      resumed, field, "SC", ProcessGrid::factor(P), resumed_cfg);
  EXPECT_EQ(res.restored_step, 6);
  EXPECT_EQ(res.steps_completed, 10);
  expect_positions_match(resumed, ref, 5e-8);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, InProcessDriverStopsOnPollAbort) {
  const int P = 2;
  const int kStop = 4;
  const VashishtaSiO2 field;
  ParallelRunConfig ref_cfg;
  ref_cfg.dt = kDt;
  ref_cfg.num_steps = kStop;
  ParticleSystem ref = build_initial();
  run_parallel_md(ref, field, "SC", ProcessGrid::factor(P), ref_cfg);

  // Every rank thread polls once per step and the per-step collective
  // keeps them in lock step, so the (kStop * P)-th poll is the last one
  // of step kStop.
  std::atomic<int> polls{0};
  ParallelRunConfig cfg = ref_cfg;
  cfg.num_steps = 10;
  cfg.poll_abort = [&] {
    return polls.fetch_add(1) + 1 >= kStop * P ? 2 : 0;
  };
  ParticleSystem sys = build_initial();
  const ParallelRunResult res =
      run_parallel_md(sys, field, "SC", ProcessGrid::factor(P), cfg);
  EXPECT_EQ(res.abort_reason, 2);
  EXPECT_EQ(res.steps_completed, kStop);
  EXPECT_EQ(polls.load(), kStop * P);
  expect_positions_match(sys, ref, 5e-8);
}

TEST(RecoveryTest, InProcessDriverFailsOnUncreatableCheckpointDir) {
  // Only rank 0 touches the checkpoint dir; its failure must abort the
  // peer blocked in the first collective instead of hanging it.
  const std::string file = fresh_dir("scmd_recovery_notadir");
  std::ofstream(file) << "x";
  const VashishtaSiO2 field;
  ParticleSystem sys = build_initial();
  ParallelRunConfig cfg;
  cfg.dt = kDt;
  cfg.num_steps = 4;
  cfg.durability.checkpoint_every = 2;
  cfg.durability.checkpoint_dir = file + "/ckpt";
  try {
    run_parallel_md(sys, field, "SC", ProcessGrid::factor(2), cfg);
    ADD_FAILURE() << "run_parallel_md accepted an uncreatable checkpoint dir";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot create checkpoint dir"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(file);
}

/// Single-rank in-process endpoint that owns its Cluster, so the
/// supervisor's make_transport factory can mint one per attempt.
class SoloTransport final : public Transport {
 public:
  SoloTransport() : cluster_(1) {}

  int rank() const override { return 0; }
  int num_ranks() const override { return 1; }
  void send(int dst, int tag, Bytes payload) override {
    cluster_.transport(0).send(dst, tag, std::move(payload));
  }
  Bytes recv(int src, int tag) override {
    return cluster_.transport(0).recv(src, tag);
  }
  void barrier() override {}
  double allreduce_sum(double v) override { return v; }
  double allreduce_max(double v) override { return v; }
  TransportStats stats() const override {
    return cluster_.transport(0).stats();
  }

 private:
  mutable Cluster cluster_;
};

TEST(RecoveryTest, SupervisorReplaysFromLastSnapshotAfterFault) {
  const std::string dir = fresh_dir("scmd_recovery_supervised");
  const std::string token = dir + "_token";
  std::filesystem::remove(token);
  // Kill rank 0 after step 4 completes — before the step-4 snapshot is
  // cut, so recovery resumes from the step-2 one.  The token makes the
  // fault fire exactly once; without it the replay would die forever.
  EnvGuard kill_at("SCMD_FAULT_KILL_AT_STEP", "4");
  EnvGuard kill_rank("SCMD_FAULT_KILL_RANK", "0");
  EnvGuard token_env("SCMD_FAULT_TOKEN", token);

  const VashishtaSiO2 field;
  ParticleSystem sys = build_initial();
  ParallelRunConfig cfg;
  cfg.dt = kDt;
  cfg.num_steps = 8;
  cfg.durability.checkpoint_every = 2;
  cfg.durability.checkpoint_dir = dir;
  SupervisorConfig sup;
  sup.max_recoveries = 2;
  sup.backoff_s = 0.0;
  sup.make_transport = [] { return std::make_unique<SoloTransport>(); };

  const ParallelRunResult res = run_parallel_md_supervised(
      sys, field, "SC", ProcessGrid({1, 1, 1}), cfg, sup);
  EXPECT_EQ(res.recoveries, 1);
  EXPECT_EQ(res.restored_step, 2);
  EXPECT_TRUE(std::filesystem::exists(token));

  // The recovered trajectory must match an unfaulted run.
  ParticleSystem ref = build_initial();
  ParallelRunConfig ref_cfg;
  ref_cfg.dt = kDt;
  ref_cfg.num_steps = 8;
  run_parallel_md(ref, field, "SC", ProcessGrid({1, 1, 1}), ref_cfg);
  expect_positions_match(sys, ref, 5e-8);

  std::filesystem::remove_all(dir);
  std::filesystem::remove(token);
}

TEST(RecoveryTest, SupervisorGivesUpAfterBudget) {
  const std::string dir = fresh_dir("scmd_recovery_exhausted");
  // No token: the fault re-fires on every replay, so a budget of 1
  // recovery must end in the error propagating out.
  EnvGuard kill_at("SCMD_FAULT_KILL_AT_STEP", "3");
  EnvGuard kill_rank("SCMD_FAULT_KILL_RANK", "0");

  const VashishtaSiO2 field;
  ParticleSystem sys = build_initial();
  ParallelRunConfig cfg;
  cfg.dt = kDt;
  cfg.num_steps = 6;
  cfg.durability.checkpoint_every = 2;
  cfg.durability.checkpoint_dir = dir;
  SupervisorConfig sup;
  sup.max_recoveries = 1;
  sup.backoff_s = 0.0;
  sup.make_transport = [] { return std::make_unique<SoloTransport>(); };

  EXPECT_THROW(run_parallel_md_supervised(sys, field, "SC",
                                          ProcessGrid({1, 1, 1}), cfg, sup),
               Error);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, FaultPlanParsesFromEnvironment) {
  {
    EnvGuard kill_at("SCMD_FAULT_KILL_AT_STEP", "17");
    EnvGuard kill_rank("SCMD_FAULT_KILL_RANK", "3");
    EnvGuard token_env("SCMD_FAULT_TOKEN", "/tmp/tok");
    const auto plan = ckpt::fault_plan_from_env();
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->kill_at_step, 17);
    EXPECT_EQ(plan->kill_rank, 3);
    EXPECT_EQ(plan->token_path, "/tmp/tok");
  }
  EXPECT_FALSE(ckpt::fault_plan_from_env().has_value());
}

TEST(RecoveryTest, FaultTokenBurnsAfterFirstFiring) {
  const std::string token = fresh_dir("scmd_recovery_token") + ".tok";
  std::filesystem::remove(token);
  ckpt::FaultPlan plan;
  plan.kill_at_step = 3;
  plan.kill_rank = 1;
  plan.token_path = token;
  const std::optional<ckpt::FaultPlan> armed = plan;

  ckpt::maybe_kill(armed, /*rank=*/0, /*completed_step=*/3, nullptr);  // rank
  ckpt::maybe_kill(armed, 1, 2, nullptr);                              // step
  EXPECT_FALSE(std::filesystem::exists(token));
  EXPECT_THROW(ckpt::maybe_kill(armed, 1, 3, nullptr), Error);
  EXPECT_TRUE(std::filesystem::exists(token));
  // Token burned: the same crossing stands down now.
  ckpt::maybe_kill(armed, 1, 3, nullptr);
  std::filesystem::remove(token);
}

}  // namespace
}  // namespace scmd
