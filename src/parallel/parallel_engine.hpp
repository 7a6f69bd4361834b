#pragma once

/// \file parallel_engine.hpp
/// Parallel MD driver.  run_parallel_md_rank is the one per-rank program
/// (scatter a global system, run lock-step MD with real message passing,
/// gather the state back to rank 0); every parallel run executes it, on
/// TCP processes, serve workers, or — via run_parallel_md — P threads of
/// one process.
///
/// This is the correctness vehicle for the parallel algorithms: tests
/// compare its trajectories, energies, and forces against SerialEngine.
/// Performance *figures* come from the cluster simulator in src/perf,
/// which reuses the same per-rank logic without threads.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engines/strategy.hpp"
#include "md/system.hpp"
#include "obs/engine_metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/decomp.hpp"
#include "parallel/exchange.hpp"
#include "parallel/rank_engine.hpp"

namespace scmd {

class StatusServer;

namespace ckpt {
class WalWriter;
}

/// Durability options for a parallel run (docs/DURABILITY.md).
/// Collective: every rank must pass identical values.  Only rank 0
/// touches the checkpoint directory and WAL — peers contribute their
/// atoms to rank 0's snapshot over reserved tags (src/ckpt) and receive
/// restored state by broadcast, so no shared filesystem is required.
struct DurabilityConfig {
  /// Snapshot after every this-many completed steps (and after the final
  /// step).  0 = no periodic snapshots.
  int checkpoint_every = 0;
  std::string checkpoint_dir;  ///< required when checkpoint_every > 0
  int checkpoint_retain = 3;   ///< snapshots kept on disk (oldest pruned)

  /// Resume: before stepping, rank 0 loads the newest valid snapshot
  /// (or `restore_path` when set) and broadcasts it; all ranks re-shard
  /// from it and continue at its step counter.  With no loadable
  /// snapshot the run starts fresh from `sys`.
  bool restore = false;
  std::string restore_path;

  /// Rank-0 write-ahead log (not owned; honored on rank 0 only, like
  /// the observability hooks): snapshot-cadence trajectory frames plus
  /// operational notes (restores, recoveries).  The caller owns it so
  /// one log spans every supervisor attempt.  Null = off.
  ckpt::WalWriter* wal = nullptr;

  int attempt = 0;  ///< supervisor attempt ordinal (0 = first try)
};

/// Options for a parallel run.
struct ParallelRunConfig {
  double dt = 1.0;
  int num_steps = 0;               ///< steps after the initial force pass
  bool measure_force_set = false;

  /// Optional observability hooks.  `trace` is rank 0's *merged*
  /// session: every rank streams its rank-tagged phase spans there,
  /// clock-aligned into rank 0's timebase (one lane per rank, tid =
  /// rank).  `metrics` receives one record per MD step (emitted every
  /// `metrics_every` steps) with cluster totals, the per-rank max/avg
  /// imbalance summary (Eq. 33 import volume), per-step comm.transport.*
  /// deltas, and log-bucketed phase_hist.* latency histograms.  Both
  /// null by default — the run then pays no instrumentation cost.
  obs::TraceSession* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  int metrics_every = 1;

  /// Live run monitor (honored on rank 0): when set, a status snapshot
  /// is published after every finalized step for the status socket to
  /// serve (net/status_server.hpp, tools/scmd_top.py).
  StatusServer* status = nullptr;

  /// Dynamic load balancing: when set, each rank constructs its balancer
  /// through this factory (called once per rank, collectively consistent
  /// configuration expected) and per-cell cost collection is switched on.
  /// Null = balancing off.  See src/balance for implementations.
  std::function<std::unique_ptr<RankBalancer>(int rank)> make_balancer;

  /// Persistent tuple lists (docs/TUPLECACHE.md), forwarded to every
  /// rank engine.  Pattern strategies only; the reuse decision is
  /// collective across ranks.
  TupleCacheConfig tuple_cache;

  /// Checkpoint/restore + WAL.
  DurabilityConfig durability;

  /// Cooperative early stop.  When set, every rank polls it once per
  /// completed step and the cluster takes the max over ranks — a non-zero
  /// return on *any* rank stops the whole run at that step boundary, with
  /// the gathered state and telemetry reflecting the steps actually
  /// completed.  The returned value is reported as
  /// ParallelRunResult::abort_reason (serve uses 1 = cancelled, 2 =
  /// walltime cap).  Either every rank sets this or none does — the
  /// per-step reduction is collective.  run_parallel_md hands the same
  /// callable to every rank thread, so there it is called concurrently
  /// and must be thread-safe.
  std::function<int()> poll_abort;
};

/// Aggregated results of a parallel run.
struct ParallelRunResult {
  double potential_energy = 0.0;   ///< global, after the last force pass
  EngineCounters total;            ///< summed over ranks
  EngineCounters max_rank;         ///< componentwise max over ranks
  /// Cluster-wide messages and bytes sent (rank 0's result), counted up
  /// to each rank's final stats snapshot: the final gather itself and the
  /// closing barrier are not included.
  std::uint64_t runtime_messages = 0;
  std::uint64_t runtime_bytes = 0;

  int rebalances = 0;              ///< rebalance events during the run
  double last_balance_ratio = 0.0; ///< most recent measured max/mean work
                                   ///< ratio (0 when balancing is off or
                                   ///< never measured)

  long long restored_step = 0;     ///< step the run resumed from (0 = fresh)
  long long snapshots_written = 0; ///< checkpoints rank 0 persisted
  int recoveries = 0;              ///< rank failures survived (supervisor)

  /// 0 = ran to the step budget; otherwise the max non-zero value any
  /// rank's `poll_abort` returned (the run stopped early).
  int abort_reason = 0;
  long long steps_completed = 0;   ///< MD steps completed by this run
};

/// Run `num_steps` of MD on `pgrid.num_ranks()` threads of this process
/// (run_cluster), each calling run_parallel_md_rank on its own copy of
/// `sys`; rank 0 runs on `sys` itself and receives the hooks in `config`.
/// On return `sys` holds the final positions/velocities/forces (gathered
/// by global id) and the result is rank 0's.  A failure on any rank
/// aborts the cluster and is rethrown.  `strategy_name` is "SC", "FS",
/// or "Hybrid".
ParallelRunResult run_parallel_md(ParticleSystem& sys, const ForceField& field,
                                  const std::string& strategy_name,
                                  const ProcessGrid& pgrid,
                                  const ParallelRunConfig& config);

/// One rank of a distributed MD run over an already-connected Comm (any
/// Transport backend: the caller owns the endpoint — a TcpTransport in
/// multi-process runs, or one rank's InProcTransport under run_cluster).
///
/// Every rank must call this collectively with an *identical* `sys`
/// (same build seed/config) and identical run configuration; each rank
/// keeps only the atoms its region owns.  On return, rank 0's `sys`
/// holds the gathered final positions/velocities/forces and rank 0's
/// result carries the cluster totals; other ranks' `sys` is left at the
/// input state and their result holds the global potential energy,
/// cluster-wide message totals, and their own counters.
///
/// Observability hooks in `config` are honored on rank 0; the decision
/// to instrument is itself collective.  When rank 0 passes metrics or a
/// trace, every rank records spans into a rank-local session, estimates
/// its clock offset against rank 0 at bootstrap (net/clock_sync.hpp),
/// and streams one telemetry frame per step to rank 0's collector
/// (obs/collector.hpp) — metrics are reduced and emitted live, and all
/// rank traces merge into `config.trace` as one clock-aligned timeline.
ParallelRunResult run_parallel_md_rank(ParticleSystem& sys,
                                       const ForceField& field,
                                       const std::string& strategy_name,
                                       const ProcessGrid& pgrid,
                                       const ParallelRunConfig& config,
                                       Comm& comm);

/// Split a global system into per-rank atom states by region ownership.
std::vector<RankState> scatter_atoms(const ParticleSystem& sys,
                                     const Decomposition& decomp);

}  // namespace scmd
