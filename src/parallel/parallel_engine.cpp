#include "parallel/parallel_engine.hpp"

#include <cstdint>
#include <optional>
#include <type_traits>

#include "check/invariant.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/fault.hpp"
#include "ckpt/wal.hpp"
#include "net/clock_sync.hpp"
#include "net/tags.hpp"
#include "net/status_server.hpp"
#include "obs/collector.hpp"
#include "obs/telemetry.hpp"
#include "parallel/comm.hpp"
#include "parallel/rank_engine.hpp"
#include "support/error.hpp"

namespace scmd {

namespace {

/// One atom on the wire for gathers (final state, snapshots).
struct AtomWire {
  std::int64_t gid;
  Vec3 pos, vel, force;
};
static_assert(std::is_trivially_copyable_v<AtomWire>);

/// Receive one rank's gather frame.  Every wire gid must index the
/// `num_atoms` destination atoms — a malformed gather/snapshot frame must
/// fail loudly, not scribble out of bounds.
std::vector<AtomWire> recv_atoms(Comm& comm, int src, int tag,
                                 int num_atoms) {
  std::vector<AtomWire> atoms = unpack<AtomWire>(comm.recv(src, tag));
  for (const AtomWire& a : atoms) {
    SCMD_REQUIRE(a.gid >= 0 && a.gid < num_atoms,
                 "gather frame carries an out-of-range gid");
  }
  return atoms;
}

/// Write gathered atoms into `dst` by gid.
void place(ParticleSystem& dst, const std::vector<AtomWire>& atoms) {
  for (const AtomWire& a : atoms) {
    const auto g = static_cast<std::size_t>(a.gid);
    dst.positions()[g] = a.pos;
    dst.velocities()[g] = a.vel;
    dst.forces()[g] = a.force;
  }
}

/// Componentwise max over ranks, for load-imbalance analysis.
void accumulate_max_rank(EngineCounters& max_rank, const EngineCounters& c) {
  auto maxu = [](std::uint64_t& a, std::uint64_t b) {
    if (b > a) a = b;
  };
  for (std::size_t n = 0; n < c.tuples.size(); ++n) {
    maxu(max_rank.tuples[n].search_steps, c.tuples[n].search_steps);
    maxu(max_rank.tuples[n].chain_candidates, c.tuples[n].chain_candidates);
    maxu(max_rank.tuples[n].cell_visits, c.tuples[n].cell_visits);
    maxu(max_rank.tuples[n].accepted, c.tuples[n].accepted);
    maxu(max_rank.evals[n], c.evals[n]);
    if (c.force_set[n] > max_rank.force_set[n])
      max_rank.force_set[n] = c.force_set[n];
  }
  maxu(max_rank.list_pairs, c.list_pairs);
  maxu(max_rank.list_scan_steps, c.list_scan_steps);
  maxu(max_rank.cache_rebuilds, c.cache_rebuilds);
  maxu(max_rank.cache_reuse_steps, c.cache_reuse_steps);
  maxu(max_rank.cache_replayed, c.cache_replayed);
  maxu(max_rank.ghost_atoms_imported, c.ghost_atoms_imported);
  maxu(max_rank.messages, c.messages);
  maxu(max_rank.bytes_imported, c.bytes_imported);
  maxu(max_rank.bytes_written_back, c.bytes_written_back);
}

}  // namespace

std::vector<RankState> scatter_atoms(const ParticleSystem& sys,
                                     const Decomposition& decomp) {
  const ProcessGrid& pg = decomp.pgrid();
  std::vector<RankState> states(static_cast<std::size_t>(pg.num_ranks()));
  const auto pos = sys.positions();
  const auto vel = sys.velocities();
  const auto type = sys.types();
  for (int i = 0; i < sys.num_atoms(); ++i) {
    const Vec3 p = sys.box().wrap(pos[i]);
    // owner_of is the same cut-position arithmetic the migrator's region
    // test uses, so the initial placement is consistent with migration
    // for uniform and non-uniform decompositions alike.
    RankState& st = states[static_cast<std::size_t>(decomp.owner_of(p))];
    st.pos.push_back(p);
    st.vel.push_back(vel[i]);
    st.gid.push_back(i);
    st.type.push_back(type[i]);
  }
  return states;
}

ParallelRunResult run_parallel_md(ParticleSystem& sys,
                                  const ForceField& field,
                                  const std::string& strategy_name,
                                  const ProcessGrid& pgrid,
                                  const ParallelRunConfig& config) {
  // Every rank scatters from its own copy of the identical input; rank 0
  // runs on the caller's system, so the final gather lands there.  The
  // observability hooks and the WAL are rank 0's, as in a TCP run.
  const ParticleSystem input = sys;
  ParallelRunConfig peer_config = config;
  peer_config.trace = nullptr;
  peer_config.metrics = nullptr;
  peer_config.status = nullptr;
  peer_config.durability.wal = nullptr;
  ParallelRunResult result;
  run_cluster(pgrid.num_ranks(), [&](Comm& comm) {
    if (comm.rank() == 0) {
      result = run_parallel_md_rank(sys, field, strategy_name, pgrid, config,
                                    comm);
    } else {
      ParticleSystem own = input;
      run_parallel_md_rank(own, field, strategy_name, pgrid, peer_config,
                           comm);
    }
  });
  return result;
}

ParallelRunResult run_parallel_md_rank(ParticleSystem& sys,
                                       const ForceField& field,
                                       const std::string& strategy_name,
                                       const ProcessGrid& pgrid,
                                       const ParallelRunConfig& config,
                                       Comm& comm) {
  SCMD_REQUIRE(pgrid.num_ranks() == comm.num_ranks(),
               "process grid and transport disagree on the rank count");
  const int P = comm.num_ranks();
  const int rank = comm.rank();
  const bool root = rank == 0;

  // --- Durability bootstrap (src/ckpt, docs/DURABILITY.md). ------------
  // Only rank 0 owns files; restore state reaches peers by broadcast, so
  // the cluster needs no shared filesystem.
  const DurabilityConfig& dur = config.durability;
  const bool snapshots_on = dur.checkpoint_every > 0;
  SCMD_REQUIRE(!snapshots_on || !dur.checkpoint_dir.empty(),
               "checkpoint_every needs a checkpoint_dir");
  std::optional<ckpt::CheckpointDir> ckpt_dir;
  if (root && (snapshots_on || (dur.restore && !dur.checkpoint_dir.empty())))
    ckpt_dir.emplace(dur.checkpoint_dir, dur.checkpoint_retain);
  ckpt::WalWriter* wal = root ? dur.wal : nullptr;
  const std::optional<ckpt::FaultPlan> fault = ckpt::fault_plan_from_env();

  // Restore before scatter: rank 0 picks the snapshot (newest valid, or
  // the explicit path) and broadcasts its encoded bytes; an empty blob
  // means "no snapshot, start fresh".  Every rank then re-shards the
  // identical restored system, exactly like a fresh scatter.  Whether to
  // restore is rank 0's call, made collective: a freshly respawned rank
  // (attempt 0, CLI defaults) then follows the surviving supervisor
  // ranks (attempt > 0, restore forced on) instead of deadlocking on a
  // mismatched broadcast.
  long long start_step = 0;
  const bool do_restore =
      comm.allreduce_max(root && dur.restore ? 1.0 : 0.0) > 0.0;
  if (do_restore) {
    Bytes blob;
    if (root) {
      std::optional<ckpt::CheckpointData> data;
      if (!dur.restore_path.empty()) {
        data = ckpt::read_checkpoint(dur.restore_path);
      } else if (ckpt_dir) {
        std::string from;
        data = ckpt_dir->load_latest(&from);
      }
      if (data) blob = ckpt::encode_checkpoint(*data);
      for (int r = 1; r < P; ++r) comm.send(r, tags::kRestoreBlob, blob);
    } else {
      blob = comm.recv(0, tags::kRestoreBlob);
    }
    if (!blob.empty()) {
      ckpt::CheckpointData data = ckpt::decode_checkpoint(blob);
      SCMD_REQUIRE(data.system.num_atoms() == sys.num_atoms(),
                   "restored snapshot has a different atom count than the "
                   "configured system");
      SCMD_REQUIRE(data.clock.step <= config.num_steps,
                   "restored snapshot is past this run's step budget");
      sys = std::move(data.system);
      start_step = data.clock.step;
      if (root && wal) {
        wal->append(ckpt::WalRecordType::kNote,
                    "restore step=" + std::to_string(start_step) +
                        " attempt=" + std::to_string(dur.attempt));
      }
    }
  }

  const Decomposition decomp(sys.box(), pgrid);
  const auto strategy =
      make_strategy(strategy_name, field, config.measure_force_set);
  // Every rank scatters the identical global system and keeps its share.
  std::vector<RankState> initial = scatter_atoms(sys, decomp);

  // Whether telemetry streams is a collective decision: rank 0's hooks
  // decide for the whole cluster, so all ranks agree before any of them
  // touches the reserved tags.
  const bool telemetry =
      comm.allreduce_max(root && (config.metrics != nullptr ||
                                  config.trace != nullptr)
                             ? 1.0
                             : 0.0) > 0.0;

  // When streaming, every rank records spans into its own local session
  // and ships them; rank 0's collector re-records them clock-aligned
  // into config.trace.  Rank 0 itself uses a local session too (offset
  // exactly 0), so its spans travel the same path as everyone else's.
  obs::TraceSession local_trace;
  obs::bind_thread(telemetry ? &local_trace : config.trace, rank);
  check::bind_rank(rank);

  std::optional<obs::TelemetryCollector> collector;
  if (telemetry) {
    // Bootstrap clock sync: offsets map each rank's session time into
    // rank 0's session timebase.  Sessions were created a moment ago, so
    // the offsets hold for the whole run — steady clocks on one cluster
    // don't drift apart measurably at MD-run timescales.
    const std::vector<ClockEstimate> clock = estimate_clock_offsets(
        comm.transport(), [&] { return local_trace.now_us(); });
    if (root) {
      // Records are 0-based within this attempt; a resumed run tells the
      // collector the global offset so emitted step numbers continue
      // where the pre-failure run left off.
      obs::TelemetryCollector::Config cc;
      cc.num_ranks = P;
      cc.max_n = field.max_n();
      cc.balancing = static_cast<bool>(config.make_balancer);
      cc.metrics_every = config.metrics_every;
      cc.num_records = config.num_steps - start_step + 1;
      cc.metrics = config.metrics;
      cc.merged_trace = config.trace;
      cc.step_offset = start_step;
      cc.recoveries = dur.attempt;
      collector.emplace(cc);
      for (int r = 1; r < P; ++r) {
        collector->set_clock(r, clock[static_cast<std::size_t>(r)].offset_us,
                             clock[static_cast<std::size_t>(r)].uncertainty_us);
      }
    }
  }

  const bool balancing = static_cast<bool>(config.make_balancer);
  RankEngineConfig rc;
  rc.dt = config.dt;
  rc.measure_force_set = config.measure_force_set;
  rc.collect_cell_costs = balancing;
  rc.tuple_cache = config.tuple_cache;
  RankEngine engine(comm, decomp, field, *strategy, rc);
  std::unique_ptr<RankBalancer> balancer;
  if (balancing) {
    balancer = config.make_balancer(rank);
    engine.set_balancer(balancer.get());
  }
  engine.set_atoms(std::move(initial[static_cast<std::size_t>(rank)]));

  int rebalances = 0;
  double last_ratio = 0.0;

  // One frame per rank per record: this rank's step observables plus the
  // spans recorded since the previous flush.  Rank 0 ingests its own
  // frame, then one from every peer — per-(src, tag) ordering makes the
  // step sequence implicit, and the collector finalizes a step once all
  // ranks have reported it.
  EngineCounters prev;
  std::size_t trace_cursor = 0;
  auto flush_telemetry = [&](long long record_step) {
    obs::TelemetryFrame frame;
    frame.rank = rank;
    obs::TelemetryStepRecord rec;
    rec.step = record_step;
    rec.potential_energy = engine.potential_energy();
    rec.work = engine.counters().delta_since(prev);
    rec.transport = comm.transport().stats();
    frame.steps.push_back(rec);
    frame.events = local_trace.events_since(trace_cursor);
    trace_cursor += frame.events.size();
    prev = engine.counters();
    if (root) {
      collector->ingest(frame);
      for (int r = 1; r < P; ++r)
        collector->ingest(
            obs::decode_frame(comm.recv(r, tags::kTelemetry)));
      if (config.status != nullptr)
        config.status->publish(collector->status_json());
    } else {
      comm.send(0, tags::kTelemetry, obs::encode_frame(frame));
    }
  };

  // This rank's owned atoms, for the snapshot and final gathers.
  auto pack_owned = [&] {
    const RankState& st = engine.state();
    const auto forces = engine.owned_forces();
    std::vector<AtomWire> atoms(static_cast<std::size_t>(st.num_owned()));
    for (std::size_t i = 0; i < atoms.size(); ++i)
      atoms[i] = AtomWire{st.gid[i], st.pos[i], st.vel[i], forces[i]};
    return atoms;
  };

  // Collective snapshot: every rank ships its owned atoms to rank 0,
  // which assembles the global state by gid onto a copy of `sys` (types
  // and masses never change) and persists it crash-safely.
  long long snapshots_written = 0;
  auto snapshot = [&](long long completed_steps) {
    SCMD_TRACE("ckpt.snapshot");
    if (!root) {
      comm.send(0, tags::kSnapshotAtoms, pack(pack_owned()));
      return;
    }
    ckpt::CheckpointData data;
    data.system = sys;
    place(data.system, pack_owned());
    for (int r = 1; r < P; ++r) {
      place(data.system, recv_atoms(comm, r, tags::kSnapshotAtoms,
                                    data.system.num_atoms()));
    }
    data.clock.step = completed_steps;
    data.clock.total_steps = config.num_steps;
    data.clock.dt = config.dt;
    ckpt::DecompState d;
    d.pgrid_dims = decomp.pgrid().dims();
    d.align_dims = decomp.align_pgrid().dims();
    d.fine_res = decomp.fine_res();
    for (int a = 0; a < 3; ++a) {
      const auto& cuts = decomp.cuts()[static_cast<std::size_t>(a)];
      d.cuts[static_cast<std::size_t>(a)].assign(cuts.begin(), cuts.end());
    }
    data.decomp = std::move(d);
    data.cache = ckpt::CacheState{engine.counters().cache_rebuilds,
                                  config.tuple_cache.skin};
    ckpt_dir->write(data);
    ++snapshots_written;
    if (wal) {
      ckpt::TrajFrame frame;
      frame.step = completed_steps;
      const auto pos = data.system.positions();
      const auto vel = data.system.velocities();
      frame.pos.assign(pos.begin(), pos.end());
      frame.vel.assign(vel.begin(), vel.end());
      wal->append(ckpt::WalRecordType::kTrajectory,
                  ckpt::encode_traj_frame(frame));
      wal->sync();
    }
    if (config.metrics != nullptr) {
      config.metrics->add("ckpt.snapshots", 1);
      config.metrics->set("ckpt.last_step",
                          static_cast<double>(completed_steps));
      if (wal) {
        config.metrics->set("ckpt.wal_bytes",
                            static_cast<double>(wal->bytes_written()));
      }
    }
  };
  if (root && config.metrics != nullptr)
    config.metrics->set("ckpt.recoveries", static_cast<double>(dur.attempt));

  engine.compute_forces();
  if (telemetry) flush_telemetry(0);
  int abort_reason = 0;
  long long steps_done = start_step;
  for (int s = static_cast<int>(start_step); s < config.num_steps; ++s) {
    engine.step();
    const long long done = s + 1;        // completed MD steps
    const long long rec = done - start_step;  // this attempt's record index
    steps_done = done;
    // Fault injection fires *before* the snapshot at this boundary, so a
    // killed rank never contributes to it and recovery has to fall back
    // to the previous checkpoint — the hard case.
    ckpt::maybe_kill(fault, rank, done, &comm.transport());
    if (snapshots_on &&
        (done % dur.checkpoint_every == 0 || done == config.num_steps)) {
      snapshot(done);
    }
    if (balancer && root) {
      // The balancer's view is collectively agreed, so rank 0's copy is
      // the cluster's.
      const BalanceStepInfo& info = balancer->last_step();
      if (info.rebalanced) ++rebalances;
      if (info.ratio > 0.0) last_ratio = info.ratio;
      if (collector) {
        collector->set_balance(rec, info.ratio, info.rebalanced,
                               info.predicted_ratio, info.migrated_atoms);
      }
    }
    if (telemetry) flush_telemetry(rec);
    if (config.poll_abort) {
      // Collective early-stop decision: the poll is local, the verdict
      // is the max over ranks, so every rank leaves the loop at the
      // same step boundary (telemetry records stay rectangular).
      const int verdict = static_cast<int>(
          comm.allreduce_max(static_cast<double>(config.poll_abort())));
      if (verdict != 0) {
        abort_reason = verdict;
        break;
      }
    }
  }
  if (collector) {
    if (abort_reason == 0) {
      collector->finish();
    } else {
      collector->finish_partial();
    }
    if (config.status != nullptr)
      config.status->publish(collector->status_json());
  }

  ParallelRunResult result;
  result.potential_energy = comm.allreduce_sum(engine.potential_energy());
  result.rebalances = rebalances;
  result.last_balance_ratio = last_ratio;
  result.restored_step = start_step;
  result.snapshots_written = snapshots_written;
  result.recoveries = dur.attempt;
  result.abort_reason = abort_reason;
  result.steps_completed = steps_done;

  // Gather counters, the final atom state and transport statistics to
  // rank 0 on the registered gather channels (net/tags.hpp).
  result.total = engine.counters();
  if (root) {
    accumulate_max_rank(result.max_rank, engine.counters());
    TransportStats agg = comm.transport().stats();
    place(sys, pack_owned());
    for (int r = 1; r < P; ++r) {
      const auto counters =
          unpack<EngineCounters>(comm.recv(r, tags::kGatherCounters));
      SCMD_REQUIRE(counters.size() == 1, "malformed counters gather");
      result.total += counters[0];
      accumulate_max_rank(result.max_rank, counters[0]);
      place(sys, recv_atoms(comm, r, tags::kGatherState, sys.num_atoms()));
      const auto stats = unpack<TransportStats>(comm.recv(r, tags::kGatherStats));
      SCMD_REQUIRE(stats.size() == 1, "malformed stats gather");
      agg += stats[0];
    }
    result.runtime_messages = agg.messages_sent;
    result.runtime_bytes = agg.bytes_sent;
  } else {
    comm.send(0, tags::kGatherCounters,
              pack(std::vector<EngineCounters>{engine.counters()}));
    comm.send(0, tags::kGatherState, pack(pack_owned()));
    comm.send(0, tags::kGatherStats,
              pack(std::vector<TransportStats>{comm.transport().stats()}));
  }

  // Drain-and-sync before the caller tears the transport down, so no
  // backend is destroyed with traffic still in flight.
  comm.barrier();
  // The span sink bound above is (or may be) the stack-local session —
  // don't leave the thread-local binding dangling past this frame.
  obs::bind_thread(nullptr, 0);
  return result;
}

}  // namespace scmd
