// scmd_run — config-driven MD driver.
//
//   ./scmd_run path/to/run.conf [--key=value ...]
//
// Any `--key=value` flag overrides the same config key (dashes in the
// flag name map to underscores: `--metrics-out=m.jsonl` sets
// `metrics_out`).
//
// Configuration keys (all optional except `field`):
//
//   field            lj | morse | vashishta | bks | sw | tersoff |
//                    chain4 | chain5
//   strategy         SC (default) | FS | Hybrid | OC | RC | BondOrder |
//                    SC:2 | SC+p | ...
//   atoms            atom count (default 1536)
//   density          g/cc for the silica fields (default 2.2)
//   atoms_per_cell   occupancy for gas-built fields (default 4)
//   temperature      initial / thermostat temperature in K (default 300)
//   dt_fs            time step in femtoseconds (default 1.0)
//   steps            MD steps (default 100)
//   thermostat_tau_fs  Berendsen coupling time; 0 (default) = NVE
//   threads          intra-process enumeration threads (default 1)
//   ranks            > 1 runs the threaded message-passing cluster (NVE
//                    only; thermostat requires ranks = 1)
//   dense_fraction   > 0 builds the two-phase (dense slab + vapor) silica
//                    system with this atom fraction squashed into the
//                    lower half — the load-imbalance workload (silica
//                    fields only; default 0 = uniform)
//   balance          off (default) | auto | every=K — dynamic load
//                    balancing for parallel runs (ranks > 1): cost-driven
//                    non-uniform re-cuts with in-flight atom migration
//                    (docs/LOADBALANCE.md)
//   balance_threshold  auto mode: re-cut when the measured max/mean work
//                    ratio exceeds this (default 1.2)
//   balance_min_interval  auto mode: min steps between re-cuts
//                    (default 10)
//   tuple_cache      off (default) | skin=<s> — persistent tuple lists:
//                    enumerate once at rcut + s (Angstrom), replay the
//                    cached lists with exact-rcut filtering until any
//                    atom drifts farther than s/2 (docs/TUPLECACHE.md;
//                    pattern strategies SC/FS/OC/RC only)
//   check            off (default) | on — runtime invariant checker
//                    (docs/CHECKING.md): assert force balance, exactly-
//                    once tuple ownership, ghost/home consistency, and
//                    replay parity at phase boundaries; any violation
//                    aborts the run.  Needs the SCMD_CHECK build option
//                    (on by default); the SCMD_CHECK=1 environment
//                    variable enables it too.
//   log_every        table row cadence (default 10)
//   traj             extended-XYZ output path
//   checkpoint_in    resume from a checkpoint instead of building
//   checkpoint_out   write the final state here
//   checkpoint_every periodic durable snapshots: write a full resumable
//                    checkpoint (step counter, RNG, thermostat,
//                    decomposition, tuple-cache epoch) after every K
//                    completed steps into checkpoint_dir (default 0 =
//                    off; docs/DURABILITY.md).  Serial and tcp runs.
//   checkpoint_dir   snapshot directory (required with checkpoint_every)
//   checkpoint_retain  snapshots kept before pruning oldest (default 3)
//   restore          off (default) | auto | <path> — resume from the
//                    newest valid snapshot in checkpoint_dir (auto) or an
//                    explicit snapshot file; the run continues at the
//                    saved step counter
//   wal              write-ahead log path: CRC-framed trajectory frames
//                    at snapshot cadence plus every metrics record;
//                    reopening truncates a torn tail (crash recovery)
//   max_recoveries   tcp: rank failures survived by re-running the
//                    rendezvous and restoring from the last checkpoint
//                    before giving up (default 2 when checkpoint_every
//                    is set, else 0; pair with launch_tcp.sh --respawn)
//   seed             RNG seed (default 1)
//   measure_pressure true: report pressure at the end (serial only)
//   metrics_out      structured per-step metrics path (.csv => CSV,
//                    anything else => JSONL); see docs/OBSERVABILITY.md
//   metrics_every    emit cadence in steps (default 1)
//   trace_out        Chrome trace_event JSON path (open in Perfetto)
//   measure_force_set record |S(n)| per step (default: on when
//                    metrics_out is set)
//   transport        inproc (default) | tcp — communication backend for
//                    parallel runs (docs/TRANSPORT.md).  `inproc` runs
//                    `ranks` threads in this process; `tcp` makes this
//                    process ONE rank of a multi-process cluster — start
//                    one process per rank (tools/launch_tcp.sh does it):
//                      --transport=tcp --rank=i --nranks=N
//                      --rendezvous=host:port
//                    Output artifacts (metrics, trace, trajectory,
//                    checkpoint_out, stdout report) are written by
//                    rank 0 only.
//   rank             tcp: this process's rank in [0, nranks)
//   nranks           tcp: total process count (the cluster size)
//   rendezvous       tcp: host:port where rank 0 listens for bootstrap
//   advertise_host   tcp: address peers use to reach this rank
//                    (default 127.0.0.1; set for multi-host runs)
//   connect_timeout_s  tcp: give up dialing after this long (default 30)
//   recv_timeout_s   tcp: recv/collective wait bound in seconds before
//                    the run fails with an error; 0 = wait forever
//                    (default 60)
//   status_port      parallel runs, rank 0: serve a live run-status
//                    snapshot on this TCP port (0 picks an ephemeral
//                    port; the bound port is printed).  Poll it with
//                    tools/scmd_top.py.  Omit the key to disable the
//                    monitor.  Safe to pass to every tcp rank
//                    (launch_tcp.sh does) — only rank 0 binds it.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "balance/rebalancer.hpp"
#include "check/invariant.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/fault.hpp"
#include "ckpt/wal.hpp"
#include "engines/observables.hpp"
#include "engines/serial_engine.hpp"
#include "io/checkpoint.hpp"
#include "obs/engine_metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "io/xyz.hpp"
#include "md/units.hpp"
#include "net/status_server.hpp"
#include "net/tcp.hpp"
#include "obs/phase_hist.hpp"
#include "parallel/parallel_engine.hpp"
#include "parallel/supervisor.hpp"
#include "serve/runplan.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace {

using namespace scmd;

// Config -> field/system translation is shared with the serve daemon's
// workers (serve/runplan.hpp), which is what makes a daemon-served job
// bit-for-bit reproducible under scmd_run.
using serve::build_system;
using serve::make_field;
using serve::species_symbols;

/// `.csv` extension selects the CSV sink, anything else JSONL.
std::unique_ptr<obs::MetricsSink> make_metrics_sink(const std::string& path) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0)
    return std::make_unique<obs::CsvSink>(path);
  return std::make_unique<obs::JsonlSink>(path);
}

int run(const std::string& path,
        const std::vector<std::pair<std::string, std::string>>& overrides) {
  Config cfg = Config::load(path);
  for (const auto& [key, value] : overrides) cfg.set(key, value);
  cfg.require_known({"field", "strategy", "atoms", "density",
                     "atoms_per_cell", "temperature", "dt_fs", "steps",
                     "thermostat_tau_fs", "threads", "ranks", "log_every",
                     "traj", "checkpoint_in", "checkpoint_out",
                     "checkpoint_every", "checkpoint_dir",
                     "checkpoint_retain", "restore", "wal",
                     "max_recoveries", "seed",
                     "measure_pressure", "metrics_out", "metrics_every",
                     "trace_out", "measure_force_set", "dense_fraction",
                     "balance", "balance_threshold",
                     "balance_min_interval", "tuple_cache", "check",
                     "transport", "rank", "nranks", "rendezvous",
                     "advertise_host", "connect_timeout_s",
                     "recv_timeout_s", "status_port"});
  SCMD_REQUIRE(cfg.has("field"), "config must set `field`");

  const std::string field_name = cfg.get("field", "");
  const std::string strategy = cfg.get("strategy", "SC");
  const double dt = cfg.get_double("dt_fs", 1.0) * units::kFemtosecond;
  const int steps = static_cast<int>(cfg.get_int("steps", 100));
  const int ranks = static_cast<int>(cfg.get_int("ranks", 1));
  const double tau_fs = cfg.get_double("thermostat_tau_fs", 0.0);
  const int log_every = static_cast<int>(cfg.get_int("log_every", 10));

  // Communication backend.  `tcp` makes this process one rank of a
  // multi-process cluster; every process builds the same system from the
  // same seed, so only ids/positions each rank owns need no broadcast.
  const std::string transport_name = cfg.get("transport", "inproc");
  SCMD_REQUIRE(transport_name == "inproc" || transport_name == "tcp",
               "transport must be inproc | tcp, got: " + transport_name);
  const bool tcp = transport_name == "tcp";
  int tcp_rank = 0;
  int tcp_nranks = 0;
  if (tcp) {
    tcp_rank = static_cast<int>(cfg.get_int("rank", -1));
    tcp_nranks = static_cast<int>(cfg.get_int("nranks", 0));
    SCMD_REQUIRE(tcp_nranks >= 2 && tcp_rank >= 0 && tcp_rank < tcp_nranks,
                 "tcp transport needs rank in [0, nranks) and nranks >= 2");
    SCMD_REQUIRE(cfg.has("rendezvous"),
                 "tcp transport needs rendezvous=host:port");
    SCMD_REQUIRE(!cfg.has("ranks"),
                 "tcp runs take the cluster size from nranks, not ranks");
  } else {
    SCMD_REQUIRE(!cfg.has("rank") && !cfg.has("nranks") &&
                     !cfg.has("rendezvous"),
                 "rank/nranks/rendezvous need transport=tcp");
    SCMD_REQUIRE(!cfg.has("status_port") || ranks > 1,
                 "status_port needs a parallel run (ranks > 1 or "
                 "transport=tcp)");
  }
  // In a TCP run only rank 0 reports and writes artifacts.
  const bool root = !tcp || tcp_rank == 0;

  const auto field = make_field(field_name);
  Rng rng(static_cast<std::uint64_t>(cfg.get_int("seed", 1)));
  ParticleSystem sys = build_system(cfg, field_name, *field, rng);

  if (root)
    std::printf(
        "# scmd_run: field=%s strategy=%s atoms=%d steps=%d ranks=%d\n",
        field_name.c_str(), strategy.c_str(), sys.num_atoms(), steps,
        tcp ? tcp_nranks : ranks);

  // Durability (docs/DURABILITY.md): periodic full-state snapshots, a
  // crash-recoverable write-ahead log, and (tcp) supervised rank-failure
  // recovery.  The in-process cluster has no dead-peer detection, so
  // durability keys are serial/tcp only.
  const int checkpoint_every =
      static_cast<int>(cfg.get_int("checkpoint_every", 0));
  const std::string checkpoint_dir = cfg.get("checkpoint_dir", "");
  const int checkpoint_retain =
      static_cast<int>(cfg.get_int("checkpoint_retain", 3));
  const std::string restore = cfg.get("restore", "off");
  const int max_recoveries = static_cast<int>(cfg.get_int(
      "max_recoveries", tcp && checkpoint_every > 0 ? 2 : 0));
  SCMD_REQUIRE(checkpoint_every == 0 || !checkpoint_dir.empty(),
               "checkpoint_every needs checkpoint_dir");
  SCMD_REQUIRE(restore == "off" || !checkpoint_dir.empty() ||
                   (restore != "auto" && !restore.empty()),
               "restore=auto needs checkpoint_dir");
  if (ranks > 1) {
    SCMD_REQUIRE(checkpoint_every == 0 && restore == "off" &&
                     !cfg.has("wal") && max_recoveries == 0,
                 "durability keys (checkpoint_every/restore/wal/"
                 "max_recoveries) need transport=tcp or ranks=1");
  }
  SCMD_REQUIRE(max_recoveries == 0 || tcp,
               "max_recoveries needs transport=tcp");
  // Declared before the metrics registry: the registry may hold a sink
  // writing into this WAL, so the WAL must be destroyed last.
  std::unique_ptr<ckpt::WalWriter> wal;
  if (cfg.has("wal") && root) {
    wal = std::make_unique<ckpt::WalWriter>(cfg.get("wal", ""));
    if (wal->recovered_torn_tail())
      std::printf("# wal: recovered %llu record(s), torn tail truncated\n",
                  static_cast<unsigned long long>(wal->recovered_records()));
  }

  // Observability artifacts: structured per-step metrics (JSONL/CSV) and
  // Chrome-trace phase spans.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  if (cfg.has("metrics_out") && root) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    metrics->add_sink(make_metrics_sink(cfg.get("metrics_out", "")));
    metrics->set_attr("field", field_name);
    metrics->set_attr("strategy", strategy);
    // Metrics ride the WAL too: each emitted record becomes a durable
    // CRC-framed kMetrics line next to the trajectory frames.
    if (wal) metrics->add_sink(std::make_unique<ckpt::WalMetricsSink>(*wal));
  }
  std::unique_ptr<obs::TraceSession> trace;
  if (cfg.has("trace_out") && root)
    trace = std::make_unique<obs::TraceSession>();
  const int metrics_every =
      static_cast<int>(cfg.get_int("metrics_every", 1));
  // |S(n)| is cheap to measure and part of the structured record, so it
  // defaults to on whenever metrics are requested.
  const bool measure_fs =
      cfg.get_bool("measure_force_set", metrics != nullptr);

  // Runtime invariant checker: `check=on` in the config, or SCMD_CHECK=1
  // in the environment.  Violations abort with a structured report.
  bool checking = false;
  {
    const std::string ck = cfg.get("check", "off");
    SCMD_REQUIRE(ck == "on" || ck == "off",
                 "check must be off | on, got: " + ck);
    check::Options copt;
    copt.enabled = (ck == "on");
    copt.action = check::FailureAction::kAbort;
    check::set_options(copt);
    check::init_from_env();
    checking = check::enabled();
#if !defined(SCMD_CHECK_ENABLED)
    if (checking) {
      std::printf("# check: requested, but this binary was built with "
                  "-DSCMD_CHECK=OFF — no invariants will run\n");
      checking = false;
    }
#endif
    if (checking) check::reset_checks_passed();
  }

  const std::string balance = cfg.get("balance", "off");
  TupleCacheConfig cache_cfg;
  {
    const std::string tc = cfg.get("tuple_cache", "off");
    if (tc.rfind("skin=", 0) == 0) {
      cache_cfg.enabled = true;
      cache_cfg.skin = std::stod(tc.substr(5));
      SCMD_REQUIRE(cache_cfg.skin >= 0.0,
                   "tuple_cache skin must be non-negative");
    } else {
      SCMD_REQUIRE(tc == "off",
                   "tuple_cache must be off | skin=<s>, got: " + tc);
    }
  }
  if (ranks > 1 || tcp) {
    SCMD_REQUIRE(tau_fs == 0.0,
                 "thermostatted runs need ranks = 1 (parallel runs are NVE)");
    ParallelRunConfig pcfg;
    pcfg.dt = dt;
    pcfg.num_steps = steps;
    pcfg.measure_force_set = measure_fs;
    pcfg.trace = trace.get();
    pcfg.metrics = metrics.get();
    pcfg.metrics_every = metrics_every;
    pcfg.tuple_cache = cache_cfg;
    if (balance != "off") {
      BalanceConfig bc;
      if (balance == "auto") {
        bc.mode = BalanceConfig::Mode::kAuto;
      } else if (balance.rfind("every=", 0) == 0) {
        bc.mode = BalanceConfig::Mode::kEvery;
        bc.every = std::stoi(balance.substr(6));
      } else {
        SCMD_REQUIRE(false, "balance must be off | auto | every=K, got: " +
                                balance);
      }
      bc.threshold = cfg.get_double("balance_threshold", 1.2);
      bc.min_interval =
          static_cast<int>(cfg.get_int("balance_min_interval", 10));
      pcfg.make_balancer = make_rebalancer_factory(bc);
    }
    // Live run monitor: rank 0 serves collector snapshots over a
    // length-prefixed status socket (tools/scmd_top.py polls it).  The
    // launcher passes the same flags to every rank; only rank 0 binds.
    std::unique_ptr<StatusServer> status;
    if (cfg.has("status_port") && root) {
      status = std::make_unique<StatusServer>(
          static_cast<int>(cfg.get_int("status_port", 0)));
      pcfg.status = status.get();
      std::printf("# status: serving live run status on port %d "
                  "(tools/scmd_top.py --port %d)\n",
                  status->port(), status->port());
      std::fflush(stdout);
    }
    // Durability plumbing for the rank driver.
    pcfg.durability.checkpoint_every = checkpoint_every;
    pcfg.durability.checkpoint_dir = checkpoint_dir;
    pcfg.durability.checkpoint_retain = checkpoint_retain;
    pcfg.durability.wal = wal.get();
    if (restore != "off") {
      pcfg.durability.restore = true;
      if (restore != "auto") pcfg.durability.restore_path = restore;
    }
    const bool durable =
        checkpoint_every > 0 || restore != "off" || max_recoveries > 0;
    ParallelRunResult res;
    if (tcp) {
      // One rank of a multi-process cluster: connect the mesh, run, and
      // let rank 0 gather the final state into `sys`.
      TcpConfig tc;
      tc.rank = tcp_rank;
      tc.num_ranks = tcp_nranks;
      const std::string rv = cfg.get("rendezvous", "");
      const auto colon = rv.rfind(':');
      SCMD_REQUIRE(colon != std::string::npos && colon > 0 &&
                       colon + 1 < rv.size(),
                   "rendezvous must be host:port, got: " + rv);
      tc.rendezvous_host = rv.substr(0, colon);
      tc.rendezvous_port = std::stoi(rv.substr(colon + 1));
      tc.advertise_host = cfg.get("advertise_host", "127.0.0.1");
      tc.connect_timeout_s = cfg.get_double("connect_timeout_s", 30.0);
      tc.recv_timeout_s = cfg.get_double("recv_timeout_s", 60.0);
      const ProcessGrid grid = ProcessGrid::factor(tcp_nranks);
      if (durable) {
        // Supervised: a rank failure tears this attempt down, re-runs
        // the rendezvous (blocking until the respawned rank is back; see
        // tools/launch_tcp.sh --respawn), restores the last checkpoint,
        // and continues.
        SupervisorConfig sup;
        sup.make_transport = [tc]() -> std::unique_ptr<Transport> {
          return std::make_unique<TcpTransport>(tc);
        };
        sup.max_recoveries = max_recoveries;
        res = run_parallel_md_supervised(sys, *field, strategy, grid, pcfg,
                                         sup);
      } else {
        TcpTransport transport(tc);
        Comm comm(transport);
        res = run_parallel_md_rank(sys, *field, strategy, grid, pcfg, comm);
      }
    } else {
      res = run_parallel_md(sys, *field, strategy, ProcessGrid::factor(ranks),
                            pcfg);
    }
    if (root) {
      std::printf("# E_pot = %.6f, T = %.1f K, max-rank ghosts = %llu\n",
                  res.potential_energy, sys.temperature(),
                  static_cast<unsigned long long>(
                      res.max_rank.ghost_atoms_imported));
      if (balance != "off")
        std::printf("# balance: %d rebalance(s), last max/mean work ratio "
                    "%.4f\n",
                    res.rebalances, res.last_balance_ratio);
      if (cache_cfg.enabled)
        // Collective decision: every rank counts the same events, so the
        // max over ranks is the cluster-wide count.
        std::printf("# tuple_cache: %llu rebuild(s), %llu reuse step(s)\n",
                    static_cast<unsigned long long>(
                        res.max_rank.cache_rebuilds),
                    static_cast<unsigned long long>(
                        res.max_rank.cache_reuse_steps));
      if (durable)
        std::printf("# ckpt: %lld snapshot(s), restored from step %lld, "
                    "%d recover(y/ies)\n",
                    res.snapshots_written, res.restored_step,
                    res.recoveries);
    }
  } else {
    SCMD_REQUIRE(balance == "off",
                 "balance needs a parallel run (set ranks > 1)");

    // Serial durability: restore replaces the built system *before* the
    // engine primes forces from it, so the resumed trajectory continues
    // exactly where the snapshot left off.
    std::optional<ckpt::CheckpointDir> cdir;
    if (!checkpoint_dir.empty())
      cdir.emplace(checkpoint_dir, checkpoint_retain);
    const auto fault = ckpt::fault_plan_from_env();
    long long start_step = 0;
    if (restore != "off") {
      std::optional<ckpt::CheckpointData> data;
      if (restore != "auto") {
        data = ckpt::read_checkpoint(restore);
      } else if (cdir) {
        data = cdir->load_latest();
      }
      if (data) {
        SCMD_REQUIRE(data->system.num_atoms() == sys.num_atoms(),
                     "restored snapshot has a different atom count than "
                     "the configured system");
        SCMD_REQUIRE(data->clock.step <= steps,
                     "restored snapshot is past this run's step budget");
        sys = std::move(data->system);
        start_step = data->clock.step;
        if (data->rng) rng.set_state(*data->rng);
        std::printf("# restore: resuming at step %lld\n", start_step);
      }
    }

    SerialEngineConfig ecfg;
    ecfg.dt = dt;
    ecfg.num_threads = static_cast<int>(cfg.get_int("threads", 1));
    ecfg.measure_force_set = measure_fs;
    // phase_hist.* channels are derived from trace spans; when metrics
    // are on without trace_out, an internal session feeds them.
    obs::TraceSession internal_trace;
    obs::TraceSession* span_source =
        trace ? trace.get() : (metrics ? &internal_trace : nullptr);
    ecfg.trace = span_source;
    ecfg.tuple_cache = cache_cfg;
    SerialEngine engine(sys, *field,
                        make_strategy(strategy, *field, measure_fs), ecfg);

    std::unique_ptr<XyzWriter> traj;
    if (cfg.has("traj")) {
      traj = std::make_unique<XyzWriter>(cfg.get("traj", "out.xyz"),
                                         species_symbols(field_name));
    }
    std::unique_ptr<BerendsenThermostat> thermo;
    if (tau_fs > 0.0) {
      thermo = std::make_unique<BerendsenThermostat>(
          cfg.get_double("temperature", 300.0),
          tau_fs * units::kFemtosecond);
    }

    // Step s record: engine state after s steps; the s=0 work delta is
    // the constructor's priming force pass.  Deltas come from cumulative
    // counter snapshots, never from clear_counters().
    EngineCounters prev_counters;
    std::size_t span_cursor = 0;
    const auto record_obs = [&](int s) {
      if (!metrics) return;
      obs::StepSample sample;
      sample.potential_energy = engine.potential_energy();
      sample.total_energy = engine.total_energy();
      sample.temperature = sys.temperature();
      sample.work = engine.counters().delta_since(prev_counters);
      prev_counters = engine.counters();
      sample.max_n = field->max_n();
      obs::record_step(*metrics, sample);
      // Drain the spans recorded since the previous record into the
      // log-bucketed phase_hist.* latency histograms.
      const auto spans = span_source->events_since(span_cursor);
      span_cursor += spans.size();
      obs::observe_phase_events(*metrics, spans);
      if (s % (metrics_every > 0 ? metrics_every : 1) == 0 || s == steps)
        metrics->emit(s);
    };

    // Snapshot after `done` completed steps: full resumable state —
    // atoms, clock, RNG stream, thermostat, tuple-cache epoch.
    long long snapshots = 0;
    const auto write_snapshot = [&](long long done) {
      ckpt::CheckpointData data;
      data.system = sys;
      data.clock.step = done;
      data.clock.total_steps = steps;
      data.clock.dt = dt;
      data.rng = rng.state();
      if (thermo) {
        data.thermo =
            ckpt::ThermoState{1, cfg.get_double("temperature", 300.0),
                              tau_fs * units::kFemtosecond};
      }
      data.cache = ckpt::CacheState{engine.counters().cache_rebuilds,
                                    cache_cfg.skin};
      cdir->write(data);
      ++snapshots;
      if (wal) {
        ckpt::TrajFrame frame;
        frame.step = done;
        const auto pos = sys.positions();
        const auto vel = sys.velocities();
        frame.pos.assign(pos.begin(), pos.end());
        frame.vel.assign(vel.begin(), vel.end());
        wal->append(ckpt::WalRecordType::kTrajectory,
                    ckpt::encode_traj_frame(frame));
        wal->sync();
      }
      if (metrics) {
        metrics->add("ckpt.snapshots", 1);
        metrics->set("ckpt.last_step", static_cast<double>(done));
        if (wal)
          metrics->set("ckpt.wal_bytes",
                       static_cast<double>(wal->bytes_written()));
      }
    };

    std::printf("# %8s %14s %14s %10s\n", "step", "E_pot", "E_total",
                "T(K)");
    for (int s = static_cast<int>(start_step); s <= steps; ++s) {
      record_obs(s);
      if (log_every > 0 && s % log_every == 0) {
        std::printf("  %8d %14.6f %14.6f %10.1f\n", s,
                    engine.potential_energy(), engine.total_energy(),
                    sys.temperature());
        if (traj) traj->write_frame(sys, "step=" + std::to_string(s));
      }
      if (s == steps) break;  // state after the final step is recorded
      if (thermo) {
        engine.step(*thermo);
      } else {
        engine.step();
      }
      const long long done = s + 1;
      // Fault before snapshot: a killed run never checkpoints the step
      // it died on, so recovery resumes from the previous snapshot.
      ckpt::maybe_kill(fault, 0, done, nullptr);
      if (checkpoint_every > 0 &&
          (done % checkpoint_every == 0 || done == steps)) {
        write_snapshot(done);
      }
    }
    if (checkpoint_every > 0)
      std::printf("# ckpt: %lld snapshot(s) in %s\n", snapshots,
                  checkpoint_dir.c_str());
    if (cache_cfg.enabled)
      std::printf("# tuple_cache: %llu rebuild(s), %llu reuse step(s)\n",
                  static_cast<unsigned long long>(
                      engine.counters().cache_rebuilds),
                  static_cast<unsigned long long>(
                      engine.counters().cache_reuse_steps));
    if (cfg.get_bool("measure_pressure", false)) {
      const Pressure p = measure_pressure(sys, *field, "SC");
      std::printf("# pressure: total %.6g eV/A^3 (kinetic %.3g, virial "
                  "%.3g)\n",
                  p.total(), p.kinetic, p.virial);
    }
  }

  if (checking && root)
    std::printf("# check: %llu invariant check(s) verified, zero "
                "violations\n",
                static_cast<unsigned long long>(check::checks_passed()));

  if (trace) {
    trace->save(cfg.get("trace_out", ""));
    std::printf("# trace: %s (%zu spans; open in chrome://tracing or "
                "ui.perfetto.dev)\n",
                cfg.get("trace_out", "").c_str(), trace->num_events());
  }
  if (metrics)
    std::printf("# metrics: %s\n", cfg.get("metrics_out", "").c_str());

  // Only rank 0's `sys` holds the gathered final state in a TCP run.
  if (cfg.has("checkpoint_out") && root)
    save_checkpoint(sys, cfg.get("checkpoint_out", ""));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::vector<std::pair<std::string, std::string>> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos || eq == 2) {
        std::fprintf(stderr, "error: flags take the form --key=value: %s\n",
                     arg.c_str());
        return 2;
      }
      std::string key = arg.substr(2, eq - 2);
      for (char& c : key) {
        if (c == '-') c = '_';
      }
      overrides.emplace_back(key, arg.substr(eq + 1));
    } else if (config_path.empty()) {
      config_path = arg;
    } else {
      std::fprintf(stderr, "error: more than one config file given\n");
      return 2;
    }
  }
  if (config_path.empty()) {
    std::fprintf(stderr, "usage: %s <config-file> [--key=value ...]\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(config_path, overrides);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
