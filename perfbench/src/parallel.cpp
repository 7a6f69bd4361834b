// inproc4_cached and tcp4_twophase: run_parallel_md_rank, called once
// per rank thread.
//
// run_parallel_md_rank gives no hook at its first step, so time per step and
// set-up come from differencing: operations alternate between kShort and
// kLong steps of the same input, and each pair gives
//   step time = (T_long - T_short) / (kLong - kShort),
//   set-up    = T_short - kShort * step time
// (set-up thus also holds the end-of-run gather and teardown).
//
// Every run first checks run_parallel_md_rank against SerialEngine over a short
// prefix of the same input; every operation then has to conserve atoms
// and NVE energy and repeat the work counts of the first operation of
// its length.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "balance/rebalancer.hpp"
#include "engines/serial_engine.hpp"
#include "gates.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "md/units.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "parallel/comm.hpp"
#include "parallel/parallel_engine.hpp"
#include "potentials/vashishta.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 4;
constexpr int kShort = 1;
constexpr int kLong = 240;
constexpr int kParitySteps = 10;
constexpr double kSkin = 0.5;

struct Spec {
  const char* name;
  bool tcp;
  bool two_phase;      ///< split_two_phase_silica instead of uniform
  bool balance;        ///< balance=auto
  bool metrics;        ///< rank-0 metrics registry: telemetry streams
  int checkpoint_every;
  double dt_fs;
};

// inproc4_cached: serial_cached's input and step, split over 4 ranks,
// observability off.
constexpr Spec kInproc{"inproc4_cached", false, false, false, false, 0, 0.5};
// tcp4_twophase: the load-balancing input over real sockets, with
// telemetry to rank 0 and periodic snapshots.  The squashed slab heats
// from 300 K to several thousand K within a few hundred steps, so the
// time step is shorter than the uniform workloads' to keep NVE drift
// within the gate.
constexpr Spec kTcp{"tcp4_twophase", true, true, true, true, 80, 0.2};

scmd::BalanceConfig balance_config() {
  scmd::BalanceConfig bc;
  bc.mode = scmd::BalanceConfig::Mode::kAuto;
  return bc;
}

/// Balance outcomes one rank observed, recorded by TimedBalancer.
struct BalanceLog {
  std::vector<double> ratios;          ///< measured max/mean per on_step
  std::vector<double> rebalance_ms;    ///< on_step calls that re-cut
  std::uint64_t migrated_atoms = 0;
};

/// RankBalancer decorator: times each on_step and logs its outcome.
class TimedBalancer final : public scmd::RankBalancer {
 public:
  TimedBalancer(std::unique_ptr<scmd::RankBalancer> inner, BalanceLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void on_step(scmd::Comm& comm, scmd::RankEngine& engine) override {
    const Clock::time_point t0 = Clock::now();
    inner_->on_step(comm, engine);
    const double ms = seconds_since(t0) * 1e3;
    const scmd::BalanceStepInfo& info = inner_->last_step();
    log_.ratios.push_back(info.ratio);
    if (info.rebalanced) log_.rebalance_ms.push_back(ms);
    log_.migrated_atoms += info.migrated_atoms;
  }
  void on_cached_step() override { inner_->on_cached_step(); }
  const scmd::BalanceStepInfo& last_step() const override {
    return inner_->last_step();
  }

 private:
  std::unique_ptr<scmd::RankBalancer> inner_;
  BalanceLog& log_;
};

/// Metrics sink adding each timed step's tuple work (the rank-summed
/// telemetry record) to a TupleWork; record 0 is the priming pass.
class StepRecorder final : public scmd::obs::MetricsSink {
 public:
  explicit StepRecorder(TupleWork& work) : work_(work) {}
  void write_step(long long step,
                  const scmd::obs::MetricsRegistry& reg) override {
    if (step < 1) return;
    auto v = [&reg](const std::string& name) {
      return reg.has(name) ? reg.value(name) : 0.0;
    };
    double search[4] = {}, accepted[4] = {}, evals[4] = {};
    for (int n = 2; n <= 3; ++n) {
      const std::string sfx = ".n" + std::to_string(n);
      search[n] = v("search.steps" + sfx);
      accepted[n] = v("search.accepted" + sfx);
      evals[n] = v("evals" + sfx);
    }
    work_.add_step(v("tuple_cache.rebuilds") > 0, search, accepted, evals,
                   v("tuple_cache.replayed"));
  }

 private:
  TupleWork& work_;
};

struct RankSide {
  double bootstrap_s = 0.0;
  NetTally net;
  BalanceLog balance;
};

struct ParallelOp {
  int steps = 0;
  double system_s = 0.0, total_s = 0.0;
  scmd::ParallelRunResult result;  ///< rank 0's: cluster totals
  scmd::ParticleSystem final_state;
  std::string failure;
  std::vector<RankSide> ranks;
  // Traced operations only.
  std::vector<LaneTable> tables;
  TupleWork work;
};

/// One run of `steps` steps; `input_override` replaces the generated
/// input (the parity check passes the copy it also gives SerialEngine).
ParallelOp parallel_op(const Spec& spec, const Options& opt, int steps,
                       bool traced,
                       const scmd::ParticleSystem* input_override) {
  static int op_counter = 0;
  const scmd::VashishtaSiO2 field;
  ParallelOp op;
  op.steps = steps;
  op.ranks.resize(kRanks);
  const Clock::time_point t0 = Clock::now();
  const scmd::ParticleSystem input =
      input_override != nullptr ? *input_override
      : spec.two_phase          ? split_two_phase_silica(opt.seed)
                                : uniform_silica(opt.seed);
  op.system_s = seconds_since(t0);

  const scmd::ProcessGrid grid = scmd::ProcessGrid::factor(kRanks);
  std::unique_ptr<scmd::Cluster> cluster;
  int rendezvous_fd = -1, rendezvous_port = 0;
  if (spec.tcp) {
    std::tie(rendezvous_fd, rendezvous_port) =
        scmd::bind_listener("127.0.0.1", 0);
  } else {
    const Clock::time_point tb = Clock::now();
    cluster = std::make_unique<scmd::Cluster>(kRanks);
    op.ranks[0].bootstrap_s = seconds_since(tb);
  }

  scmd::obs::TraceSession trace;
  scmd::obs::MetricsRegistry metrics;
  std::ostringstream jsonl;
  if (spec.metrics)
    metrics.add_sink(std::make_unique<scmd::obs::JsonlSink>(jsonl));
  if (traced) metrics.add_sink(std::make_unique<StepRecorder>(op.work));

  std::string ckpt_dir;
  if (spec.checkpoint_every > 0) {
    ckpt_dir = opt.scratch + "/ckpt_" + std::to_string(::getpid()) + "_" +
               std::to_string(op_counter++);
  }

  std::vector<std::exception_ptr> errors(kRanks);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      RankSide& side = op.ranks[static_cast<std::size_t>(r)];
      try {
        std::unique_ptr<scmd::TcpTransport> tcp;
        scmd::Transport* base = nullptr;
        if (spec.tcp) {
          scmd::TcpConfig tc;
          tc.rank = r;
          tc.num_ranks = kRanks;
          tc.rendezvous_port = rendezvous_port;
          if (r == 0) tc.rendezvous_fd = rendezvous_fd;
          const Clock::time_point tb = Clock::now();
          tcp = std::make_unique<scmd::TcpTransport>(tc);
          side.bootstrap_s = seconds_since(tb);
          base = tcp.get();
        } else {
          base = &cluster->transport(r);
        }
        std::optional<ProbeTransport> probe;
        if (traced) probe.emplace(*base);
        scmd::Comm comm(probe ? static_cast<scmd::Transport&>(*probe) : *base);

        scmd::ParticleSystem sys = input;
        scmd::ParallelRunConfig cfg;
        cfg.dt = spec.dt_fs * scmd::units::kFemtosecond;
        cfg.num_steps = steps;
        cfg.tuple_cache.enabled = true;
        cfg.tuple_cache.skin = kSkin;
        if (spec.balance) {
          auto factory = scmd::make_rebalancer_factory(balance_config());
          if (traced) {
            cfg.make_balancer = [&op, factory](int rank) {
              return std::make_unique<TimedBalancer>(
                  factory(rank),
                  op.ranks[static_cast<std::size_t>(rank)].balance);
            };
          } else {
            cfg.make_balancer = factory;
          }
        }
        if (r == 0) {
          if (spec.metrics || traced) cfg.metrics = &metrics;
          if (traced) cfg.trace = &trace;
        }
        if (!ckpt_dir.empty()) {
          cfg.durability.checkpoint_every = spec.checkpoint_every;
          cfg.durability.checkpoint_dir = ckpt_dir;
        }
        scmd::ParallelRunResult res =
            scmd::run_parallel_md_rank(sys, field, "SC", grid, cfg, comm);
        if (probe) side.net = probe->tally();
        if (r == 0) {
          op.result = res;
          op.final_state = std::move(sys);
        }
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  op.total_s = seconds_since(t0);
  if (!ckpt_dir.empty()) std::filesystem::remove_all(ckpt_dir);
  for (const std::exception_ptr& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      op.failure = std::string("rank threw: ") + ex.what();
    }
    break;
  }
  if (traced && op.failure.empty())
    op.tables = exclusive_tables(trace.events());
  return op;
}

/// Serial reference over a short prefix; returns the failure reason and
/// sets the initial total energy of the input.
std::string parity_check(const Spec& spec, const Options& opt,
                         const scmd::ParticleSystem& input, double* e0) {
  const scmd::VashishtaSiO2 field;
  scmd::ParticleSystem ref = input;
  scmd::SerialEngineConfig cfg;
  cfg.dt = spec.dt_fs * scmd::units::kFemtosecond;
  cfg.tuple_cache.enabled = true;
  cfg.tuple_cache.skin = kSkin;
  scmd::SerialEngine engine(ref, field, scmd::make_strategy("SC", field), cfg);
  *e0 = engine.total_energy();
  for (int s = 0; s < kParitySteps; ++s) engine.step();

  ParallelOp op = parallel_op(spec, opt, kParitySteps, false, &input);
  if (!op.failure.empty()) return op.failure;
  return check_parity(ref, op.final_state);
}

/// Per-step difference of two tallies taken kLong and kShort steps in.
double per_step(double long_v, double short_v) {
  return (long_v - short_v) / static_cast<double>(kLong - kShort);
}

struct Pair {
  ParallelOp shorter, longer;
  bool ok() const { return shorter.failure.empty() && longer.failure.empty(); }
  double step_s() const { return per_step(longer.total_s, shorter.total_s); }
  double setup_s() const { return shorter.total_s - kShort * step_s(); }
};

bool is_obs_window(std::size_t w) {
  const std::string name = window_name(w);
  return name.rfind("telemetry", 0) == 0 || name.rfind("clock", 0) == 0;
}

/// The traffic of the workload itself.  A traced parallel run always
/// streams telemetry (the driver's only way to bring the ranks' spans to
/// rank 0), so on a workload whose untraced run streams none, the
/// telemetry frames and clock sync are the tracer's own: they are taken
/// out here, together with the time spent receiving them, and reported
/// under obs.* only.
NetTally workload_traffic(const Spec& spec, NetTally t) {
  if (spec.metrics) return t;
  for (std::size_t w = 0; w < kNumWindows; ++w) {
    if (!is_obs_window(w)) continue;
    t.recv_stall_ns = std::max(0.0, t.recv_stall_ns - t.windows[w].recv_ns);
    t.windows[w] = NetTally::Window{};
  }
  return t;
}

NetTally sum_net(const ParallelOp& op) {
  NetTally t;
  for (const RankSide& s : op.ranks) t += s.net;
  return t;
}

NetTally sum_workload_net(const Spec& spec, const ParallelOp& op) {
  NetTally t;
  for (const RankSide& s : op.ranks) t += workload_traffic(spec, s.net);
  return t;
}

void traced_metrics(const Spec& spec, const std::vector<Pair>& traced,
                    const std::vector<double>& untraced_rate,
                    const std::vector<double>& strategy_s, Report& rep) {
  LayerMetrics m;
  const std::size_t n = traced.size();
  LayerTotals layers;
  std::vector<double> system_s, bootstrap_s, rate;
  // Long minus short operation, summed over pairs: the workload's own
  // traffic, and everything the probes saw.
  NetTally net, net_all;
  double ghosts = 0, mailbox = 0, snapshots = 0, snapshot_bytes = 0,
         rebalances = 0, migrated = 0;
  std::vector<double> static_ratio, ratio, rebalance_ms;
  std::vector<double> busy_ratio, wait_frac;
  TupleWork work;  // the long operations' timed steps
  for (const Pair& p : traced) {
    rate.push_back(static_cast<double>(kAtoms) / p.step_s());
    layers.add(p.longer.tables);
    system_s.push_back(p.longer.system_s);
    double boot = 0;
    for (const RankSide& s : p.longer.ranks) {
      boot = std::max(boot, s.bootstrap_s);
      mailbox = std::max(mailbox, s.net.max_mailbox_depth);
      migrated += static_cast<double>(s.balance.migrated_atoms);
    }
    bootstrap_s.push_back(boot);

    net += sum_workload_net(spec, p.longer);
    net -= sum_workload_net(spec, p.shorter);
    net_all += sum_net(p.longer);
    net_all -= sum_net(p.shorter);
    ghosts += static_cast<double>(p.longer.result.total.ghost_atoms_imported -
                                  p.shorter.result.total.ghost_atoms_imported);
    snapshots += static_cast<double>(p.longer.result.snapshots_written);
    snapshot_bytes += sum_net(p.longer).bytes("ckpt");

    const BalanceLog& b0 = p.longer.ranks[0].balance;
    if (!b0.ratios.empty()) static_ratio.push_back(b0.ratios.front());
    if (!b0.ratios.empty()) ratio.push_back(b0.ratios.back());
    rebalances += static_cast<double>(b0.rebalance_ms.size());
    rebalance_ms.insert(rebalance_ms.end(), b0.rebalance_ms.begin(),
                        b0.rebalance_ms.end());

    // Busy = step time minus time blocked in recv and collectives, per
    // rank; the slowest rank against the mean shows imbalance.
    double busy_max = 0, busy_sum = 0, wait_sum = 0, step_sum = 0;
    for (const LaneTable& t : p.longer.tables) {
      const auto r = static_cast<std::size_t>(t.lane);
      if (r >= p.longer.ranks.size() || t.steps == 0) continue;
      const NetTally L = workload_traffic(spec, p.longer.ranks[r].net);
      const NetTally S = workload_traffic(spec, p.shorter.ranks[r].net);
      const double wait_us =
          per_step(L.recv_ns_total() + L.collective_ns,
                   S.recv_ns_total() + S.collective_ns) /
          1e3;
      const double step_us = t.window_us / static_cast<double>(t.steps);
      const double busy = step_us - wait_us;
      busy_max = std::max(busy_max, busy);
      busy_sum += busy;
      wait_sum += wait_us;
      step_sum += step_us;
    }
    if (busy_sum > 0) {
      busy_ratio.push_back(busy_max / (busy_sum / kRanks));
      wait_frac.push_back(wait_sum / step_sum);
    }

    work += p.longer.work;
  }

  const double dsteps = static_cast<double>(n) * (kLong - kShort);
  set_span_metrics(work, layers, n, m, rep);
  m.set("setup.system_s", median(system_s), n);
  m.set("setup.strategy_s", median(strategy_s), strategy_s.size());
  m.set("setup.prime_s", median(layers.prime_us) / 1e6,
        layers.prime_us.size());
  if (dsteps > 0) {
    // Cluster totals per step; time and collectives per rank per step.
    auto per = [dsteps](double v) { return v / dsteps; };
    auto per_rank_ms = [dsteps](double ns) {
      return ns / 1e6 / dsteps / kRanks;
    };
    m.set("exchange.ghost_atoms_per_step", per(ghosts), n);
    m.set("exchange.bytes_per_step",
          per(net.bytes("import") + net.bytes("writeback") +
              net.bytes("refresh") + net.bytes("migrate")),
          n);
    m.set("net.messages_per_step", per(net.messages()), n);
    m.set("net.bytes_per_step", per(net.bytes()), n);
    m.set("net.recv_stall_ms_per_step", per_rank_ms(net.recv_stall_ns), n);
    m.set("net.collectives_per_step", per(net.collectives) / kRanks, n);
    m.set("net.collective_ms_per_step", per_rank_ms(net.collective_ns), n);
    double obs_bytes = 0, obs_ns = 0;
    for (std::size_t w = 0; w < kNumWindows; ++w) {
      if (!is_obs_window(w)) continue;
      const NetTally::Window& t = net_all.windows[w];
      obs_bytes += t.bytes_sent;
      obs_ns += t.send_ns + t.recv_ns;
    }
    m.set("obs.telemetry_bytes_per_step", per(obs_bytes), n);
    // Time inside send and recv of telemetry frames; the collector's
    // ingest on rank 0 is not separable from the step and stays in
    // layers.unattributed_ms_per_step.
    m.set("obs.telemetry_ms_per_step", per_rank_ms(obs_ns), n);
  }
  m.set("parallel.rank_busy_max_over_mean", median(busy_ratio),
        busy_ratio.size());
  m.set("parallel.wait_frac", median(wait_frac), wait_frac.size());
  m.set("net.max_mailbox_depth", mailbox, n);
  m.set("net.bootstrap_s", median(bootstrap_s), n);
  if (spec.balance) {
    const double ops = static_cast<double>(n);
    m.set("balance.work_ratio_static", median(static_ratio),
          static_ratio.size());
    m.set("balance.work_ratio", median(ratio), ratio.size());
    m.set("balance.rebalances", rebalances / ops, n);
    m.set("balance.ms_per_rebalance", median(rebalance_ms),
          rebalance_ms.size());
    m.set("balance.migrated_atoms", migrated / ops, n);
  }
  if (!untraced_rate.empty()) {
    m.set("obs.trace_overhead_frac",
          median(rate) / median(untraced_rate) - 1.0, n);
  }
  if (spec.checkpoint_every > 0) {
    m.set("ckpt.snapshots", snapshots / static_cast<double>(n), n);
    m.set("ckpt.snapshot_ms", median(layers.snapshot_us) / 1e3,
          layers.snapshot_us.size());
    if (snapshots > 0)
      m.set("ckpt.snapshot_bytes", snapshot_bytes / snapshots, n);
  }
  if (dsteps > 0) {
    rep.note("transport per step, by tag window (sends: cluster total; "
             "time: per rank; \"(tracer)\": traffic only the traced run "
             "sends):");
    char buf[160];
    for (std::size_t w = 0; w < kNumWindows; ++w) {
      const NetTally::Window& t = net_all.windows[w];
      if (t.messages_sent == 0 && t.messages_received == 0) continue;
      std::snprintf(buf, sizeof buf,
                    "  %-20s %8.2f msgs %11.0f bytes  send %7.4f ms  "
                    "recv %7.4f ms",
                    (window_name(w) +
                     (!spec.metrics && is_obs_window(w) ? " (tracer)" : ""))
                        .c_str(),
                    t.messages_sent / dsteps, t.bytes_sent / dsteps,
                    t.send_ns / 1e6 / dsteps / kRanks,
                    t.recv_ns / 1e6 / dsteps / kRanks);
      rep.note(buf);
    }
  }
  emit_layer_metrics(m, rep);
}

}  // namespace

void run_parallel(const Options& opt, Report& rep, bool tcp) {
  const Spec& spec = tcp ? kTcp : kInproc;
  const scmd::VashishtaSiO2 field;
  const scmd::ParticleSystem input =
      spec.two_phase ? split_two_phase_silica(opt.seed)
                     : uniform_silica(opt.seed);

  double e0 = 0.0;
  const std::string parity = parity_check(spec, opt, input, &e0);
  rep.operation(!parity.empty(), std::string(spec.name) + " parity: " + parity);

  const Clock::time_point start = Clock::now();
  EndToEnd e2e;
  std::vector<Pair> traced_pairs;
  std::vector<double> untraced_rate, strategy_s;
  std::optional<scmd::EngineCounters> first[2];  // per length: short, long
  double max_drift = 0.0;

  auto gate = [&](ParallelOp& op) {
    if (op.failure.empty())
      op.failure = check_atoms_conserved(input, op.final_state);
    if (op.failure.empty()) {
      const double e =
          op.result.potential_energy + op.final_state.kinetic_energy();
      max_drift = std::max(max_drift, relative_drift(e0, e));
      op.failure = check_drift(e0, e);
    }
    std::optional<scmd::EngineCounters>& ref = first[op.steps == kLong ? 1 : 0];
    if (op.failure.empty()) {
      if (ref) {
        op.failure = check_same_counts(*ref, op.result.total);
      } else {
        ref = op.result.total;
      }
    }
    rep.operation(!op.failure.empty(),
                  std::string(spec.name) + ": " + op.failure);
  };

  for (int i = 0; i < 2 || seconds_since(start) < opt.seconds; ++i) {
    // Traced runs alternate untraced and traced pairs.
    const bool traced = opt.trace && i % 2 == 1;
    if (traced) {
      const Clock::time_point t = Clock::now();
      (void)scmd::make_strategy("SC", field);
      strategy_s.push_back(seconds_since(t));
    }
    Pair p{parallel_op(spec, opt, kShort, traced, nullptr),
           parallel_op(spec, opt, kLong, traced, nullptr)};
    gate(p.shorter);
    gate(p.longer);
    if (!p.ok()) continue;
    if (traced) {
      traced_pairs.push_back(std::move(p));
      continue;
    }
    untraced_rate.push_back(static_cast<double>(kAtoms) / p.step_s());
    e2e.setup_s.push_back(p.setup_s());
    e2e.job_latency_s.push_back(p.longer.total_s);
  }
  e2e.atom_steps_per_s = untraced_rate;
  rep.note("max relative NVE drift at the end of a run: " +
           std::to_string(max_drift));

  if (!opt.trace) {
    emit_end_to_end(e2e, rep);
    return;
  }
  traced_metrics(spec, traced_pairs, untraced_rate, strategy_s, rep);
}

}  // namespace perfbench
