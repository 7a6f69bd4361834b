// serial_cached: the plain single-threaded baseline of the MD problem.
// One operation builds the system, constructs the strategy and the
// engine (whose constructor runs the priming force pass) and times a
// fixed number of steps one call at a time.  Every operation of a run
// replays the same seeded input, so their work counts must agree.

#include <algorithm>
#include <memory>

#include "engines/serial_engine.hpp"
#include "engines/strategy.hpp"
#include "gates.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "md/units.hpp"
#include "potentials/vashishta.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSteps = 120;
constexpr double kDtFs = 0.5;
constexpr double kSkin = 0.5;

struct SerialOp {
  double system_s = 0, strategy_s = 0, prime_s = 0, steps_s = 0, total_s = 0;
  scmd::EngineCounters counters;  ///< cumulative, priming pass included
  double max_drift = 0.0;
  std::string failure;
  std::vector<LaneTable> tables;  ///< traced operations only
};

/// `work` non-null traces the operation and adds its tuple work there.
SerialOp serial_op(std::uint64_t seed, TupleWork* work) {
  const bool traced = work != nullptr;
  const scmd::VashishtaSiO2 field;
  SerialOp op;
  const Clock::time_point t0 = Clock::now();
  scmd::ParticleSystem sys = uniform_silica(seed);
  op.system_s = seconds_since(t0);

  Clock::time_point t = Clock::now();
  std::unique_ptr<scmd::ForceStrategy> strategy =
      scmd::make_strategy("SC", field);
  op.strategy_s = seconds_since(t);

  scmd::obs::TraceSession session;
  scmd::SerialEngineConfig cfg;
  cfg.dt = kDtFs * scmd::units::kFemtosecond;
  cfg.tuple_cache.enabled = true;
  cfg.tuple_cache.skin = kSkin;
  cfg.trace = traced ? &session : nullptr;
  t = Clock::now();
  scmd::SerialEngine engine(sys, field, std::move(strategy), cfg);
  op.prime_s = seconds_since(t);

  const double e0 = engine.total_energy();
  scmd::EngineCounters prev = engine.counters();
  for (int s = 0; s < kSteps; ++s) {
    t = Clock::now();
    engine.step();
    op.steps_s += seconds_since(t);
    const double e = engine.total_energy();
    op.max_drift = std::max(op.max_drift, relative_drift(e0, e));
    if (op.failure.empty()) op.failure = check_drift(e0, e);
    if (traced) {
      const scmd::EngineCounters d = engine.counters().delta_since(prev);
      prev = engine.counters();
      double search[4] = {}, accepted[4] = {}, evals[4] = {};
      for (int n = 2; n <= 3; ++n) {
        search[n] = static_cast<double>(d.tuples[n].search_steps);
        accepted[n] = static_cast<double>(d.tuples[n].accepted);
        evals[n] = static_cast<double>(d.evals[n]);
      }
      work->add_step(d.cache_rebuilds > 0, search, accepted, evals,
                     static_cast<double>(d.cache_replayed));
    }
  }
  op.total_s = seconds_since(t0);
  op.counters = engine.counters();
  if (traced) op.tables = exclusive_tables(session.events());
  return op;
}

double atom_steps_per_s(const SerialOp& op) {
  return static_cast<double>(kAtoms) * kSteps / op.steps_s;
}

}  // namespace

void run_serial_cached(const Options& opt, Report& rep) {
  const Clock::time_point start = Clock::now();
  EndToEnd e2e;
  std::vector<double> untraced_rate, traced_rate, system_s, strategy_s, prime_s;
  LayerTotals layers;
  TupleWork work;
  scmd::EngineCounters first_counts;
  bool have_first = false;
  double max_drift = 0.0;

  // Traced runs alternate an untraced and a traced operation, so the
  // tracing overhead is measured under the same conditions.
  for (int i = 0; i < 3 || seconds_since(start) < opt.seconds; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    SerialOp op = serial_op(opt.seed, traced ? &work : nullptr);
    max_drift = std::max(max_drift, op.max_drift);
    if (op.failure.empty()) {
      if (!have_first) {
        first_counts = op.counters;
        have_first = true;
      } else {
        op.failure = check_same_counts(first_counts, op.counters);
      }
    }
    rep.operation(!op.failure.empty(), "serial_cached: " + op.failure);
    if (!op.failure.empty()) continue;

    (traced ? traced_rate : untraced_rate).push_back(atom_steps_per_s(op));
    if (!traced) {
      e2e.setup_s.push_back(op.system_s + op.strategy_s + op.prime_s);
      e2e.job_latency_s.push_back(op.total_s);
      continue;
    }
    system_s.push_back(op.system_s);
    strategy_s.push_back(op.strategy_s);
    prime_s.push_back(op.prime_s);
    layers.add(op.tables);
  }
  e2e.atom_steps_per_s = untraced_rate;
  rep.note("max relative NVE drift over any step: " +
           std::to_string(max_drift));

  if (!opt.trace) {
    emit_end_to_end(e2e, rep);
    return;
  }

  LayerMetrics m;
  const std::size_t ops = traced_rate.size();
  set_span_metrics(work, layers, ops, m, rep);
  m.set("setup.system_s", median(system_s), ops);
  m.set("setup.strategy_s", median(strategy_s), ops);
  m.set("setup.prime_s", median(prime_s), ops);
  m.set("parallel.rank_busy_max_over_mean", 1.0, ops);
  if (!untraced_rate.empty())
    m.set("obs.trace_overhead_frac",
          median(traced_rate) / median(untraced_rate) - 1.0, ops);
  emit_layer_metrics(m, rep);
}

}  // namespace perfbench
