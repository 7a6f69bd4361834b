#include <sstream>
#include <utility>

#include "workloads.hpp"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, grouped by the repository module it measures.
// BENCHMARK.json lists the same names in the same order.
constexpr LayerMetric kLayerMetrics[] = {
    // tuples: UCP search and the tuple cache
    {"tuples.search_steps_per_step", "count"},
    {"tuples.accept_frac.n2", "ratio"},
    {"tuples.accept_frac.n3", "ratio"},
    {"tuples.build_ms_per_rebuild", "ms"},
    {"tuples.rebuild_frac", "ratio"},
    {"tuples.replay_useful_frac", "ratio"},
    // tuples/kernels
    {"kernels.evals_per_step.n2", "count"},
    {"kernels.evals_per_step.n3", "count"},
    {"kernels.replay_ms_per_step", "ms"},
    {"kernels.ns_per_eval", "ns"},
    // cell, engines, md
    {"cell.binning_ms_per_step", "ms"},
    {"engines.fold_ms_per_step", "ms"},
    {"md.integrate_ms_per_step", "ms"},
    // set-up: system build, strategy construction, priming force pass
    {"setup.system_s", "s"},
    {"setup.strategy_s", "s"},
    {"setup.prime_s", "s"},
    // parallel: run_parallel_md_rank and the halo exchange
    {"exchange.import_ms_per_step", "ms"},
    {"exchange.refresh_ms_per_step", "ms"},
    {"exchange.write_back_ms_per_step", "ms"},
    {"exchange.migrate_ms_per_step", "ms"},
    {"exchange.ghost_atoms_per_step", "count"},
    {"exchange.bytes_per_step", "bytes"},
    {"parallel.rank_busy_max_over_mean", "ratio"},
    {"parallel.wait_frac", "ratio"},
    // net
    {"net.messages_per_step", "count"},
    {"net.bytes_per_step", "bytes"},
    {"net.recv_stall_ms_per_step", "ms"},
    {"net.collectives_per_step", "count"},
    {"net.collective_ms_per_step", "ms"},
    {"net.max_mailbox_depth", "count"},
    {"net.bootstrap_s", "s"},
    // balance
    {"balance.work_ratio_static", "ratio"},
    {"balance.work_ratio", "ratio"},
    {"balance.rebalances", "count"},
    {"balance.ms_per_rebalance", "ms"},
    {"balance.migrated_atoms", "count"},
    // obs
    {"obs.telemetry_ms_per_step", "ms"},
    {"obs.telemetry_bytes_per_step", "bytes"},
    {"obs.trace_overhead_frac", "ratio"},
    // ckpt
    {"ckpt.snapshots", "count"},
    {"ckpt.snapshot_ms", "ms"},
    {"ckpt.snapshot_bytes", "bytes"},
    // serve
    {"serve.bootstrap_s", "s"},
    {"serve.submit_ms_p50", "ms"},
    {"serve.queue_wait_s_p50", "s"},
    {"serve.job_run_s_p50", "s"},
    {"serve.job_latency_s_p90", "s"},
    {"serve.jobs_per_s", "1/s"},
    {"serve.stream_bytes_per_job", "bytes"},
    {"serve.rejected", "count"},
    // memory: tuple cache, halo and transport buffers, trace buffers
    {"peak_rss_mb", "MB"},
    // the exclusive-time table's totals
    {"layers.step_ms", "ms"},
    {"layers.unattributed_ms_per_step", "ms"},
};

}  // namespace

void emit_layer_metrics(const LayerMetrics& m, Report& rep) {
  LayerMetrics all = m;
  all.set("peak_rss_mb", peak_rss_mb(), 1);
  for (const LayerMetric& lm : kLayerMetrics) {
    const auto it = all.values.find(lm.name);
    const std::pair<double, std::size_t> v =
        it == all.values.end() ? std::pair<double, std::size_t>{0.0, 0}
                             : it->second;
    rep.metric(lm.name, v.first, lm.unit, v.second);
  }
}

void TupleWork::add_step(bool rebuild, const double search_n[4],
                         const double accepted_n[4], const double evals_n[4],
                         double replayed_tuples) {
  (rebuild ? rebuild_steps : reuse_steps) += 1;
  for (int n = 2; n <= 3; ++n) {
    search += search_n[n];
    evals[n] += evals_n[n];
    if (rebuild) {
      rebuild_search[n] += search_n[n];
      rebuild_accepted[n] += accepted_n[n];
    } else {
      reuse_evals += evals_n[n];
    }
  }
  if (!rebuild) replayed += replayed_tuples;
}

TupleWork& TupleWork::operator+=(const TupleWork& o) {
  rebuild_steps += o.rebuild_steps;
  reuse_steps += o.reuse_steps;
  search += o.search;
  reuse_evals += o.reuse_evals;
  replayed += o.replayed;
  for (int n = 2; n <= 3; ++n) {
    evals[n] += o.evals[n];
    rebuild_search[n] += o.rebuild_search[n];
    rebuild_accepted[n] += o.rebuild_accepted[n];
  }
  return *this;
}

void set_span_metrics(const TupleWork& work, const LayerTotals& layers,
                      std::size_t samples, LayerMetrics& m, Report& rep) {
  const std::size_t n = samples;
  const double steps = work.rebuild_steps + work.reuse_steps;
  if (steps > 0) {
    m.set("tuples.search_steps_per_step", work.search / steps, n);
    m.set("tuples.rebuild_frac", work.rebuild_steps / steps, n);
    for (int k = 2; k <= 3; ++k) {
      const std::string sfx = ".n" + std::to_string(k);
      if (work.rebuild_search[k] > 0) {
        m.set("tuples.accept_frac" + sfx,
              work.rebuild_accepted[k] / work.rebuild_search[k], n);
      }
      m.set("kernels.evals_per_step" + sfx, work.evals[k] / steps, n);
    }
  }
  if (work.replayed > 0)
    m.set("tuples.replay_useful_frac", work.reuse_evals / work.replayed, n);
  // Search spans per rank, per rebuild step.
  if (work.rebuild_steps > 0) {
    m.set("tuples.build_ms_per_rebuild",
          layers.ms_per_step("tuples.build") * steps / work.rebuild_steps, n);
  }
  const double replay_ms = layers.ms_per_step("kernels.replay");
  m.set("kernels.replay_ms_per_step", replay_ms, n);
  if (work.reuse_evals > 0) {
    m.set("kernels.ns_per_eval",
          replay_ms * 1e6 * static_cast<double>(layers.lane_steps) /
              work.reuse_evals,
          n);
  }
  const std::pair<const char*, const char*> rows[] = {
      {"cell.binning_ms_per_step", "cell."},
      {"engines.fold_ms_per_step", "engines.fold"},
      {"md.integrate_ms_per_step", "md."},
      {"exchange.import_ms_per_step", "exchange.import"},
      {"exchange.refresh_ms_per_step", "exchange.refresh"},
      {"exchange.write_back_ms_per_step", "exchange.write_back"},
      {"exchange.migrate_ms_per_step", "exchange.migrate"},
  };
  for (const auto& [metric, prefix] : rows)
    m.set(metric, layers.ms_per_step(prefix), n);
  if (layers.lane_steps > 0) {
    const double lane_steps = static_cast<double>(layers.lane_steps);
    m.set("layers.step_ms", layers.window_us / 1000.0 / lane_steps, n);
    m.set("layers.unattributed_ms_per_step",
          layers.unattributed_us / 1000.0 / lane_steps, n);
  }
  for (const std::string& line : layers.lines()) rep.note(line);
}

void emit_end_to_end(const EndToEnd& e, Report& rep) {
  std::ostringstream samples;
  samples << "atom_steps_per_s samples:";
  for (double v : e.atom_steps_per_s)
    samples << " " << static_cast<long long>(v);
  rep.note(samples.str());
  rep.metric("setup_s", median(e.setup_s), "s", e.setup_s.size());
  rep.metric("atom_steps_per_s", median(e.atom_steps_per_s), "1/s",
             e.atom_steps_per_s.size());
  rep.metric("job_latency_s_p50", median(e.job_latency_s), "s",
             e.job_latency_s.size());
}

}  // namespace perfbench
