#pragma once

// The four workloads (BENCHMARK.json):
//   serial_cached   SerialEngine, one thread, uniform silica
//   inproc4_cached  run_parallel_md_rank on 4 rank threads, InProcTransport
//   tcp4_twophase   run_parallel_md_rank on 4 rank threads, loopback TCP,
//                   two-phase silica, balance=auto, telemetry, checkpoints
//   serve_jobs      ServeDaemon + 3 workers, 2 closed-loop clients
// Untraced runs report the end-to-end metrics; traced runs report every
// per-layer metric (0 where the workload bypasses the layer).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"
#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  ///< directory for checkpoint files
};

/// Per-layer metric values of one traced run; names absent from the map
/// are reported as 0.
struct LayerMetrics {
  std::map<std::string, std::pair<double, std::size_t>> values;
  void set(const std::string& name, double value, std::size_t samples) {
    values[name] = {value, samples};
  }
};

/// Emit every per-layer metric, in the BENCHMARK.json order.
void emit_layer_metrics(const LayerMetrics& m, Report& rep);

/// Tuple work of the timed steps of traced operations, split into
/// rebuild steps (UCP search + list build) and reuse steps (replay).
/// Counts are summed over ranks.
struct TupleWork {
  double rebuild_steps = 0, reuse_steps = 0;
  double search = 0, evals[4] = {};
  double rebuild_search[4] = {}, rebuild_accepted[4] = {};
  double reuse_evals = 0, replayed = 0;

  void add_step(bool rebuild, const double search_n[4],
                const double accepted_n[4], const double evals_n[4],
                double replayed_tuples);
  TupleWork& operator+=(const TupleWork& o);
};

/// The tuples.*, kernels.*, cell/engines/md and exchange span metrics and
/// the table totals, from the work counts and the exclusive-time table;
/// also prints the table.  `samples` is the number of traced operations.
void set_span_metrics(const TupleWork& work, const LayerTotals& layers,
                      std::size_t samples, LayerMetrics& m, Report& rep);

/// The end-to-end samples of one untraced run.  A job is one complete
/// MD run (set-up included) on the MD workloads and one served job on
/// serve_jobs.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> atom_steps_per_s;
  std::vector<double> job_latency_s;
};
/// Emit the end-to-end metrics, medians of the samples.
void emit_end_to_end(const EndToEnd& e, Report& rep);

void run_serial_cached(const Options& opt, Report& rep);
void run_parallel(const Options& opt, Report& rep, bool tcp);
void run_serve_jobs(const Options& opt, Report& rep);

}  // namespace perfbench
