#pragma once

// Exclusive-time attribution of a traced run.  The engines already emit
// nested phase spans (step > force > search.n2, exchange.import, ...);
// a span's self time is its duration minus what its direct children
// cover.  Over the timed window of each lane — first "step" span start to
// last "step" span end — the self times of all spans plus the uncovered
// remainder ("unattributed": the gaps between steps, where the telemetry
// flush runs) sum to the window exactly.

#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Layer row a span name is attributed to.
std::string layer_of(const std::string& span_name);

struct LaneTable {
  int lane = 0;
  long long steps = 0;         ///< "step" spans in the window
  double window_us = 0.0;      ///< first step start .. last step end
  double prime_us = 0.0;       ///< first "force" span before the first step
  std::map<std::string, double> self_us;  ///< per layer row
  double unattributed_us = 0.0;
  /// Durations of top-level "ckpt.snapshot" spans in the window.
  std::vector<double> snapshot_us;
};

/// One table per lane (tid) that recorded at least one "step" span.
std::vector<LaneTable> exclusive_tables(
    const std::vector<scmd::obs::TraceEvent>& events);

/// Accumulates lane tables over several traced operations.
struct LayerTotals {
  long long lane_steps = 0;  ///< steps summed over lanes and operations
  double window_us = 0.0;
  double unattributed_us = 0.0;
  std::map<std::string, double> self_us;
  std::vector<double> prime_us;      ///< per operation: max over lanes
  std::vector<double> snapshot_us;   ///< every snapshot span on lane 0

  void add(const std::vector<LaneTable>& tables);
  /// Self time of every row whose name starts with `prefix`, in ms per
  /// lane-step.
  double ms_per_step(const std::string& prefix) const;
  /// The table as printable lines (ms per rank per step, with shares).
  std::vector<std::string> lines() const;
};

}  // namespace perfbench
