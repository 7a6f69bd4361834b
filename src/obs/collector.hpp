#pragma once

/// \file collector.hpp
/// Rank-0 telemetry collector: turns the per-rank frame stream into the
/// run's observability artifacts *while the run executes*.
///
/// The collector owns three responsibilities:
///
///  1. **Metric reduction.** Frames carry each rank's per-step
///     EngineCounters delta, potential energy, and cumulative
///     TransportStats snapshot.  When every rank's record for step s has
///     arrived the step is *finalized*: cluster totals, the
///     imbalance.* summary, balance.* scalars, and per-step
///     comm.transport.* deltas are recorded into the registry and
///     emitted on the metrics_every cadence — the same records the old
///     end-of-run gather produced, now available live.
///
///  2. **Clock-aligned trace merging.** Frame spans are timestamped in
///     the sender's local TraceSession microseconds.  set_clock() gives
///     the per-rank offset into rank 0's session timebase (estimated by
///     net/clock_sync.hpp); ingest() re-records each span into the
///     merged session shifted by that offset, on lane tid = rank.
///
///  3. **Live status.** status_json() snapshots the run for the status
///     socket: latest finalized step, per-rank progress and step rate,
///     the current imbalance ratio, mailbox watermarks, and slow-step
///     anomalies (a step span slower than 3x the rank's median).
///
/// Thread safety: all public methods lock an internal mutex, so the
/// driver thread can ingest while a StatusServer thread polls
/// status_json().

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "support/thread_safety.hpp"

namespace scmd::obs {

class TelemetryCollector {
 public:
  struct Config {
    int num_ranks = 1;
    int max_n = 3;            ///< highest tuple length in metric names
    bool balancing = false;   ///< emit balance.* scalars per step
    int metrics_every = 1;    ///< emit cadence (final record always emitted)
    long long num_records = 0;  ///< expected records per rank (steps + 1)
    MetricsRegistry* metrics = nullptr;   ///< may be null (trace-only run)
    TraceSession* merged_trace = nullptr; ///< may be null (metrics-only run)

    /// Resumed runs (src/ckpt): records stay 0-based within the attempt,
    /// and the offset maps them back to global step numbers at emit time
    /// (record k emits as step step_offset + k).  `recoveries` is the
    /// supervisor's rank-failure count, surfaced in status_json.
    long long step_offset = 0;
    int recoveries = 0;
  };

  explicit TelemetryCollector(const Config& config);

  /// Clock alignment for `rank`: add `offset_us` to its local span
  /// timestamps to land in rank 0's session timebase.  `uncertainty_us`
  /// is the estimator's error bound (half the best round-trip), kept for
  /// status reporting and tests.  Defaults to 0 for every rank; the
  /// rank driver sets every peer's offset from its bootstrap estimate,
  /// in-process and over TCP alike (each rank records into its own
  /// session, so even threads of one process need one).
  void set_clock(int rank, double offset_us, double uncertainty_us);
  double clock_offset_us(int rank) const;
  double clock_uncertainty_us(int rank) const;

  /// Balance outcome of record `step` (rank 0's collectively-agreed
  /// view).  Must be called before the step finalizes; scalar arguments
  /// keep obs independent of the parallel layer's types.
  void set_balance(long long step, double ratio, bool rebalanced,
                   double predicted_ratio, std::uint64_t migrated_atoms);

  /// Ingest one frame: merge its spans (clock-shifted, lane = rank),
  /// feed phase histograms, stage its step records, and finalize every
  /// step whose records are now complete.  Frames from one rank must
  /// arrive in step order (the transport guarantees this per (src,
  /// tag)); ranks may interleave arbitrarily.
  void ingest(const TelemetryFrame& frame);

  /// Emit the final record if the cadence missed it (the old gather
  /// always emitted the last step) and flag any rank that never
  /// delivered all its records.  Idempotent.
  void finish();

  /// finish() for runs stopped before their step budget (cancelled or
  /// walltime-capped service jobs): still requires every *started*
  /// record to be complete across ranks, but accepts fewer than
  /// `num_records` of them.  Idempotent.
  void finish_partial();

  /// Steps finalized so far (all ranks' records arrived).
  long long finalized_steps() const;

  /// One-line JSON snapshot for the status socket.  Schema documented in
  /// docs/OBSERVABILITY.md ("Live run monitor").
  std::string status_json() const;

 private:
  struct StepSlot {
    std::vector<TelemetryStepRecord> by_rank;
    std::vector<bool> present;
    int arrived = 0;
    double balance_ratio = 0.0;
    bool rebalanced = false;
    double balance_predicted = 0.0;
    std::uint64_t balance_migrated = 0;
    bool has_balance = false;
  };

  struct RankStatus {
    long long last_step = -1;          ///< highest record index received
    double last_seen_us = 0.0;         ///< collector clock, for step rate
    double prev_seen_us = 0.0;
    long long prev_step = -1;
    std::uint64_t mailbox_watermark = 0;
    std::vector<double> step_span_ms;  ///< per-rank "step" span durations
  };

  struct Anomaly {
    int rank = 0;
    long long span_index = 0;  ///< ordinal of the slow "step" span
    double dur_ms = 0.0;
    double median_ms = 0.0;
  };

  StepSlot& slot(long long step) SCMD_REQUIRES(mu_);
  void finalize_ready() SCMD_REQUIRES(mu_);
  void finalize(StepSlot& s, long long step) SCMD_REQUIRES(mu_);
  void track_span(int rank, const TraceEvent& e) SCMD_REQUIRES(mu_);
  double mono_us() const;

  Config config_;
  mutable Mutex mu_;

  /// Ring over [next_final_, ...).
  std::vector<StepSlot> slots_ SCMD_GUARDED_BY(mu_);
  long long next_final_ SCMD_GUARDED_BY(mu_) = 0;  ///< first unfinalized
  long long last_emitted_ SCMD_GUARDED_BY(mu_) = -1;
  bool finished_ SCMD_GUARDED_BY(mu_) = false;

  std::vector<double> clock_offset_us_ SCMD_GUARDED_BY(mu_);
  std::vector<double> clock_uncertainty_us_ SCMD_GUARDED_BY(mu_);
  /// Previous cumulative TransportStats snapshot per rank.
  std::vector<TransportStats> prev_stats_ SCMD_GUARDED_BY(mu_);
  std::vector<RankStatus> ranks_ SCMD_GUARDED_BY(mu_);
  std::vector<Anomaly> anomalies_ SCMD_GUARDED_BY(mu_);
  double latest_imbalance_ratio_ SCMD_GUARDED_BY(mu_) = 0.0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace scmd::obs
