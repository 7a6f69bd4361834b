#include "obs/collector.hpp"

#include <algorithm>
#include <sstream>

#include "obs/transport_metrics.hpp"
#include "obs/engine_metrics.hpp"
#include "obs/phase_hist.hpp"
#include "support/error.hpp"

namespace scmd::obs {

namespace {

/// Longest window of recent slow-step anomalies kept for status polling.
constexpr std::size_t kMaxAnomalies = 32;
/// A "step" span is anomalous past this multiple of the rank's median.
constexpr double kSlowStepFactor = 3.0;
/// Don't flag anomalies until the median rests on this many samples.
constexpr std::size_t kMinSpansForMedian = 8;

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

}  // namespace

TelemetryCollector::TelemetryCollector(const Config& config)
    : config_(config),
      clock_offset_us_(static_cast<std::size_t>(config.num_ranks), 0.0),
      clock_uncertainty_us_(static_cast<std::size_t>(config.num_ranks), 0.0),
      prev_stats_(static_cast<std::size_t>(config.num_ranks)),
      ranks_(static_cast<std::size_t>(config.num_ranks)),
      start_(std::chrono::steady_clock::now()) {
  SCMD_REQUIRE(config.num_ranks >= 1, "collector needs at least one rank");
}

double TelemetryCollector::mono_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void TelemetryCollector::set_clock(int rank, double offset_us,
                                   double uncertainty_us) {
  const MutexLock lock(mu_);
  SCMD_REQUIRE(rank >= 0 && rank < config_.num_ranks,
               "set_clock: rank out of range");
  clock_offset_us_[static_cast<std::size_t>(rank)] = offset_us;
  clock_uncertainty_us_[static_cast<std::size_t>(rank)] = uncertainty_us;
}

double TelemetryCollector::clock_offset_us(int rank) const {
  const MutexLock lock(mu_);
  return clock_offset_us_.at(static_cast<std::size_t>(rank));
}

double TelemetryCollector::clock_uncertainty_us(int rank) const {
  const MutexLock lock(mu_);
  return clock_uncertainty_us_.at(static_cast<std::size_t>(rank));
}

TelemetryCollector::StepSlot& TelemetryCollector::slot(long long step) {
  SCMD_REQUIRE(step >= next_final_,
               "telemetry record for already-finalized step " +
                   std::to_string(step));
  const std::size_t at = static_cast<std::size_t>(step - next_final_);
  if (at >= slots_.size()) slots_.resize(at + 1);
  StepSlot& s = slots_[at];
  if (s.by_rank.empty()) {
    s.by_rank.resize(static_cast<std::size_t>(config_.num_ranks));
    s.present.assign(static_cast<std::size_t>(config_.num_ranks), false);
  }
  return s;
}

void TelemetryCollector::set_balance(long long step, double ratio,
                                     bool rebalanced, double predicted_ratio,
                                     std::uint64_t migrated_atoms) {
  const MutexLock lock(mu_);
  StepSlot& s = slot(step);
  s.balance_ratio = ratio;
  s.rebalanced = rebalanced;
  s.balance_predicted = predicted_ratio;
  s.balance_migrated = migrated_atoms;
  s.has_balance = true;
}

void TelemetryCollector::track_span(int rank, const TraceEvent& e) {
  if (config_.metrics != nullptr && phase_tracked(e.name)) {
    observe_phase(*config_.metrics, e.name, e.dur_us * 1e-6);
  }
  if (e.name != "step") return;
  if (rank < 0 || rank >= config_.num_ranks) return;
  RankStatus& rs = ranks_[static_cast<std::size_t>(rank)];
  const double dur_ms = e.dur_us * 1e-3;
  if (rs.step_span_ms.size() >= kMinSpansForMedian) {
    const double med = median_of(rs.step_span_ms);
    if (med > 0.0 && dur_ms > kSlowStepFactor * med) {
      anomalies_.push_back(
          Anomaly{rank, static_cast<long long>(rs.step_span_ms.size()),
                  dur_ms, med});
      if (anomalies_.size() > kMaxAnomalies)
        anomalies_.erase(anomalies_.begin());
    }
  }
  rs.step_span_ms.push_back(dur_ms);
}

void TelemetryCollector::ingest(const TelemetryFrame& frame) {
  const MutexLock lock(mu_);
  SCMD_REQUIRE(frame.rank >= 0 && frame.rank < config_.num_ranks,
               "telemetry frame from unknown rank " +
                   std::to_string(frame.rank));
  const std::size_t ri = static_cast<std::size_t>(frame.rank);

  const double offset = clock_offset_us_[ri];
  for (const TraceEvent& e : frame.events) {
    if (config_.merged_trace != nullptr) {
      config_.merged_trace->record(e.name.c_str(), frame.rank,
                                   e.ts_us + offset, e.dur_us);
    }
    track_span(frame.rank, e);
  }

  RankStatus& rs = ranks_[ri];
  for (const TelemetryStepRecord& rec : frame.steps) {
    StepSlot& s = slot(rec.step);
    SCMD_REQUIRE(!s.present[ri], "duplicate telemetry record for step " +
                                     std::to_string(rec.step) + " rank " +
                                     std::to_string(frame.rank));
    s.by_rank[ri] = rec;
    s.present[ri] = true;
    ++s.arrived;
    if (rec.step > rs.last_step) {
      rs.prev_step = rs.last_step;
      rs.prev_seen_us = rs.last_seen_us;
      rs.last_step = rec.step;
      rs.last_seen_us = mono_us();
    }
    rs.mailbox_watermark =
        std::max(rs.mailbox_watermark, rec.transport.max_mailbox_depth);
  }
  finalize_ready();
}

void TelemetryCollector::finalize_ready() {
  while (!slots_.empty() && slots_.front().arrived == config_.num_ranks) {
    StepSlot s = std::move(slots_.front());
    slots_.erase(slots_.begin());
    finalize(s, next_final_);
    ++next_final_;
  }
}

void TelemetryCollector::finalize(StepSlot& s, long long step) {
  // Cluster totals and the per-rank imbalance summary — the same
  // reduction the old end-of-run gather performed, one step at a time.
  StepSample sample;
  sample.max_n = config_.max_n;
  std::vector<EngineCounters> rank_work;
  rank_work.reserve(s.by_rank.size());
  TransportStats delta;       // per-step, summed over ranks
  std::uint64_t depth = 0;    // cumulative watermark, max over ranks
  for (std::size_t r = 0; r < s.by_rank.size(); ++r) {
    const TelemetryStepRecord& rec = s.by_rank[r];
    sample.work += rec.work;
    sample.potential_energy += rec.potential_energy;
    rank_work.push_back(rec.work);

    // comm.transport.* per-step deltas from consecutive cumulative
    // snapshots (satellite fix: these were once-per-run constants).
    TransportStats& prev = prev_stats_[r];
    delta.messages_sent += rec.transport.messages_sent - prev.messages_sent;
    delta.bytes_sent += rec.transport.bytes_sent - prev.bytes_sent;
    delta.messages_received +=
        rec.transport.messages_received - prev.messages_received;
    delta.bytes_received += rec.transport.bytes_received - prev.bytes_received;
    delta.recv_stall_ns += rec.transport.recv_stall_ns - prev.recv_stall_ns;
    depth = std::max(depth, rec.transport.max_mailbox_depth);
    prev = rec.transport;
  }
  delta.max_mailbox_depth = depth;

  {
    // Status snapshot state, updated even without a registry.
    std::uint64_t max_search = 0, sum_search = 0;
    for (const EngineCounters& c : rank_work) {
      const std::uint64_t w = c.total_search_steps();
      max_search = std::max(max_search, w);
      sum_search += w;
    }
    const double avg =
        static_cast<double>(sum_search) / static_cast<double>(rank_work.size());
    latest_imbalance_ratio_ =
        avg > 0.0 ? static_cast<double>(max_search) / avg : 1.0;
  }

  if (config_.metrics == nullptr) return;
  MetricsRegistry& reg = *config_.metrics;
  record_step(reg, sample);
  record_rank_imbalance(reg, rank_work);
  record_transport(reg, delta);
  if (config_.balancing) {
    record_balance(reg, s.balance_ratio, s.rebalanced, s.balance_predicted,
                   s.balance_migrated);
  }
  const int every = config_.metrics_every > 0 ? config_.metrics_every : 1;
  if (step % every == 0) {
    reg.emit(step + config_.step_offset);
    last_emitted_ = step;
  }
}

void TelemetryCollector::finish() {
  const MutexLock lock(mu_);
  if (finished_) return;
  finished_ = true;
  SCMD_REQUIRE(slots_.empty(),
               "telemetry collector finished with " +
                   std::to_string(slots_.size()) +
                   " incomplete step(s); first incomplete step " +
                   std::to_string(next_final_));
  if (config_.num_records > 0) {
    SCMD_REQUIRE(next_final_ == config_.num_records,
                 "telemetry collector finalized " +
                     std::to_string(next_final_) + " of " +
                     std::to_string(config_.num_records) + " records");
  }
  // The old gather always emitted the final record; keep that contract
  // when the cadence skipped it.  The registry still holds the last
  // finalized step's values (finalization is in order).
  const long long last = next_final_ - 1;
  if (config_.metrics != nullptr && last >= 0 && last_emitted_ != last) {
    config_.metrics->emit(last + config_.step_offset);
    last_emitted_ = last;
  }
}

void TelemetryCollector::finish_partial() {
  const MutexLock lock(mu_);
  if (finished_) return;
  finished_ = true;
  SCMD_REQUIRE(slots_.empty(),
               "telemetry collector finished with " +
                   std::to_string(slots_.size()) +
                   " incomplete step(s); first incomplete step " +
                   std::to_string(next_final_));
  // The old gather always emitted the final record; keep that contract
  // when the cadence skipped it.  The registry still holds the last
  // finalized step's values (finalization is in order).
  const long long last = next_final_ - 1;
  if (config_.metrics != nullptr && last >= 0 && last_emitted_ != last) {
    config_.metrics->emit(last + config_.step_offset);
    last_emitted_ = last;
  }
}

long long TelemetryCollector::finalized_steps() const {
  const MutexLock lock(mu_);
  return next_final_;
}

std::string TelemetryCollector::status_json() const {
  const MutexLock lock(mu_);
  std::ostringstream os;
  os.precision(15);
  os << "{\"num_ranks\":" << config_.num_ranks
     << ",\"num_records\":" << config_.num_records
     << ",\"finalized_steps\":" << next_final_
     << ",\"latest_step\":" << next_final_ - 1
     << ",\"step_offset\":" << config_.step_offset
     << ",\"recoveries\":" << config_.recoveries
     << ",\"imbalance_ratio\":" << latest_imbalance_ratio_
     << ",\"finished\":" << (finished_ ? "true" : "false") << ",\"ranks\":[";
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const RankStatus& rs = ranks_[r];
    // Step rate over the last two frame arrivals; 0 until two arrived.
    double rate = 0.0;
    if (rs.prev_step >= 0 && rs.last_seen_us > rs.prev_seen_us) {
      rate = static_cast<double>(rs.last_step - rs.prev_step) /
             ((rs.last_seen_us - rs.prev_seen_us) * 1e-6);
    }
    if (r != 0) os << ",";
    os << "{\"rank\":" << r << ",\"step\":" << rs.last_step
       << ",\"steps_per_sec\":" << rate
       << ",\"mailbox_depth\":" << rs.mailbox_watermark
       << ",\"median_step_ms\":" << median_of(rs.step_span_ms)
       << ",\"clock_offset_us\":" << clock_offset_us_[r]
       << ",\"clock_uncertainty_us\":" << clock_uncertainty_us_[r] << "}";
  }
  os << "],\"anomalies\":[";
  for (std::size_t i = 0; i < anomalies_.size(); ++i) {
    const Anomaly& a = anomalies_[i];
    if (i != 0) os << ",";
    os << "{\"rank\":" << a.rank << ",\"span_index\":" << a.span_index
       << ",\"dur_ms\":" << a.dur_ms << ",\"median_ms\":" << a.median_ms
       << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace scmd::obs
