// Telemetry wire format + collector unit tests (docs/OBSERVABILITY.md):
// the frame codec must round-trip and reject corruption loudly; the
// collector must difference cumulative transport snapshots into
// per-step deltas, honor the emit cadence (final record always
// emitted), clock-shift merged spans onto per-rank lanes, feed the
// phase histograms, and serve a parseable status snapshot.

#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/wire.hpp"

namespace scmd::obs {
namespace {

TelemetryFrame sample_frame() {
  TelemetryFrame f;
  f.rank = 2;
  TelemetryStepRecord r0;
  r0.step = 0;
  r0.potential_energy = -123.5;
  r0.work.evals[2] = 10;
  r0.work.list_scan_steps = 77;
  r0.transport.messages_sent = 4;
  r0.transport.bytes_sent = 4096;
  r0.transport.max_mailbox_depth = 3;
  TelemetryStepRecord r1;
  r1.step = 1;
  r1.potential_energy = -124.0;
  r1.transport.messages_sent = 9;
  r1.transport.bytes_sent = 8192;
  f.steps = {r0, r1};
  TraceEvent e;
  e.name = "force";
  e.tid = 2;
  e.ts_us = 1000.25;
  e.dur_us = 42.5;
  f.events = {e};
  return f;
}

TEST(TelemetryCodecTest, RoundTripsFrames) {
  const TelemetryFrame f = sample_frame();
  const TelemetryFrame g = decode_frame(encode_frame(f));
  EXPECT_EQ(g.rank, 2);
  ASSERT_EQ(g.steps.size(), 2u);
  EXPECT_EQ(g.steps[0].step, 0);
  EXPECT_DOUBLE_EQ(g.steps[0].potential_energy, -123.5);
  EXPECT_EQ(g.steps[0].work.evals[2], 10u);
  EXPECT_EQ(g.steps[0].work.list_scan_steps, 77u);
  EXPECT_EQ(g.steps[0].transport.bytes_sent, 4096u);
  EXPECT_EQ(g.steps[0].transport.max_mailbox_depth, 3u);
  EXPECT_EQ(g.steps[1].step, 1);
  EXPECT_EQ(g.steps[1].transport.messages_sent, 9u);
  ASSERT_EQ(g.events.size(), 1u);
  EXPECT_EQ(g.events[0].name, "force");
  EXPECT_DOUBLE_EQ(g.events[0].ts_us, 1000.25);
  EXPECT_DOUBLE_EQ(g.events[0].dur_us, 42.5);
}

TEST(TelemetryCodecTest, RoundTripsEmptyFrame) {
  TelemetryFrame f;
  f.rank = 0;
  const TelemetryFrame g = decode_frame(encode_frame(f));
  EXPECT_TRUE(g.steps.empty());
  EXPECT_TRUE(g.events.empty());
}

TEST(TelemetryCodecTest, RejectsBadMagic) {
  Bytes b = encode_frame(sample_frame());
  b[0] = std::byte{0xff};
  EXPECT_THROW(decode_frame(b), Error);
}

TEST(TelemetryCodecTest, RejectsTruncation) {
  const Bytes b = encode_frame(sample_frame());
  for (const std::size_t keep : {b.size() - 1, b.size() / 2, std::size_t{3}}) {
    Bytes cut(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(decode_frame(cut), Error) << keep;
  }
}

/// SCTF header (magic, version, rank) followed by `counts`, nothing else.
Bytes header_with_counts(std::initializer_list<std::uint32_t> counts) {
  ByteWriter w;
  w.pod(std::uint32_t{0x53435446});
  w.pod(std::uint32_t{1});
  w.pod(std::int32_t{0});
  for (const std::uint32_t c : counts) w.pod(c);
  return w.take();
}

// A count the bytes cannot hold is an Error before anything is sized
// from it — not a multi-gigabyte allocation that fails or succeeds.
TEST(TelemetryCodecTest, RejectsOverlongStepCount) {
  EXPECT_THROW(decode_frame(header_with_counts({0xFFFFFFFFu})), Error);
}

TEST(TelemetryCodecTest, RejectsOverlongEventCount) {
  EXPECT_THROW(decode_frame(header_with_counts({0u, 0xFFFFFFFFu})), Error);
}

TEST(TelemetryCodecTest, RejectsTrailingBytes) {
  Bytes b = encode_frame(sample_frame());
  b.push_back(std::byte{0});
  EXPECT_THROW(decode_frame(b), Error);
}

/// A one-record frame with a cumulative bytes_sent snapshot.
TelemetryFrame step_frame(int rank, long long step,
                          std::uint64_t cum_bytes_sent,
                          std::uint64_t cum_msgs = 0) {
  TelemetryFrame f;
  f.rank = rank;
  TelemetryStepRecord r;
  r.step = step;
  r.potential_energy = -1.0;
  r.work.evals[2] = 100;
  r.work.list_scan_steps = 50 + static_cast<std::uint64_t>(rank);
  r.transport.bytes_sent = cum_bytes_sent;
  r.transport.messages_sent = cum_msgs;
  f.steps = {r};
  return f;
}

TEST(TelemetryCollectorTest, DifferencesCumulativeSnapshotsIntoDeltas) {
  MetricsRegistry reg;
  TelemetryCollector::Config cfg;
  cfg.num_ranks = 2;
  cfg.num_records = 2;
  cfg.metrics = &reg;
  TelemetryCollector col(cfg);

  // Step 0: rank 0 sent 100 bytes, rank 1 sent 40 (bootstrap included).
  col.ingest(step_frame(0, 0, 100));
  EXPECT_EQ(col.finalized_steps(), 0);  // rank 1 still missing
  col.ingest(step_frame(1, 0, 40));
  EXPECT_EQ(col.finalized_steps(), 1);
  EXPECT_DOUBLE_EQ(reg.value("comm.transport.bytes_sent"), 140.0);

  // Step 1: cumulative 130 / 90 -> per-step delta 30 + 50 = 80, not the
  // cumulative 220 the old once-per-run recording would report.
  col.ingest(step_frame(0, 1, 130));
  col.ingest(step_frame(1, 1, 90));
  EXPECT_EQ(col.finalized_steps(), 2);
  EXPECT_DOUBLE_EQ(reg.value("comm.transport.bytes_sent"), 80.0);
  // The imbalance summary rides along on every finalized step.
  EXPECT_TRUE(reg.has("imbalance.search.ratio"));
  col.finish();
}

TEST(TelemetryCollectorTest, EmitCadenceAlwaysIncludesFinalRecord) {
  std::ostringstream out;
  MetricsRegistry reg;
  reg.add_sink(std::make_unique<JsonlSink>(out));
  TelemetryCollector::Config cfg;
  cfg.num_ranks = 1;
  cfg.num_records = 4;
  cfg.metrics_every = 2;
  cfg.metrics = &reg;
  TelemetryCollector col(cfg);
  for (long long s = 0; s < 4; ++s) col.ingest(step_frame(0, s, 10 * s));
  col.finish();
  col.finish();  // idempotent
  // Cadence hits steps 0 and 2; finish() must add the final step 3.
  std::vector<long long> steps;
  std::string line;
  std::istringstream in(out.str());
  while (std::getline(in, line)) {
    const auto at = line.find("\"step\":");
    ASSERT_NE(at, std::string::npos);
    steps.push_back(std::stoll(line.substr(at + 7)));
  }
  EXPECT_EQ(steps, (std::vector<long long>{0, 2, 3}));
}

TEST(TelemetryCollectorTest, FinishRejectsIncompleteSteps) {
  TelemetryCollector::Config cfg;
  cfg.num_ranks = 2;
  cfg.num_records = 1;
  TelemetryCollector col(cfg);
  col.ingest(step_frame(0, 0, 10));  // rank 1 never reports
  EXPECT_THROW(col.finish(), Error);
}

TEST(TelemetryCollectorTest, RejectsDuplicateStepRecords) {
  TelemetryCollector::Config cfg;
  cfg.num_ranks = 2;
  TelemetryCollector col(cfg);
  col.ingest(step_frame(0, 0, 10));
  EXPECT_THROW(col.ingest(step_frame(0, 0, 10)), Error);
}

TEST(TelemetryCollectorTest, MergesSpansClockShiftedOntoRankLanes) {
  TraceSession merged;
  TelemetryCollector::Config cfg;
  cfg.num_ranks = 2;
  cfg.merged_trace = &merged;
  TelemetryCollector col(cfg);
  col.set_clock(1, 250.0, 5.0);
  EXPECT_DOUBLE_EQ(col.clock_offset_us(1), 250.0);
  EXPECT_DOUBLE_EQ(col.clock_uncertainty_us(1), 5.0);

  TelemetryFrame f;
  f.rank = 1;
  TraceEvent e;
  e.name = "step";
  e.tid = 1;
  e.ts_us = 1000.0;
  e.dur_us = 500.0;
  f.events = {e};
  col.ingest(f);

  const auto events = merged.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "step");
  EXPECT_EQ(events[0].tid, 1);
  EXPECT_DOUBLE_EQ(events[0].ts_us, 1250.0);  // local + offset
  EXPECT_DOUBLE_EQ(events[0].dur_us, 500.0);
}

TEST(TelemetryCollectorTest, FeedsPhaseHistogramsFromSpans) {
  MetricsRegistry reg;
  TelemetryCollector::Config cfg;
  cfg.num_ranks = 1;
  cfg.metrics = &reg;
  TelemetryCollector col(cfg);

  TraceEvent force;
  force.name = "force";
  force.tid = 0;
  force.ts_us = 0.0;
  force.dur_us = 1000.0;  // 1 ms
  TraceEvent other;
  other.name = "search.n2";  // no phase_hist channel
  other.tid = 0;
  other.ts_us = 0.0;
  other.dur_us = 1.0;
  TelemetryFrame f;
  f.rank = 0;
  f.events = {force, other};
  col.ingest(f);

  const auto names = reg.histogram_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "phase_hist.force");
  EXPECT_EQ(reg.histogram_at("phase_hist.force").count(), 1u);
}

TEST(TelemetryCollectorTest, StatusJsonTracksProgress) {
  TelemetryCollector::Config cfg;
  cfg.num_ranks = 2;
  cfg.num_records = 1;
  TelemetryCollector col(cfg);
  col.set_clock(1, 33.0, 2.0);
  col.ingest(step_frame(0, 0, 10));
  col.ingest(step_frame(1, 0, 20));
  std::string s = col.status_json();
  EXPECT_NE(s.find("\"num_ranks\":2"), std::string::npos) << s;
  EXPECT_NE(s.find("\"finalized_steps\":1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"finished\":false"), std::string::npos) << s;
  EXPECT_NE(s.find("\"clock_offset_us\":33"), std::string::npos) << s;
  col.finish();
  s = col.status_json();
  EXPECT_NE(s.find("\"finished\":true"), std::string::npos) << s;
}

}  // namespace
}  // namespace scmd::obs
