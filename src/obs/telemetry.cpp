#include "obs/telemetry.hpp"

#include "support/error.hpp"

namespace scmd::obs {

namespace {

constexpr std::uint32_t kMagic = 0x53435446;  // "SCTF"
constexpr std::uint32_t kVersion = 1;

static_assert(std::is_trivially_copyable_v<TelemetryStepRecord>,
              "step records are shipped as raw bytes");

/// Smallest encoded event: u16 name length, empty name, two f64.
constexpr std::size_t kMinEventBytes =
    sizeof(std::uint16_t) + 2 * sizeof(double);

}  // namespace

Bytes encode_frame(const TelemetryFrame& frame) {
  ByteWriter w;
  w.pod(kMagic);
  w.pod(kVersion);
  w.pod(static_cast<std::int32_t>(frame.rank));
  w.pod(static_cast<std::uint32_t>(frame.steps.size()));
  w.records(frame.steps);
  w.pod(static_cast<std::uint32_t>(frame.events.size()));
  for (const TraceEvent& e : frame.events) {
    w.string<std::uint16_t>(e.name);
    w.pod(e.ts_us);
    w.pod(e.dur_us);
  }
  return w.take();
}

TelemetryFrame decode_frame(const Bytes& bytes) {
  ByteReader r(bytes);
  SCMD_REQUIRE(r.pod<std::uint32_t>() == kMagic, "telemetry frame: bad magic");
  const auto version = r.pod<std::uint32_t>();
  SCMD_REQUIRE(version == kVersion,
               "telemetry frame: unsupported version " +
                   std::to_string(version));

  TelemetryFrame frame;
  frame.rank = r.pod<std::int32_t>();
  frame.steps = r.records<TelemetryStepRecord>(r.pod<std::uint32_t>());

  const std::size_t num_events =
      r.count(r.pod<std::uint32_t>(), kMinEventBytes);
  frame.events.reserve(num_events);
  for (std::size_t i = 0; i < num_events; ++i) {
    TraceEvent e;
    e.name = r.string<std::uint16_t>();
    e.ts_us = r.pod<double>();
    e.dur_us = r.pod<double>();
    frame.events.push_back(std::move(e));
  }
  SCMD_REQUIRE(r.done(), "telemetry frame: trailing bytes");
  return frame;
}

}  // namespace scmd::obs
