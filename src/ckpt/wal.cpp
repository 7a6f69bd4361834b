#include "ckpt/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "ckpt/crc32.hpp"
#include "support/error.hpp"

namespace scmd::ckpt {

namespace {

constexpr std::size_t kFrameHeaderSize = 3 * sizeof(std::uint32_t);

/// CRC over (type, length, payload) — the whole frame minus the CRC
/// field itself, so a corrupted length is as detectable as a corrupted
/// payload.
std::uint32_t frame_crc(std::uint32_t type, std::uint32_t len,
                        const std::byte* payload) {
  std::uint32_t c = crc32(&type, sizeof(type));
  c = crc32(&len, sizeof(len), c);
  return crc32(payload, len, c);
}

}  // namespace

WalScan scan_wal(const std::string& path) {
  const Bytes bytes = read_file(path);
  SCMD_REQUIRE(bytes.size() >= sizeof(kWalMagic) + sizeof(kWalVersion),
               path + " is too short to be a WAL");
  ByteReader r(bytes);
  SCMD_REQUIRE(r.pod<std::uint64_t>() == kWalMagic,
               path + " is not an SC-MD WAL");
  SCMD_REQUIRE(r.pod<std::uint32_t>() == kWalVersion,
               "unsupported WAL version in " + path);

  WalScan scan;
  std::size_t valid = bytes.size() - r.remaining();
  while (r.remaining() >= kFrameHeaderSize) {  // else a torn header
    const auto type = r.pod<std::uint32_t>();
    const auto len = r.pod<std::uint32_t>();
    const auto want_crc = r.pod<std::uint32_t>();
    if (len > r.remaining()) break;  // torn payload
    Bytes payload = r.take(len);
    if (frame_crc(type, len, payload.data()) != want_crc)
      break;  // bit flip (or a length that happened to fit)
    scan.records.push_back(
        {static_cast<WalRecordType>(type), std::move(payload)});
    valid = bytes.size() - r.remaining();
  }
  scan.valid_bytes = valid;
  scan.torn_tail = valid < bytes.size();
  scan.dropped_bytes = bytes.size() - valid;
  return scan;
}

Bytes encode_traj_frame(const TrajFrame& frame) {
  ByteWriter w;
  w.pod(static_cast<std::int64_t>(frame.step));
  w.array(frame.pos);
  w.array(frame.vel);
  return w.take();
}

TrajFrame decode_traj_frame(const Bytes& payload) {
  ByteReader r(payload);
  TrajFrame frame;
  frame.step = r.pod<std::int64_t>();
  frame.pos = r.array<Vec3>();
  frame.vel = r.array<Vec3>();
  return frame;
}

WalWriter::WalWriter(const std::string& path,
                     std::uint64_t fsync_interval_bytes)
    : path_(path), fsync_interval_(fsync_interval_bytes) {
  // Recover-then-append: an existing file is truncated to its valid
  // record prefix so corruption never survives a reopen.
  std::uint64_t resume_at = 0;
  if (::access(path.c_str(), F_OK) == 0) {
    const WalScan scan = scan_wal(path);
    recovered_records_ = scan.records.size();
    recovered_torn_tail_ = scan.torn_tail;
    resume_at = scan.valid_bytes;
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  SCMD_REQUIRE(fd_ >= 0, "cannot open WAL " + path + ": " +
                             std::strerror(errno));
  if (resume_at > 0) {
    SCMD_REQUIRE(::ftruncate(fd_, static_cast<off_t>(resume_at)) == 0,
                 "cannot truncate torn WAL tail in " + path + ": " +
                     std::strerror(errno));
    SCMD_REQUIRE(::lseek(fd_, 0, SEEK_END) >= 0,
                 "cannot seek WAL " + path);
    if (recovered_torn_tail_) {
      // Make the truncation durable before appending over the old tail.
      SCMD_REQUIRE(::fsync(fd_) == 0,
                   "fsync failed for " + path + ": " + std::strerror(errno));
    }
  } else {
    SCMD_REQUIRE(::ftruncate(fd_, 0) == 0,
                 "cannot reset WAL " + path + ": " + std::strerror(errno));
    ByteWriter header;
    header.pod(kWalMagic);
    header.pod(kWalVersion);
    write_all(fd_, header.bytes(), path_);
    SCMD_REQUIRE(::fsync(fd_) == 0,
                 "fsync failed for " + path + ": " + std::strerror(errno));
  }
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (unsynced_ > 0) ::fsync(fd_);
    ::close(fd_);
  }
}

void WalWriter::append(WalRecordType type, const Bytes& payload) {
  SCMD_REQUIRE(payload.size() <= 0xFFFFFFFFu, "WAL record too large");
  const auto t = static_cast<std::uint32_t>(type);
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = frame_crc(t, len, payload.data());
  ByteWriter w;
  w.pod(t);
  w.pod(len);
  w.pod(crc);
  w.append(payload.data(), payload.size());
  const Bytes& frame = w.bytes();
  write_all(fd_, frame, path_);
  bytes_written_ += frame.size();
  records_written_ += 1;
  unsynced_ += frame.size();
  if (unsynced_ > fsync_interval_) sync();
}

void WalWriter::append(WalRecordType type, const std::string& text) {
  const auto* p = reinterpret_cast<const std::byte*>(text.data());
  append(type, Bytes(p, p + text.size()));
}

void WalWriter::sync() {
  if (unsynced_ == 0) return;
  SCMD_REQUIRE(::fsync(fd_) == 0,
               "fsync failed for " + path_ + ": " + std::strerror(errno));
  unsynced_ = 0;
}

void WalMetricsSink::write_step(long long step,
                                const obs::MetricsRegistry& reg) {
  // Reuse the JSONL serialization so WAL metric records and the metrics
  // file carry byte-identical lines (minus the trailing newline).
  std::ostringstream os;
  obs::JsonlSink json(os);
  json.write_step(step, reg);
  std::string line = os.str();
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  wal_.append(WalRecordType::kMetrics, line);
}

}  // namespace scmd::ckpt
