// Decode-path mutation harness: every decoder that reads bytes from the
// wire or from disk gets every prefix truncation of a valid encoding,
// a fixed-seed set of single-byte flips, and an all-0xFF word of 4 and
// of 8 bytes at every offset.  Each input must either decode or throw
// scmd::Error — never another exception type (std::length_error,
// std::bad_alloc, ...) and never a crash or undefined behaviour, which
// the sanitizer builds of this binary turn into failures.  Deterministic
// and toolchain-neutral: no libFuzzer, no clang.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/wal.hpp"
#include "io/checkpoint.hpp"
#include "obs/telemetry.hpp"
#include "serve/protocol.hpp"
#include "support/error.hpp"
#include "support/wire.hpp"

namespace scmd {
namespace {

constexpr int kFlips = 1500;
constexpr std::uint64_t kSeed = 0x5eedc0de;

/// Calls `fn(input, description)` for every mutation of `valid`.
void for_each_mutation(
    const Bytes& valid,
    const std::function<void(const Bytes&, const std::string&)>& fn) {
  for (std::size_t keep = 0; keep < valid.size(); ++keep)
    fn(Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(keep)),
       "truncated to " + std::to_string(keep));
  std::mt19937_64 rng(kSeed);
  for (int i = 0; i < kFlips && !valid.empty(); ++i) {
    Bytes b = valid;
    const std::size_t at = rng() % b.size();
    b[at] ^= static_cast<std::byte>(1 + rng() % 255);
    fn(b, "byte " + std::to_string(at) + " flipped");
  }
  for (const std::size_t width : {4u, 8u}) {
    for (std::size_t at = 0; at + width <= valid.size(); ++at) {
      Bytes b = valid;
      for (std::size_t k = 0; k < width; ++k) b[at + k] = std::byte{0xFF};
      fn(b, std::to_string(width) + " x 0xFF at " + std::to_string(at));
    }
  }
}

/// The valid encoding decodes; no mutation throws anything but Error.
void expect_decodes_or_rejects(
    const char* what, const Bytes& valid,
    const std::function<void(const Bytes&)>& decode) {
  ASSERT_NO_THROW(decode(valid)) << what << ": the valid encoding";
  int foreign = 0;
  for_each_mutation(valid, [&](const Bytes& input, const std::string& how) {
    try {
      decode(input);
    } catch (const Error&) {
    } catch (const std::exception& e) {
      if (++foreign <= 3)
        ADD_FAILURE() << what << ", " << how << ": threw "
                      << typeid(e).name() << ": " << e.what();
    }
  });
  EXPECT_EQ(foreign, 0) << what;
}

Bytes bytes_of(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return Bytes(p, p + s.size());
}

/// A scratch file that disappears with the test.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_("/tmp/scmd_mutation_" + std::to_string(::getpid()) + "_" +
              name) {}
  ~ScratchFile() { std::remove(path_.c_str()); }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  const std::string& path() const { return path_; }
  void write(const Bytes& bytes) const {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path_;
    if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }

 private:
  std::string path_;
};

ckpt::CheckpointData sample_state() {
  ckpt::CheckpointData data;
  data.system = ParticleSystem(Box({4.0, 5.0, 6.0}), {1.5, 2.5});
  data.system.add_atom({0.5, 1.0, 1.5}, {0.25, -0.5, 0.75}, 0);
  data.system.add_atom({2.0, 2.5, 3.0}, {-1.0, 0.0, 1.0}, 1);
  data.clock = {7, 100, 0.5};
  data.rng = Rng(3).state();
  data.thermo = ckpt::ThermoState{1, 300.0, 0.1};
  ckpt::DecompState decomp;
  decomp.pgrid_dims = {2, 1, 1};
  decomp.fine_res = {4, 1, 1};
  decomp.cuts = {{{0, 2, 4}, {0, 1}, {0, 1}}};
  data.decomp = decomp;
  data.cache = ckpt::CacheState{9, 0.3};
  return data;
}

TEST(DecodeMutationTest, TelemetryFrame) {
  obs::TelemetryFrame frame;
  frame.rank = 3;
  frame.steps.resize(2);
  frame.steps[1].step = 1;
  frame.steps[1].potential_energy = -12.5;
  for (const char* name : {"force", "exchange.import", ""}) {
    obs::TraceEvent e;
    e.name = name;
    e.ts_us = 10.0;
    e.dur_us = 2.5;
    frame.events.push_back(e);
  }
  expect_decodes_or_rejects("SCTF", obs::encode_frame(frame),
                            [](const Bytes& b) { obs::decode_frame(b); });
}

TEST(DecodeMutationTest, ServiceBodies) {
  using namespace serve;
  SubmitRequest submit;
  submit.config_text = "field = lj\nsteps = 5\n";
  submit.resume_job = 4;
  JobStatus status;
  status.error = "boom";
  status.pool_ranks = {1, 2, 3};
  ChunkMsg chunk;
  chunk.payload = bytes_of("{\"step\":8}");
  JobAssignment assign;
  assign.config_text = "field = lj";
  assign.pool_ranks = {2, 5};
  assign.ckpt_dir = "/tmp/x";
  UpMsg up;
  up.kind = UpKind::kResult;
  up.payload = bytes_of("ab");
  up.error = "e";

  struct Case {
    const char* name;
    Bytes valid;
    std::function<void(const Bytes&)> decode;
  };
  const std::vector<Case> cases = {
      {"frame", encode_frame(MsgType::kSubmit, encode_submit(submit)),
       [](const Bytes& b) { decode_frame(b); }},
      {"submit", encode_submit(submit),
       [](const Bytes& b) { decode_submit(b); }},
      {"job id", encode_job_id(42), [](const Bytes& b) { decode_job_id(b); }},
      {"status", encode_status(status),
       [](const Bytes& b) { decode_status(b); }},
      {"stream request", encode_stream_req({7, 3}),
       [](const Bytes& b) { decode_stream_req(b); }},
      {"chunk", encode_chunk(chunk), [](const Bytes& b) { decode_chunk(b); }},
      {"stream end", encode_stream_end({7, JobState::kFailed, "why"}),
       [](const Bytes& b) { decode_stream_end(b); }},
      {"text", encode_text("[{\"id\":1}]"),
       [](const Bytes& b) { decode_text(b); }},
      {"assignment", encode_assignment(assign),
       [](const Bytes& b) { decode_assignment(b); }},
      {"ctrl", encode_ctrl({7, CtrlAction::kCancel}),
       [](const Bytes& b) { decode_ctrl(b); }},
      {"up", encode_up(up), [](const Bytes& b) { decode_up(b); }},
  };
  for (const Case& c : cases)
    expect_decodes_or_rejects(c.name, c.valid, c.decode);
}

TEST(DecodeMutationTest, Checkpoint) {
  const auto decode = [](const Bytes& b) { ckpt::decode_checkpoint(b); };
  const Bytes valid = ckpt::encode_checkpoint(sample_state());
  expect_decodes_or_rejects("SCMD_CK2 container", valid, decode);

  // The CRCs stop nearly every mutation at the container, so mutate each
  // section payload and re-seal it to reach the section decoders.
  const ckpt::SectionFile file = ckpt::SectionFile::decode(valid);
  for (std::size_t s = 0; s < file.sections().size(); ++s) {
    const std::string tag =
        "section " + ckpt::section_tag(file.sections()[s].id);
    expect_decodes_or_rejects(
        tag.c_str(), file.sections()[s].payload, [&](const Bytes& payload) {
          ckpt::SectionFile resealed;
          for (std::size_t k = 0; k < file.sections().size(); ++k)
            resealed.add(file.sections()[k].id,
                         k == s ? payload : file.sections()[k].payload);
          ckpt::decode_checkpoint(resealed.encode());
        });
  }
}

TEST(DecodeMutationTest, WalScanReportsATornTail) {
  ScratchFile wal("wal");
  std::vector<std::size_t> record_ends;
  {
    ckpt::WalWriter w(wal.path());
    w.append(ckpt::WalRecordType::kNote, std::string("restored"));
    record_ends.push_back(12 + w.bytes_written());
    ckpt::TrajFrame frame;
    frame.step = 3;
    frame.pos = {{1.0, 2.0, 3.0}};
    frame.vel = {{0.5, 0.0, -0.5}};
    w.append(ckpt::WalRecordType::kTrajectory, ckpt::encode_traj_frame(frame));
    record_ends.push_back(12 + w.bytes_written());
    w.append(ckpt::WalRecordType::kMetrics, std::string("{\"step\":3}"));
    record_ends.push_back(12 + w.bytes_written());
  }
  const Bytes valid = ckpt::read_file(wal.path());
  ASSERT_EQ(valid.size(), record_ends.back());
  const std::size_t header = 12;

  ScratchFile input("wal_input");
  int foreign = 0;
  for_each_mutation(valid, [&](const Bytes& b, const std::string& how) {
    input.write(b);
    // Where a mutation first differs from the valid log.
    std::size_t first = 0;
    while (first < b.size() && b[first] == valid[first]) ++first;
    try {
      const ckpt::WalScan scan = ckpt::scan_wal(input.path());
      EXPECT_EQ(scan.valid_bytes + scan.dropped_bytes, b.size()) << how;
      // The CRCs keep every damaged record out of the valid prefix.
      EXPECT_LE(scan.valid_bytes, first) << how;
      for (const ckpt::WalRecord& rec : scan.records) {
        if (rec.type != ckpt::WalRecordType::kTrajectory) continue;
        try {
          ckpt::decode_traj_frame(rec.payload);
        } catch (const Error&) {
        }
      }
      if (b.size() < valid.size() && first == b.size()) {  // a truncation
        bool at_record_end = false;
        for (const std::size_t end : record_ends)
          at_record_end = at_record_end || b.size() == end;
        EXPECT_EQ(scan.torn_tail, !at_record_end && b.size() > header)
            << how;
      }
    } catch (const Error&) {
      // Only a damaged file header may be rejected outright.
      EXPECT_LT(std::min(first, b.size()), header) << how;
    } catch (const std::exception& e) {
      if (++foreign <= 3)
        ADD_FAILURE() << "WAL, " << how << ": threw " << typeid(e).name()
                      << ": " << e.what();
    }
  });
  EXPECT_EQ(foreign, 0);
}

TEST(DecodeMutationTest, WalTrajectoryFrame) {
  ckpt::TrajFrame frame;
  frame.step = 9;
  frame.pos = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  frame.vel = {{0.0, 0.5, 1.0}, {1.5, 2.0, 2.5}};
  expect_decodes_or_rejects("TrajFrame", ckpt::encode_traj_frame(frame),
                            [](const Bytes& b) { ckpt::decode_traj_frame(b); });
}

TEST(DecodeMutationTest, LegacyV1Checkpoint) {
  // "SCMD_CK1": magic, u32 version 1, box lengths, i32 species count,
  // masses, i64 atom count, then per atom pos, vel, force, i32 type.
  ByteWriter w;
  w.pod(std::uint64_t{0x53434d445f434b31ULL});
  w.pod(std::uint32_t{1});
  w.pod(Vec3{4.0, 5.0, 6.0});
  w.pod(std::int32_t{2});
  w.pod(1.5);
  w.pod(2.5);
  w.pod(std::int64_t{2});
  for (std::int32_t type : {0, 1}) {
    w.pod(Vec3{1.0, 2.0, 3.0});
    w.pod(Vec3{0.5, 0.0, -0.5});
    w.pod(Vec3{1.0, -1.0, 0.0});
    w.pod(type);
  }
  ScratchFile file("v1");
  expect_decodes_or_rejects("v1 checkpoint", w.bytes(), [&](const Bytes& b) {
    file.write(b);
    load_checkpoint(file.path());
  });
}

TEST(DecodeMutationTest, UnpackAndCountedArrays) {
  const std::vector<Vec3> records = {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  expect_decodes_or_rejects("unpack<Vec3>", pack(records),
                            [](const Bytes& b) { unpack<Vec3>(b); });
  ByteWriter w;
  w.array(records);
  w.array(std::vector<std::int32_t>{1, 2});
  w.string("name");
  w.blob(bytes_of("blob"));
  expect_decodes_or_rejects("counted fields", w.bytes(), [](const Bytes& b) {
    ByteReader r(b);
    r.array<Vec3>();
    r.array<std::int32_t>();
    r.string();
    r.blob();
  });
}

}  // namespace
}  // namespace scmd
