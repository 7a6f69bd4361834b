// Checkpoint semantics on top of the section codec: full-state
// round-trips, the retention-bounded snapshot directory, corrupt-file
// skipping in load_latest, and byte-stability against the committed
// golden fixture (tests/data/golden_v2.ckpt) — the cross-version
// compatibility contract.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace scmd::ckpt {
namespace {

/// Fixed, RNG-free state: the golden fixture is this exact data, so the
/// byte-stability test fails if either the data or the codec drifts.
CheckpointData golden_data() {
  CheckpointData data;
  data.system = ParticleSystem(Box({4.0, 5.0, 6.0}), {1.5, 2.5});
  data.system.add_atom({0.5, 1.0, 1.5}, {0.25, -0.5, 0.75}, 0);
  data.system.add_atom({2.0, 2.5, 3.0}, {-1.0, 0.0, 1.0}, 1);
  data.system.add_atom({3.5, 4.0, 4.5}, {0.125, 0.25, -0.375}, 0);
  data.system.forces()[0] = {1.0, 2.0, 3.0};
  data.system.forces()[1] = {-4.0, 5.0, -6.0};
  data.system.forces()[2] = {7.0, -8.0, 9.0};
  data.clock = {7, 100, 0.5};
  Rng::State rng;
  rng.s[0] = 0x0123456789abcdefULL;
  rng.s[1] = 0xfedcba9876543210ULL;
  rng.s[2] = 42;
  rng.s[3] = 7;
  rng.have_cached = true;
  rng.cached = -0.625;
  data.rng = rng;
  data.thermo = ThermoState{1, 300.0, 0.1};
  DecompState decomp;
  decomp.pgrid_dims = {2, 2, 1};
  decomp.align_dims = {1, 1, 1};
  decomp.fine_res = {4, 4, 2};
  decomp.cuts = {{std::vector<std::int32_t>{0, 2, 4},
                  std::vector<std::int32_t>{0, 2, 4},
                  std::vector<std::int32_t>{0, 2}}};
  data.decomp = decomp;
  data.cache = CacheState{9, 0.3};
  return data;
}

void expect_equal(const CheckpointData& a, const CheckpointData& b) {
  ASSERT_EQ(a.system.num_atoms(), b.system.num_atoms());
  ASSERT_EQ(a.system.num_types(), b.system.num_types());
  EXPECT_EQ(a.system.box(), b.system.box());
  for (int t = 0; t < a.system.num_types(); ++t)
    EXPECT_EQ(a.system.mass_of_type(t), b.system.mass_of_type(t));
  for (int i = 0; i < a.system.num_atoms(); ++i) {
    EXPECT_EQ(a.system.positions()[i], b.system.positions()[i]) << i;
    EXPECT_EQ(a.system.velocities()[i], b.system.velocities()[i]) << i;
    EXPECT_EQ(a.system.forces()[i], b.system.forces()[i]) << i;
    EXPECT_EQ(a.system.types()[i], b.system.types()[i]) << i;
  }
  EXPECT_EQ(a.clock.step, b.clock.step);
  EXPECT_EQ(a.clock.total_steps, b.clock.total_steps);
  EXPECT_EQ(a.clock.dt, b.clock.dt);
  ASSERT_EQ(a.rng.has_value(), b.rng.has_value());
  if (a.rng) {
    for (int i = 0; i < 4; ++i) EXPECT_EQ(a.rng->s[i], b.rng->s[i]);
    EXPECT_EQ(a.rng->have_cached, b.rng->have_cached);
    EXPECT_EQ(a.rng->cached, b.rng->cached);
  }
  ASSERT_EQ(a.thermo.has_value(), b.thermo.has_value());
  if (a.thermo) {
    EXPECT_EQ(a.thermo->kind, b.thermo->kind);
    EXPECT_EQ(a.thermo->target_k, b.thermo->target_k);
    EXPECT_EQ(a.thermo->tau, b.thermo->tau);
  }
  ASSERT_EQ(a.decomp.has_value(), b.decomp.has_value());
  if (a.decomp) {
    EXPECT_EQ(a.decomp->pgrid_dims, b.decomp->pgrid_dims);
    EXPECT_EQ(a.decomp->align_dims, b.decomp->align_dims);
    EXPECT_EQ(a.decomp->fine_res, b.decomp->fine_res);
    for (int axis = 0; axis < 3; ++axis)
      EXPECT_EQ(a.decomp->cuts[static_cast<std::size_t>(axis)],
                b.decomp->cuts[static_cast<std::size_t>(axis)]);
  }
  ASSERT_EQ(a.cache.has_value(), b.cache.has_value());
  if (a.cache) {
    EXPECT_EQ(a.cache->epoch, b.cache->epoch);
    EXPECT_EQ(a.cache->skin, b.cache->skin);
  }
}

TEST(CheckpointCodecTest, FullStateRoundTrips) {
  const CheckpointData data = golden_data();
  expect_equal(decode_checkpoint(encode_checkpoint(data)), data);
}

TEST(CheckpointCodecTest, OptionalSectionsStayAbsent) {
  CheckpointData data;
  data.system = golden_data().system;
  const CheckpointData back = decode_checkpoint(encode_checkpoint(data));
  EXPECT_FALSE(back.rng.has_value());
  EXPECT_FALSE(back.thermo.has_value());
  EXPECT_FALSE(back.decomp.has_value());
  EXPECT_FALSE(back.cache.has_value());
}

TEST(CheckpointCodecTest, FileRoundTripsAndRejectsCorruption) {
  const std::string path = "/tmp/scmd_ckpt_codec_test.sc2";
  const CheckpointData data = golden_data();
  write_checkpoint(data, path);
  expect_equal(read_checkpoint(path), data);

  // Flip a byte mid-file: some section CRC fails.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(60);
    f.put('\x7f');
  }
  EXPECT_THROW(read_checkpoint(path), Error);
  std::remove(path.c_str());
}

class CheckpointDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/scmd_ckpt_dir_test_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static CheckpointData at_step(long long step) {
    CheckpointData data = golden_data();
    data.clock.step = step;
    return data;
  }

  std::string dir_;
};

TEST_F(CheckpointDirTest, RetentionPrunesOldest) {
  CheckpointDir ckpt(dir_, /*retain=*/3);
  for (long long step : {5, 10, 15, 20}) ckpt.write(at_step(step));
  EXPECT_EQ(ckpt.steps(), (std::vector<long long>{10, 15, 20}));

  std::string winner;
  const auto latest = ckpt.load_latest(&winner);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->clock.step, 20);
  EXPECT_EQ(winner, ckpt.path_for_step(20));
}

TEST_F(CheckpointDirTest, LoadLatestSkipsCorruptFiles) {
  CheckpointDir ckpt(dir_, 3);
  for (long long step : {10, 20, 30}) ckpt.write(at_step(step));
  // Corrupt the newest snapshot; recovery must fall back to step 20.
  {
    std::ofstream f(ckpt.path_for_step(30),
                    std::ios::binary | std::ios::trunc);
    f << "torn";
  }
  std::string winner;
  const auto latest = ckpt.load_latest(&winner);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->clock.step, 20);
  EXPECT_EQ(winner, ckpt.path_for_step(20));
}

TEST_F(CheckpointDirTest, LoadLatestSkipsWrappingAtomCount) {
  CheckpointDir ckpt(dir_, 3);
  for (long long step : {10, 20}) ckpt.write(at_step(step));
  // Re-seal the newest snapshot with a CRC-valid ATOM section whose
  // count, 2^60 + 1 records of 80 bytes, wraps to the 80 bytes present.
  const std::string newest = ckpt.path_for_step(20);
  const SectionFile valid = SectionFile::decode(read_file(newest));
  SectionFile forged;
  for (const Section& s : valid.sections()) {
    if (s.id != section_id("ATOM")) {
      forged.add(s.id, s.payload);
      continue;
    }
    ByteWriter w;
    w.pod((std::uint64_t{1} << 60) + 1);
    w.append(s.payload.data() + sizeof(std::uint64_t), 80);
    forged.add(s.id, w.take());
  }
  atomic_write_file(newest, forged.encode());

  std::string winner;
  const auto latest = ckpt.load_latest(&winner);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->clock.step, 10);
  EXPECT_EQ(winner, ckpt.path_for_step(10));
}

TEST_F(CheckpointDirTest, EmptyDirLoadsNothing) {
  CheckpointDir ckpt(dir_, 3);
  EXPECT_TRUE(ckpt.steps().empty());
  EXPECT_FALSE(ckpt.load_latest().has_value());
}

TEST_F(CheckpointDirTest, CreatesMissingDirectories) {
  CheckpointDir ckpt(dir_ + "/nested/deeper", 2);
  ckpt.write(at_step(1));
  EXPECT_EQ(ckpt.steps(), (std::vector<long long>{1}));
}

#ifdef SCMD_TEST_DATA_DIR
TEST(CheckpointGoldenTest, CommittedFixtureStaysByteStable) {
  // The fixture was written by this codec at the version that introduced
  // it.  Decoding it must keep working forever (backward compatibility),
  // and re-encoding the same logical state must reproduce it bit for bit
  // — any codec change that breaks this needs a version bump, not a
  // silent format drift.
  const std::string path = std::string(SCMD_TEST_DATA_DIR) +
                           "/golden_v2.ckpt";
  const Bytes golden = read_file(path);
  expect_equal(decode_checkpoint(golden), golden_data());
  EXPECT_EQ(encode_checkpoint(golden_data()), golden);
}
#endif

}  // namespace
}  // namespace scmd::ckpt
