#include "io/checkpoint.hpp"

#include <cstdint>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "support/error.hpp"

namespace scmd {

namespace {

// Legacy v1 layout ("SCMD_CK1"): raw little-endian fields, no CRC, no
// sections.  Still read for old files; never written anymore — save goes
// through the v2 section container (src/ckpt), which adds per-section
// CRCs and a crash-safe temp-file + atomic-rename write path.
constexpr std::uint64_t kMagicV1 = 0x53434d445f434b31ULL;  // "SCMD_CK1"

ParticleSystem load_v1(ByteReader& r) {
  SCMD_REQUIRE(r.pod<std::uint32_t>() == 1, "unsupported checkpoint version");
  const Vec3 lengths = r.pod<Vec3>();
  const auto num_types = r.pod<std::int32_t>();
  SCMD_REQUIRE(num_types > 0 && num_types < 1024, "implausible species count");
  std::vector<double> masses =
      r.records<double>(static_cast<std::uint64_t>(num_types));
  ParticleSystem sys(Box(lengths), std::move(masses));
  const auto num_atoms = r.pod<std::int64_t>();
  SCMD_REQUIRE(num_atoms >= 0, "negative atom count");
  for (std::int64_t i = 0; i < num_atoms; ++i) {
    const Vec3 pos = r.pod<Vec3>();
    const Vec3 vel = r.pod<Vec3>();
    const Vec3 force = r.pod<Vec3>();
    const auto type = r.pod<std::int32_t>();
    SCMD_REQUIRE(type >= 0 && type < sys.num_types(), "atom type out of range");
    const int id = sys.add_atom(pos, vel, type);
    sys.forces()[id] = force;
  }
  // A v1 file is exactly header + atoms; trailing bytes mean the file
  // was appended to or corrupted, and silently ignoring them would mask
  // that.
  SCMD_REQUIRE(r.done(), "trailing bytes after checkpoint data");
  return sys;
}

}  // namespace

void save_checkpoint(const ParticleSystem& sys, const std::string& path) {
  ckpt::CheckpointData data;
  data.system = sys;
  ckpt::write_checkpoint(data, path);
}

ParticleSystem load_checkpoint(const std::string& path) {
  const Bytes bytes = ckpt::read_file(path);
  try {
    ByteReader r(bytes);
    const auto magic = r.pod<std::uint64_t>();
    if (magic == kMagicV1) return load_v1(r);
    SCMD_REQUIRE(magic == ckpt::kContainerMagic, "not an SC-MD checkpoint");
    return ckpt::decode_checkpoint(bytes).system;
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

}  // namespace scmd
