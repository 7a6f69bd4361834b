#pragma once

/// \file codec.hpp
/// Versioned, CRC-framed section container — the on-disk grammar shared
/// by checkpoints (docs/DURABILITY.md).
///
/// A container is:
///
///   u64  magic    0x53434d445f434b32 ("SCMD_CK2", little-endian bytes)
///   u32  version  2
///   u32  section count
///   per section:
///     u32  id       fourcc ("ATOM", "BOXX", ...)
///     u64  payload length
///     u32  crc32 of the payload
///     payload bytes
///
/// Readers validate magic, version, every section length against the
/// remaining file size, and every CRC — a truncated or bit-flipped file
/// is an scmd::Error, never silently-partial state.  Unknown sections are
/// preserved so old readers skip what newer writers add (append-only
/// schema, like the metrics registry).
///
/// Files are written crash-safe: full contents to `<path>.tmp.<pid>`,
/// fsync, atomic rename onto `path`, fsync of the parent directory.  A
/// crash leaves either the old file or the new one — never a torn mix.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/wire.hpp"  // Bytes, ByteWriter, ByteReader

namespace scmd::ckpt {

/// Section id from a 4-character tag ("ATOM" -> 0x4d4f5441 LE layout).
constexpr std::uint32_t section_id(const char (&tag)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(tag[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[3])) << 24;
}

/// Decode a section id back into its 4-character tag (diagnostics).
std::string section_tag(std::uint32_t id);

constexpr std::uint64_t kContainerMagic = 0x53434d445f434b32ULL;  // SCMD_CK2
constexpr std::uint32_t kContainerVersion = 2;

/// One named section of a container.
struct Section {
  std::uint32_t id = 0;
  Bytes payload;
};

/// In-memory container: ordered sections with lookup by id.
class SectionFile {
 public:
  /// Append a section (ids may repeat; find() returns the first).
  void add(std::uint32_t id, Bytes payload);

  const std::vector<Section>& sections() const { return sections_; }
  bool has(std::uint32_t id) const { return find(id) != nullptr; }
  /// First section with `id`, or null.
  const Bytes* find(std::uint32_t id) const;
  /// First section with `id`; throws scmd::Error when absent.
  const Bytes& require(std::uint32_t id) const;

  /// Serialize with per-section CRCs.
  Bytes encode() const;

  /// Parse + validate (magic, version, lengths, CRCs).  Throws
  /// scmd::Error on any corruption.
  static SectionFile decode(const Bytes& bytes);

 private:
  std::vector<Section> sections_;
};

/// Write all of `bytes` to `fd` (retrying short writes); throws
/// scmd::Error naming `path` on failure.
void write_all(int fd, const Bytes& bytes, const std::string& path);

/// Write `bytes` to `path` crash-safely: temp file in the same directory,
/// fsync, rename, directory fsync.  Throws scmd::Error on I/O failure and
/// removes the temp file on any error path.
void atomic_write_file(const std::string& path, const Bytes& bytes);

/// Read a whole file; throws scmd::Error when it cannot be opened.
Bytes read_file(const std::string& path);

}  // namespace scmd::ckpt
