// The on-disk grammar under every checkpoint: byte builders, the CRC'd
// section container, and the crash-safe file write.  Corruption in any
// form — truncation, bit flips, bad magic — must surface as scmd::Error,
// never as silently-partial state.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <fstream>

#include "ckpt/codec.hpp"
#include "support/error.hpp"
#include "support/wire.hpp"

namespace scmd::ckpt {
namespace {

TEST(ByteCodecTest, PodAndArrayRoundTrip) {
  ByteWriter w;
  w.pod(std::int64_t{-7});
  w.pod(3.5);
  w.array(std::vector<std::int32_t>{1, 2, 3});
  w.array(std::vector<double>{});
  const Bytes bytes = w.bytes();

  ByteReader r(bytes);
  EXPECT_EQ(r.pod<std::int64_t>(), -7);
  EXPECT_EQ(r.pod<double>(), 3.5);
  EXPECT_EQ(r.array<std::int32_t>(), (std::vector<std::int32_t>{1, 2, 3}));
  EXPECT_TRUE(r.array<double>().empty());
  EXPECT_TRUE(r.done());
}

TEST(ByteCodecTest, ShortReadThrows) {
  ByteWriter w;
  w.pod(std::int32_t{5});
  const Bytes bytes = w.bytes();
  ByteReader r(bytes);
  EXPECT_THROW(r.pod<double>(), Error);
}

TEST(ByteCodecTest, OverlongArrayCountThrows) {
  // An array header claiming more elements than the payload holds must
  // be rejected up front, not allocate-and-crash.  2^61 + 1 doubles is
  // 2^64 + 8 bytes: the byte count wraps to the 8 that do follow.
  for (const std::uint64_t count :
       {std::uint64_t{1u << 20}, (std::uint64_t{1} << 61) + 1}) {
    ByteWriter w;
    w.pod(count);
    w.pod(0.0);
    const Bytes bytes = w.bytes();
    ByteReader r(bytes);
    EXPECT_THROW(r.array<double>(), Error) << count;
  }
}

TEST(ByteCodecTest, TakeConsumesRawBytes) {
  ByteWriter w;
  w.append("abcdef", 6);
  const Bytes bytes = w.bytes();
  ByteReader r(bytes);
  const Bytes head = r.take(4);
  EXPECT_EQ(head.size(), 4u);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_THROW(r.take(3), Error);
}

TEST(SectionIdTest, FourccRoundTrips) {
  EXPECT_EQ(section_tag(section_id("ATOM")), "ATOM");
  EXPECT_EQ(section_tag(section_id("BOXX")), "BOXX");
}

Bytes payload_of(const char* text) {
  Bytes b;
  for (const char* p = text; *p != '\0'; ++p)
    b.push_back(static_cast<std::byte>(*p));
  return b;
}

TEST(SectionFileTest, EncodeDecodeRoundTrips) {
  SectionFile file;
  file.add(section_id("AAAA"), payload_of("first"));
  file.add(section_id("BBBB"), payload_of(""));
  file.add(section_id("CCCC"), payload_of("third section payload"));

  const SectionFile back = SectionFile::decode(file.encode());
  ASSERT_EQ(back.sections().size(), 3u);
  EXPECT_EQ(back.require(section_id("AAAA")), payload_of("first"));
  EXPECT_EQ(back.require(section_id("BBBB")), payload_of(""));
  EXPECT_EQ(back.require(section_id("CCCC")),
            payload_of("third section payload"));
  EXPECT_FALSE(back.has(section_id("DDDD")));
  EXPECT_EQ(back.find(section_id("DDDD")), nullptr);
  EXPECT_THROW(back.require(section_id("DDDD")), Error);
}

TEST(SectionFileTest, UnknownSectionsSurviveDecode) {
  // Append-only schema: a reader built before "ZZZZ" existed still sees
  // and preserves it.
  SectionFile file;
  file.add(section_id("ZZZZ"), payload_of("from the future"));
  const SectionFile back = SectionFile::decode(file.encode());
  EXPECT_TRUE(back.has(section_id("ZZZZ")));
}

TEST(SectionFileTest, BitFlipFailsCrc) {
  SectionFile file;
  file.add(section_id("AAAA"), payload_of("payload under protection"));
  Bytes bytes = file.encode();
  bytes[bytes.size() - 3] ^= std::byte{0x01};  // flip a payload bit
  EXPECT_THROW(SectionFile::decode(bytes), Error);
}

TEST(SectionFileTest, TruncationThrows) {
  SectionFile file;
  file.add(section_id("AAAA"), payload_of("some payload"));
  Bytes bytes = file.encode();
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{10}, std::size_t{0}}) {
    const Bytes head(bytes.begin(),
                     bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(SectionFile::decode(head), Error) << "cut at " << cut;
  }
}

TEST(SectionFileTest, BadMagicAndVersionThrow) {
  SectionFile file;
  Bytes bytes = file.encode();
  Bytes bad_magic = bytes;
  bad_magic[0] ^= std::byte{0xFF};
  EXPECT_THROW(SectionFile::decode(bad_magic), Error);
  Bytes bad_version = bytes;
  bad_version[8] = std::byte{99};
  EXPECT_THROW(SectionFile::decode(bad_version), Error);
}

TEST(AtomicWriteTest, WritesAndReadsBack) {
  const std::string path = "/tmp/scmd_codec_atomic_test.bin";
  const Bytes bytes = payload_of("atomic contents");
  atomic_write_file(path, bytes);
  EXPECT_EQ(read_file(path), bytes);
  // Overwrite in place: readers only ever see old or new, and after the
  // rename the new contents are what is read.
  const Bytes next = payload_of("second generation");
  atomic_write_file(path, next);
  EXPECT_EQ(read_file(path), next);
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, UnwritableDirectoryThrows) {
  EXPECT_THROW(
      atomic_write_file("/nonexistent-dir/foo.bin", payload_of("x")), Error);
}

TEST(AtomicWriteTest, MissingFileThrowsOnRead) {
  EXPECT_THROW(read_file("/tmp/scmd_no_such_codec_file.bin"), Error);
}

}  // namespace
}  // namespace scmd::ckpt
