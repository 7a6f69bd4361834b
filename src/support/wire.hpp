#pragma once

/// \file wire.hpp
/// The one byte codec under every SC-MD wire and disk format: transport
/// payloads (pack/unpack), checkpoint sections (SCMD_CK2), the WAL
/// (SCMDWAL1), telemetry frames (SCTF), the service protocol (SCv1), the
/// TCP mesh header and the legacy v1 checkpoint.
///
/// Values are written as their raw in-memory bytes (little-endian x86-64
/// is assumed throughout; net/tcp.cpp asserts it).  Variable-length
/// fields carry an explicit count:
///
///   array<T>    u64 count | count x T
///   string<L>   L length  | bytes        (L = u32 unless noted)
///   blob        u64 length | bytes
///
/// Every read is bounds-checked: a short input throws scmd::Error (never
/// partial data), and an untrusted count is validated against the bytes
/// that remain *before* anything is allocated for it.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace scmd {

/// Payload type for messages, sections and frames.
using Bytes = std::vector<std::byte>;

/// Pack a trivially copyable array into a byte payload (no count).
template <class T>
Bytes pack(const std::vector<T>& items) {
  static_assert(std::is_trivially_copyable_v<T>);
  Bytes out(items.size() * sizeof(T));
  if (!items.empty()) std::memcpy(out.data(), items.data(), out.size());
  return out;
}

/// Unpack a byte payload produced by pack<T>.  A payload whose size is
/// not a whole number of T records cannot have come from pack<T> —
/// truncating it would silently drop the trailing bytes of a corrupt or
/// mis-tagged message, so it throws instead.
template <class T>
std::vector<T> unpack(const Bytes& bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  SCMD_REQUIRE(bytes.size() % sizeof(T) == 0,
               "unpack: misaligned payload of " +
                   std::to_string(bytes.size()) +
                   " bytes is not a whole number of " +
                   std::to_string(sizeof(T)) + "-byte records");
  std::vector<T> out(bytes.size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

/// Append-only byte builder.
class ByteWriter {
 public:
  template <class T>
  void pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&value, sizeof(T));
  }

  /// `items` as raw records, without a count.
  template <class T>
  void records(const std::vector<T>& items) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(items.data(), items.size() * sizeof(T));
  }

  /// u64 count, then the raw records.
  template <class T>
  void array(const std::vector<T>& items) {
    pod(static_cast<std::uint64_t>(items.size()));
    records(items);
  }

  /// `Len` length prefix, then the bytes; throws when `s` is too long
  /// for the prefix.
  template <class Len = std::uint32_t>
  void string(const std::string& s) {
    SCMD_REQUIRE(s.size() <= std::numeric_limits<Len>::max(),
                 "string of " + std::to_string(s.size()) +
                     " bytes overflows its length prefix");
    pod(static_cast<Len>(s.size()));
    append(s.data(), s.size());
  }

  /// u64 length, then the bytes.
  void blob(const Bytes& b) {
    pod(static_cast<std::uint64_t>(b.size()));
    append(b.data(), b.size());
  }

  void append(const void* data, std::size_t size);

  const Bytes& bytes() const { return out_; }
  Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

/// Bounds-checked reader over a byte buffer (which must outlive it).
class ByteReader {
 public:
  explicit ByteReader(const Bytes& bytes) : bytes_(bytes) {}

  template <class T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    copy(&value, sizeof(T));
    return value;
  }

  /// `n` raw records (a count the caller has already read).
  template <class T>
  std::vector<T> records(std::uint64_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> items(count(n, sizeof(T)));
    copy(items.data(), items.size() * sizeof(T));
    return items;
  }

  /// u64 count, then the raw records.
  template <class T>
  std::vector<T> array() {
    return records<T>(pod<std::uint64_t>());
  }

  template <class Len = std::uint32_t>
  std::string string() {
    const std::size_t n = pod<Len>();
    require(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + off_), n);
    off_ += n;
    return s;
  }

  Bytes blob() { return take(count(pod<std::uint64_t>(), 1)); }

  /// Take the next `size` raw bytes.
  Bytes take(std::size_t size);

  /// Validate an untrusted element count: `n` items of at least
  /// `item_bytes` each must fit in what remains.  Checked by division,
  /// so no product can wrap; call it before sizing anything from `n`.
  std::size_t count(std::uint64_t n, std::size_t item_bytes) const;

  std::size_t remaining() const { return bytes_.size() - off_; }
  bool done() const { return off_ == bytes_.size(); }

 private:
  void require(std::size_t size) const;
  void copy(void* dst, std::size_t size);

  const Bytes& bytes_;
  std::size_t off_ = 0;
};

}  // namespace scmd
