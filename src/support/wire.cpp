#include "support/wire.hpp"

namespace scmd {

void ByteWriter::append(const void* data, std::size_t size) {
  if (size == 0) return;
  const auto* p = static_cast<const std::byte*>(data);
  out_.insert(out_.end(), p, p + size);
}

void ByteReader::require(std::size_t size) const {
  SCMD_REQUIRE(size <= remaining(),
               "truncated payload: need " + std::to_string(size) +
                   " bytes, have " + std::to_string(remaining()));
}

std::size_t ByteReader::count(std::uint64_t n, std::size_t item_bytes) const {
  SCMD_REQUIRE(n <= remaining() / item_bytes,
               "truncated payload: count " + std::to_string(n) + " of " +
                   std::to_string(item_bytes) + "-byte items, " +
                   std::to_string(remaining()) + " bytes remain");
  return static_cast<std::size_t>(n);
}

void ByteReader::copy(void* dst, std::size_t size) {
  require(size);
  if (size != 0) std::memcpy(dst, bytes_.data() + off_, size);
  off_ += size;
}

Bytes ByteReader::take(std::size_t size) {
  require(size);
  Bytes out(bytes_.begin() + static_cast<std::ptrdiff_t>(off_),
            bytes_.begin() + static_cast<std::ptrdiff_t>(off_ + size));
  off_ += size;
  return out;
}

}  // namespace scmd
