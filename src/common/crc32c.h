// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum every
// data-plane frame and checkpoint file carries. Software slicing-by-8
// implementation (eight table lookups per eight bytes); the checksum is part
// of the on-the-wire/on-disk format, so it must be byte-stable across
// platforms (it is: the tables are fixed and words are assembled byte by
// byte, so the fold is endian-independent).
#ifndef COLSGD_COMMON_CRC32C_H_
#define COLSGD_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace colsgd {

/// \brief Extends a running CRC32C over `n` more bytes. `crc` is the value
/// returned by a previous Extend/Crc32c call (not the raw register).
uint32_t ExtendCrc32c(uint32_t crc, const void* data, size_t n);

/// \brief CRC32C of a byte range. Crc32c("123456789", 9) == 0xE3069283.
inline uint32_t Crc32c(const void* data, size_t n) {
  return ExtendCrc32c(0, data, n);
}

inline uint32_t Crc32c(const std::vector<uint8_t>& bytes) {
  return Crc32c(bytes.data(), bytes.size());
}

}  // namespace colsgd

#endif  // COLSGD_COMMON_CRC32C_H_
