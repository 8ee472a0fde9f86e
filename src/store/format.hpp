// On-disk layout of the mmap'able gcgpu binary graph format, .gbin v2.
//
//   offset 0      HeaderV2 (128 bytes, 64-byte aligned struct)
//   offset 4096   row_offsets section: (n+1) x uint64, page-aligned
//   (page-aligned) col_indices section: num_arcs x uint32, page-aligned
//
// Both sections start on a page boundary (kSectionAlign) so an
// mmap(PROT_READ, MAP_SHARED) of the whole file yields naturally aligned
// array pointers that a Csr view can borrow with zero copies. All fields
// are written in the producing machine's native byte order; the
// endianness tag lets a reader on a foreign-endian machine fail with a
// clear error instead of serving garbage. Per-section FNV-1a checksums
// catch torn writes and bit rot — verifying them is optional on open
// because a full verify faults in every page, which defeats lazy paging.
//
// v2 is the only .gbin format: graph/io's save_binary writes it and its
// load_binary streams it; the store maps it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gcg::store {

inline constexpr char kMagicV2[8] = {'g', 'c', 'g', 'b', 'i', 'n', '0', '2'};
inline constexpr std::uint32_t kFormatVersion = 2;
/// Written natively; a reader seeing the byte-swapped value knows the
/// file came from a foreign-endian machine.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
/// Section alignment: one page on every platform we serve. The header
/// padding out to the first section absorbs any future header growth.
inline constexpr std::uint64_t kSectionAlign = 4096;

/// Fixed-size v2 file header. POD on purpose: written and read with
/// memcpy-style I/O, and overlaid directly onto the mapped file.
struct alignas(64) HeaderV2 {
  char magic[8];                 ///< kMagicV2
  std::uint32_t version;         ///< kFormatVersion
  std::uint32_t endian_tag;      ///< kEndianTag as seen by the writer
  std::uint64_t num_vertices;    ///< n
  std::uint64_t num_arcs;        ///< rows[n] == |cols|
  std::uint64_t rows_offset;     ///< byte offset of row_offsets section
  std::uint64_t rows_bytes;      ///< (n+1) * sizeof(uint64)
  std::uint64_t cols_offset;     ///< byte offset of col_indices section
  std::uint64_t cols_bytes;      ///< num_arcs * sizeof(uint32)
  std::uint64_t rows_checksum;   ///< FNV-1a 64 of the rows section bytes
  std::uint64_t cols_checksum;   ///< FNV-1a 64 of the cols section bytes
  std::uint64_t header_checksum; ///< FNV-1a 64 of this struct with this
                                 ///< field zeroed — catches header rot
  std::uint8_t reserved[40];     ///< zero; pads the struct to 128 bytes
};
static_assert(sizeof(HeaderV2) == 128, "v2 header layout is frozen");

/// FNV-1a 64-bit over a byte range — the format's checksum function.
/// Chosen for having no dependencies and a one-line incremental form,
/// not for cryptographic strength.
inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t seed = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Rounds `offset` up to the next kSectionAlign boundary.
inline std::uint64_t align_up(std::uint64_t offset) {
  return (offset + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

/// The checksum stored in header_checksum: the header bytes with the
/// header_checksum field itself zeroed.
inline std::uint64_t header_checksum(const HeaderV2& h) {
  HeaderV2 copy = h;
  copy.header_checksum = 0;
  return fnv1a64(&copy, sizeof copy);
}

/// True if the first 8 bytes carry the v2 magic.
inline bool has_v2_magic(const void* bytes, std::size_t size) {
  return size >= sizeof(kMagicV2) &&
         std::memcmp(bytes, kMagicV2, sizeof(kMagicV2)) == 0;
}

}  // namespace gcg::store
