// .gbin reader and writer. One format, v2 "gcgbin02": a fixed 128-byte
// header, then page-aligned sections with per-section checksums (layout
// in store/format.hpp). save_binary writes it; load_binary reads it front
// to back without seeking to a section, so it reads pipes as well as
// files. store::MappedGraph maps the same bytes zero-copy and streams
// them through load_binary when the kernel cannot map the input.
#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/io/io.hpp"
#include "store/format.hpp"
#include "util/narrow.hpp"

namespace gcg {

namespace {

/// Step in which load_binary grows a section buffer and skips padding
/// when the stream's length is unknown.
constexpr std::uint64_t kStepBytes = std::uint64_t{1} << 16;

template <class T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Bytes left between the current position and the end of a seekable
/// stream, or nullopt if the stream cannot seek (e.g. a pipe) — the
/// reader then learns of truncation only as the bytes fail to arrive.
std::optional<std::uint64_t> remaining_bytes(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return std::nullopt;
  return to_unsigned(std::streamoff(end - pos));
}

void write_padding(std::ostream& out, std::uint64_t from, std::uint64_t to) {
  static constexpr char kZeros[256] = {};
  while (from < to) {
    const std::uint64_t chunk = std::min<std::uint64_t>(to - from, 256);
    out.write(kZeros, narrow<std::streamsize>(chunk));
    from += chunk;
  }
}

/// Reads and drops the `bytes` bytes of padding before a section.
void skip_padding(std::istream& in, std::uint64_t bytes) {
  while (bytes > 0) {
    const auto step = narrow<std::streamsize>(std::min(bytes, kStepBytes));
    in.ignore(step);
    if (in.gcount() != step) {
      throw std::runtime_error("gbin2: truncated stream");
    }
    bytes -= to_unsigned(step);
  }
}

/// Reads a section of `bytes` bytes. When `fits`, the stream is known to
/// hold it and one allocation takes it; otherwise the buffer at most
/// doubles per step, so a header that lies to a pipe costs about the
/// bytes the pipe delivered, not the bytes the header claims.
template <class T>
std::vector<T> read_section(std::istream& in, std::uint64_t bytes, bool fits,
                            const char* name) {
  const auto n = narrow<std::size_t>(bytes / sizeof(T));
  const std::size_t step = kStepBytes / sizeof(T);
  std::vector<T> v;
  std::size_t have = 0;
  while (have < n) {
    const std::size_t want = fits ? n : std::min(n, std::max(step, 2 * have));
    v.resize(want);
    in.read(reinterpret_cast<char*>(v.data() + have),
            narrow<std::streamsize>((want - have) * sizeof(T)));
    if (!in) {
      throw std::runtime_error(std::string("gbin2: truncated ") + name +
                               " section");
    }
    have = want;
  }
  return v;
}

}  // namespace

void validate_gbin_v2_header(const store::HeaderV2& h) {
  if (!store::has_v2_magic(h.magic, sizeof h.magic)) {
    throw std::runtime_error("gbin2: bad magic");
  }
  if (h.version != store::kFormatVersion) {
    throw std::runtime_error("gbin2: unsupported version " +
                             std::to_string(h.version));
  }
  if (h.endian_tag != store::kEndianTag) {
    throw std::runtime_error(
        "gbin2: endianness mismatch (file written on a foreign-endian "
        "machine)");
  }
  if (store::header_checksum(h) != h.header_checksum) {
    throw std::runtime_error("gbin2: header checksum mismatch");
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (h.num_vertices >= std::numeric_limits<vid_t>::max() ||
      h.num_arcs > kMax / sizeof(vid_t) ||
      h.rows_bytes != (h.num_vertices + 1) * sizeof(eid_t) ||
      h.cols_bytes != h.num_arcs * sizeof(vid_t)) {
    throw std::runtime_error("gbin2: header geometry inconsistent");
  }
  if (h.rows_offset > kMax - h.rows_bytes ||
      h.cols_offset > kMax - h.cols_bytes ||
      h.rows_offset % alignof(eid_t) != 0 ||
      h.cols_offset % alignof(vid_t) != 0 ||
      h.rows_offset < sizeof(store::HeaderV2) ||
      h.cols_offset < h.rows_offset + h.rows_bytes) {
    throw std::runtime_error("gbin2: section offsets misaligned or "
                             "overlapping");
  }
}

void save_binary(std::ostream& out, const Csr& g) {
  const auto rows = g.row_offsets();
  const auto cols = g.col_indices();

  store::HeaderV2 h{};
  std::memcpy(h.magic, store::kMagicV2, sizeof h.magic);
  h.version = store::kFormatVersion;
  h.endian_tag = store::kEndianTag;
  h.num_vertices = g.num_vertices();
  h.num_arcs = g.num_arcs();
  h.rows_bytes = rows.size_bytes();
  h.cols_bytes = cols.size_bytes();
  h.rows_offset = store::align_up(sizeof h);
  h.cols_offset = store::align_up(h.rows_offset + h.rows_bytes);
  h.rows_checksum = store::fnv1a64(rows.data(), h.rows_bytes);
  h.cols_checksum = store::fnv1a64(cols.data(), h.cols_bytes);
  h.header_checksum = store::header_checksum(h);

  write_pod(out, h);
  write_padding(out, sizeof h, h.rows_offset);
  out.write(reinterpret_cast<const char*>(rows.data()),
            narrow<std::streamsize>(h.rows_bytes));
  write_padding(out, h.rows_offset + h.rows_bytes, h.cols_offset);
  out.write(reinterpret_cast<const char*>(cols.data()),
            narrow<std::streamsize>(h.cols_bytes));
  if (!out) throw std::runtime_error("gbin2: write failed");
}

Csr load_binary(std::istream& in, store::HeaderV2* header) {
  store::HeaderV2 h{};
  in.read(reinterpret_cast<char*>(&h), sizeof h);
  if (!in) throw std::runtime_error("gbin2: truncated header");
  validate_gbin_v2_header(h);

  // A seekable stream's size is checked against the geometry before
  // anything is allocated; section offsets are relative to the header.
  bool fits = false;
  if (const auto left = remaining_bytes(in)) {
    const std::uint64_t size = sizeof h + *left;
    if (h.cols_offset + h.cols_bytes > size ||
        h.rows_offset + h.rows_bytes > size) {
      throw std::runtime_error("gbin2: truncated stream");
    }
    fits = true;
  }

  skip_padding(in, h.rows_offset - sizeof h);
  std::vector<eid_t> rows =
      read_section<eid_t>(in, h.rows_bytes, fits, "rows");
  skip_padding(in, h.cols_offset - (h.rows_offset + h.rows_bytes));
  std::vector<vid_t> cols =
      read_section<vid_t>(in, h.cols_bytes, fits, "cols");

  // A heap load touches every byte anyway, so the checksums are free to
  // verify here (the lazy mmap path makes them opt-in instead).
  if (store::fnv1a64(rows.data(), h.rows_bytes) != h.rows_checksum) {
    throw std::runtime_error("gbin2: rows section checksum mismatch");
  }
  if (store::fnv1a64(cols.data(), h.cols_bytes) != h.cols_checksum) {
    throw std::runtime_error("gbin2: cols section checksum mismatch");
  }
  if (header) *header = h;
  return Csr(std::move(rows), std::move(cols));
}

}  // namespace gcg
