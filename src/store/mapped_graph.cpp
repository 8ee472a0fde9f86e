#include "store/mapped_graph.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "graph/io/io.hpp"
#include "util/narrow.hpp"

namespace gcg::store {

namespace {

/// Header + geometry validation against the mapped file size. Reuses the
/// shared header validator, then checks the sections actually fit.
HeaderV2 checked_header(const Mapping& m) {
  if (m.size() < sizeof(HeaderV2)) {
    throw std::runtime_error("gbin2: " + m.path() + ": file shorter than "
                             "the v2 header");
  }
  HeaderV2 h{};
  std::memcpy(&h, m.data(), sizeof h);
  try {
    validate_gbin_v2_header(h);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " in " + m.path());
  }
  if (h.rows_offset + h.rows_bytes > m.size() ||
      h.cols_offset + h.cols_bytes > m.size()) {
    throw std::runtime_error("gbin2: " + m.path() + ": truncated stream");
  }
  return h;
}

std::size_t file_size_of(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::streamoff size = 0;
  if (in) size = in.tellg();
  return size > 0 ? to_unsigned(size) : std::size_t{0};
}

}  // namespace

std::shared_ptr<const MappedGraph> MappedGraph::open(const std::string& path,
                                                     const OpenOptions& opts) {
  auto out = std::shared_ptr<MappedGraph>(new MappedGraph());  // lint: allow(naked-new) private ctor — make_shared cannot reach it
  out->path_ = path;

  try {
    out->mapping_ = Mapping::open(path);
  } catch (const MappingError&) {
    // Graceful fallback: the file is there and readable, only the
    // mapping failed. The open degrades to the heap path below.
  }

  if (out->mapping_) {
    const Mapping& m = *out->mapping_;
    out->header_ = checked_header(m);
    out->file_bytes_ = m.size();
    const HeaderV2& h = out->header_;
    if (opts.verify_checksums) {
      if (fnv1a64(m.data() + h.rows_offset, h.rows_bytes) !=
          h.rows_checksum) {
        throw std::runtime_error("gbin2: " + path +
                                 ": rows section checksum mismatch");
      }
      if (fnv1a64(m.data() + h.cols_offset, h.cols_bytes) !=
          h.cols_checksum) {
        throw std::runtime_error("gbin2: " + path +
                                 ": cols section checksum mismatch");
      }
    }
    const std::span<const eid_t> rows{
        reinterpret_cast<const eid_t*>(m.data() + h.rows_offset),
        narrow<std::size_t>(h.num_vertices + 1)};
    const std::span<const vid_t> cols{
        reinterpret_cast<const vid_t*>(m.data() + h.cols_offset),
        narrow<std::size_t>(h.num_arcs)};
    // The view's keepalive is the mapping itself: a Csr copied out of
    // here stays valid even after the MappedGraph handle is dropped.
    out->graph_ = Csr::view(rows, cols, out->mapping_);
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("store: cannot open " + path);
    out->graph_ = load_binary(in);  // owning; verifies checksums
    out->file_bytes_ = file_size_of(path);
  }
  return out;
}

ResidencyStats MappedGraph::residency() const {
  if (mapping_) return mapping_->residency();
  const std::size_t psz = Mapping::page_size();
  ResidencyStats all;
  all.total_pages = (file_bytes_ + psz - 1) / psz;
  all.resident_pages = all.total_pages;  // the heap copy IS the residency
  return all;
}

std::shared_ptr<const Csr> graph_view(std::shared_ptr<const MappedGraph> g) {
  if (!g) return nullptr;
  const Csr* csr = &g->graph();
  return std::shared_ptr<const Csr>(std::move(g), csr);
}

bool is_gbin_v2_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[8] = {};
  in.read(magic, sizeof magic);
  return in && has_v2_magic(magic, sizeof magic);
}

}  // namespace gcg::store
