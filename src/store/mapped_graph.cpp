#include "store/mapped_graph.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <stdexcept>
#include <streambuf>
#include <vector>

#include "graph/io/io.hpp"
#include "util/narrow.hpp"

namespace gcg::store {

namespace {

/// Closes the descriptor on every exit path out of open().
struct ScopedFd {
  int fd = -1;
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
};

/// Reads an open descriptor in 64 KiB steps for the stream path. It
/// cannot seek, so load_binary grows its buffers as bytes arrive.
class FdReadBuf : public std::streambuf {
 public:
  explicit FdReadBuf(int fd) : fd_(fd), buf_(std::size_t{1} << 16) {}
  std::size_t bytes_read() const { return bytes_read_; }

 protected:
  int_type underflow() override {
    ssize_t n = 0;
    do {
      n = ::read(fd_, buf_.data(), buf_.size());
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();  // a read error reads as EOF
    bytes_read_ += to_unsigned(n);
    setg(buf_.data(), buf_.data(), buf_.data() + n);
    return traits_type::to_int_type(buf_[0]);
  }

 private:
  int fd_;
  std::vector<char> buf_;
  std::size_t bytes_read_ = 0;
};

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

}  // namespace

std::shared_ptr<const MappedGraph> MappedGraph::open(const std::string& path,
                                                     const OpenOptions& opts) {
  auto out = std::shared_ptr<MappedGraph>(new MappedGraph());  // lint: allow(naked-new) private ctor — make_shared cannot reach it
  out->path_ = path;

  const ScopedFd fd{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (fd.fd < 0) {
    throw std::runtime_error("store: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd.fd, &st) != 0) {
    throw std::runtime_error("store: cannot stat " + path + ": " +
                             std::strerror(errno));
  }
  if (S_ISREG(st.st_mode) && st.st_size > 0) {
    try {
      out->mapping_ =
          Mapping::map(fd.fd, to_unsigned(std::int64_t{st.st_size}), path);
    } catch (const MappingError&) {
      // Graceful fallback: the file is open and readable, only the
      // mapping failed. The open degrades to the stream read below.
    }
  }

  if (!out->mapping_) {
    FdReadBuf buf(fd.fd);
    std::istream in(&buf);
    try {
      out->graph_ = load_binary(in, &out->header_);  // verifies checksums
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(std::string(e.what()) + " in " + path);
    }
    out->file_bytes_ = buf.bytes_read();
    return out;
  }

  const Mapping& m = *out->mapping_;
  out->header_ = checked_header(m);
  out->file_bytes_ = m.size();
  const HeaderV2& h = out->header_;
  if (opts.verify_checksums) {
    if (fnv1a64(m.data() + h.rows_offset, h.rows_bytes) != h.rows_checksum) {
      throw std::runtime_error("gbin2: " + path +
                               ": rows section checksum mismatch");
    }
    if (fnv1a64(m.data() + h.cols_offset, h.cols_bytes) != h.cols_checksum) {
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

}  // namespace gcg::store
