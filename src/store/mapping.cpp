#include "store/mapping.hpp"
#include "util/narrow.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace gcg::store {

namespace {

/// Closes the descriptor on every exit path out of open().
struct ScopedFd {
  int fd = -1;
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

std::shared_ptr<const Mapping> Mapping::open(const std::string& path) {
  ScopedFd fd{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (fd.fd < 0) {
    throw std::runtime_error("store: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd.fd, &st) != 0) {
    throw std::runtime_error("store: cannot stat " + path + ": " +
                             std::strerror(errno));
  }
  if (st.st_size == 0) {
    throw std::runtime_error("store: " + path + " is empty");
  }

  const auto size = to_unsigned(std::int64_t{st.st_size});
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd.fd, 0);
  if (base == MAP_FAILED) {
    throw MappingError("store: mmap failed for " + path + ": " +
                       std::strerror(errno));
  }

  // shared_ptr owns the Mapping; ~Mapping owns the munmap. The fd can
  // close now — the mapping keeps the file referenced.
  auto m = std::shared_ptr<Mapping>(new Mapping());  // lint: allow(naked-new) private ctor — make_shared cannot reach it
  m->data_ = static_cast<const std::uint8_t*>(base);
  m->size_ = size;
  m->path_ = path;
  return m;
}

Mapping::~Mapping() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
}

ResidencyStats Mapping::residency() const {
  ResidencyStats out;
  const std::size_t psz = page_size();
  out.total_pages = (size_ + psz - 1) / psz;
  std::vector<unsigned char> vec(out.total_pages);
  if (::mincore(const_cast<std::uint8_t*>(data_), size_, vec.data()) == 0) {
    for (unsigned char b : vec) {
      if (b & 1) ++out.resident_pages;
    }
  }
  return out;
}

std::size_t Mapping::page_size() {
  const long ps = ::sysconf(_SC_PAGESIZE);
  return ps > 0 ? to_unsigned(ps) : std::size_t{4096};
}

}  // namespace gcg::store
