#include "store/mapping.hpp"
#include "util/narrow.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

namespace gcg::store {

std::shared_ptr<const Mapping> Mapping::map(int fd, std::size_t size,
                                            const std::string& path) {
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    throw MappingError("store: mmap failed for " + path + ": " +
                       std::strerror(errno));
  }

  // shared_ptr owns the Mapping; ~Mapping owns the munmap. The mapping
  // keeps the file referenced after its fd closes.
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
