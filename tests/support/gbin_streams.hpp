// Non-seekable sources of .gbin bytes for tests: an in-memory stream
// buffer that refuses every seek (what load_binary sees from a pipe),
// and a named pipe that a test feeds a graph through on demand.
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "graph/io/io.hpp"
#include "util/narrow.hpp"

namespace gcg::test_support {

/// A stringbuf whose seeks all fail, so tellg() reports -1.
class UnseekableBuf : public std::stringbuf {
 public:
  explicit UnseekableBuf(const std::string& bytes)
      : std::stringbuf(bytes, std::ios::in) {}

 protected:
  pos_type seekoff(off_type, std::ios::seekdir, std::ios::openmode) override {
    return pos_type(off_type(-1));
  }
  pos_type seekpos(pos_type, std::ios::openmode) override {
    return pos_type(off_type(-1));
  }
};

/// `g` as .gbin bytes.
inline std::string gbin_bytes(const Csr& g) {
  std::ostringstream out;
  save_binary(out, g);
  return out.str();
}

/// A named pipe posing as a .gbin file. A load from it blocks until the
/// test feeds it, which holds that load in flight on demand.
class GraphPipe {
 public:
  explicit GraphPipe(const std::string& name)
      : path_(std::string(::testing::TempDir()) + "/" + name) {
    std::remove(path_.c_str());
    if (::mkfifo(path_.c_str(), 0600) != 0) {
      throw std::runtime_error("mkfifo failed: " + path_);
    }
  }
  ~GraphPipe() { std::remove(path_.c_str()); }
  GraphPipe(const GraphPipe&) = delete;
  GraphPipe& operator=(const GraphPipe&) = delete;

  const std::string& path() const { return path_; }

  /// Writes `data` to the reader blocked on the pipe, then closes it.
  /// False if no reader opens the pipe within 10 s.
  bool feed(const std::string& data) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int fd = -1;
    while ((fd = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK)) < 0) {
      if (errno != ENXIO || std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::fcntl(fd, F_SETFL, 0);  // blocking writes from here on
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
      if (n <= 0) break;
      done += to_unsigned(n);
    }
    ::close(fd);
    return done == data.size();
  }

  /// Feeds `g` as a .gbin stream.
  bool feed(const Csr& g) const { return feed(gbin_bytes(g)); }

 private:
  std::string path_;
};

}  // namespace gcg::test_support
