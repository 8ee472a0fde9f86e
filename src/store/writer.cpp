#include "store/writer.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "graph/io/io.hpp"
#include "store/format.hpp"
#include "util/narrow.hpp"

namespace gcg::store {

namespace {

std::size_t size_or_zero(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : narrow<std::size_t>(size);
}

/// True if `path` exists and starts with the v2 magic (an 8-byte sniff,
/// not a full validation).
bool starts_with_v2_magic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  in.read(magic, sizeof magic);
  return in && has_v2_magic(magic, sizeof magic);
}

}  // namespace

void write_gbin_v2(const std::string& path, const Csr& g) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("store: cannot open " + tmp + " for writing");
    }
    save_binary(out, g);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("store: write failed for " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw std::runtime_error("store: cannot move " + tmp + " to " + path +
                             ": " + ec.message());
  }
}

PackResult pack(const std::string& input, const std::string& output,
                bool reuse_existing) {
  PackResult out;
  out.output = output;
  out.input_bytes = size_or_zero(input);
  if (reuse_existing && starts_with_v2_magic(output)) {
    out.reused = true;
    out.output_bytes = size_or_zero(output);
    return out;
  }
  const Csr g = load_graph(input);
  write_gbin_v2(output, g);
  out.output_bytes = size_or_zero(output);
  return out;
}

std::string default_pack_target(const std::string& input) {
  return input + ".gbin";
}

}  // namespace gcg::store
