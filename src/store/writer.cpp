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

/// True if `path` holds a v2 header that validates and is exactly as
/// long as the sections that header places. A torn or truncated pack
/// fails this; the section checksums are not read.
bool is_whole_v2(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HeaderV2 h{};
  in.read(reinterpret_cast<char*>(&h), sizeof h);
  if (!in) return false;
  try {
    validate_gbin_v2_header(h);
  } catch (const std::runtime_error&) {
    return false;
  }
  return size_or_zero(path) == h.cols_offset + h.cols_bytes;
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
  if (reuse_existing && is_whole_v2(output)) {
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
