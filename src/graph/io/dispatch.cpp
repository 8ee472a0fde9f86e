#include <algorithm>
#include <cctype>
#include <fstream>
#include <stdexcept>
#include <string>

#include "graph/io/io.hpp"
#include "util/narrow.hpp"

namespace gcg {

namespace {
std::string extension_of(const std::string& path) {
  const auto dot = path.rfind('.');
  std::string ext = dot == std::string::npos ? "" : path.substr(dot + 1);
  // Case-insensitive dispatch: "graph.MTX" and "graph.Col" are the same
  // formats; the service-layer registry also depends on extension handling
  // being canonical.
  std::transform(ext.begin(), ext.end(), ext.begin(), [](unsigned char c) {
    // lossy: tolower of an ASCII byte round-trips through int
    return narrow_cast<char>(std::tolower(c));
  });
  return ext;
}

constexpr const char* kSupported =
    ".mtx .col .dimacs .el .txt .edges .gbin (case-insensitive)";

bool known_extension(const std::string& ext) {
  return ext == "mtx" || ext == "col" || ext == "dimacs" || ext == "gbin" ||
         ext == "el" || ext == "txt" || ext == "edges";
}

/// Resolves and validates the extension before any file is opened, so an
/// unsupported format is always reported as such (and save_graph never
/// leaves an empty file behind for a path it cannot serve).
std::string checked_extension(const std::string& path) {
  const std::string ext = extension_of(path);
  if (!known_extension(ext)) {
    throw std::runtime_error("unknown graph extension \"." + ext + "\" in " +
                             path + "; supported: " + kSupported);
  }
  return ext;
}
}  // namespace

Csr load_graph(const std::string& path) {
  const std::string ext = checked_extension(path);
  const bool binary = (ext == "gbin");
  std::ifstream in(path, binary ? std::ios::binary : std::ios::in);
  if (!in) throw std::runtime_error("cannot open " + path);
  if (ext == "mtx") return load_matrix_market(in);
  if (ext == "col" || ext == "dimacs") return load_dimacs_color(in);
  if (ext == "gbin") return load_binary(in);
  return load_edge_list(in);  // el / txt / edges
}

void save_graph(const std::string& path, const Csr& g) {
  const std::string ext = checked_extension(path);
  const bool binary = (ext == "gbin");
  std::ofstream out(path, binary ? std::ios::binary : std::ios::out);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  if (ext == "mtx") {
    save_matrix_market(out, g);
  } else if (ext == "col" || ext == "dimacs") {
    save_dimacs_color(out, g);
  } else if (ext == "gbin") {
    save_binary(out, g);  // what save_graph produces, the store can mmap
  } else {
    save_edge_list(out, g);  // el / txt / edges
  }
}

}  // namespace gcg
