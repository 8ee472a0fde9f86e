#include <algorithm>
#include <cctype>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/io/io.hpp"
#include "util/narrow.hpp"

namespace gcg {

namespace {
std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) {
                   // lossy: tolower of an ASCII byte round-trips through int
                   return narrow_cast<char>(std::tolower(c));
                 });
  return s;
}
}  // namespace

Csr load_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("mtx: empty stream");
  std::istringstream header(lower(line));
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%matrixmarket") throw std::runtime_error("mtx: missing banner");
  if (object != "matrix" || format != "coordinate") {
    throw std::runtime_error("mtx: only coordinate matrices supported");
  }
  const bool has_value = (field == "real" || field == "integer");
  if (!has_value && field != "pattern") {
    throw std::runtime_error("mtx: unsupported field type: " + field);
  }
  if (symmetry != "general" && symmetry != "symmetric") {
    throw std::runtime_error("mtx: unsupported symmetry: " + symmetry);
  }

  // Skip comments, read size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  std::uint64_t rows = 0, cols = 0, nnz = 0;
  if (!(size_line >> rows >> cols >> nnz)) {
    throw std::runtime_error("mtx: bad size line");
  }
  if (rows != cols) throw std::runtime_error("mtx: matrix must be square");
  if (rows >= std::numeric_limits<vid_t>::max()) {
    throw std::runtime_error("mtx: vertex count exceeds vid_t");
  }

  // No reserve(nnz): the header is untrusted, and the entries that do
  // arrive bound the allocation.
  std::vector<std::pair<vid_t, vid_t>> edges;
  for (std::uint64_t k = 0; k < nnz; ++k) {
    if (!std::getline(in, line)) throw std::runtime_error("mtx: truncated");
    std::istringstream es(line);
    std::uint64_t i = 0, j = 0;
    double value = 0.0;
    if (!(es >> i >> j)) throw std::runtime_error("mtx: bad entry");
    if (has_value) es >> value;  // value ignored; adjacency pattern only
    if (i == 0 || j == 0 || i > rows || j > cols) {
      throw std::runtime_error("mtx: index out of range");
    }
    edges.emplace_back(narrow<vid_t>(i - 1), narrow<vid_t>(j - 1));
  }
  // Builder symmetrizes, so both 'general' and 'symmetric' inputs work.
  return GraphBuilder::from_edges(narrow<vid_t>(rows), edges);
}

void save_matrix_market(std::ostream& out, const Csr& g) {
  out << "%%MatrixMarket matrix coordinate pattern symmetric\n";
  out << "% written by gcgpu\n";
  out << g.num_vertices() << ' ' << g.num_vertices() << ' ' << g.num_edges()
      << '\n';
  // Symmetric format stores the lower triangle: i >= j, 1-based.
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    for (vid_t v : g.neighbors(u)) {
      if (v <= u) out << (u + 1) << ' ' << (v + 1) << '\n';
    }
  }
}

}  // namespace gcg
