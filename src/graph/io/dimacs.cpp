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

Csr load_dimacs_color(std::istream& in) {
  std::string line;
  vid_t n = 0;
  bool have_problem = false;
  std::vector<std::pair<vid_t, vid_t>> edges;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char kind = 0;
    ls >> kind;
    if (kind == 'p') {
      std::string tag;
      std::uint64_t nn = 0, mm = 0;
      if (!(ls >> tag >> nn >> mm) || (tag != "edge" && tag != "col")) {
        throw std::runtime_error("dimacs: bad problem line " + std::to_string(lineno));
      }
      if (nn >= std::numeric_limits<vid_t>::max()) {
        throw std::runtime_error("dimacs: vertex count exceeds vid_t at line " +
                                 std::to_string(lineno));
      }
      // No reserve(mm): the edge count is untrusted input.
      n = narrow<vid_t>(nn);
      have_problem = true;
    } else if (kind == 'e') {
      if (!have_problem) throw std::runtime_error("dimacs: edge before problem line");
      std::uint64_t u = 0, v = 0;
      if (!(ls >> u >> v) || u == 0 || v == 0 || u > n || v > n) {
        throw std::runtime_error("dimacs: bad edge at line " + std::to_string(lineno));
      }
      edges.emplace_back(narrow<vid_t>(u - 1), narrow<vid_t>(v - 1));
    } else if (kind == 'n') {
      // vertex-weight lines in some instances; irrelevant for coloring
      continue;
    } else {
      throw std::runtime_error("dimacs: unknown line kind '" +
                               std::string(1, kind) + "' at line " +
                               std::to_string(lineno));
    }
  }
  if (!have_problem) throw std::runtime_error("dimacs: missing problem line");
  return GraphBuilder::from_edges(n, edges);
}

void save_dimacs_color(std::ostream& out, const Csr& g) {
  out << "c written by gcgpu\n";
  out << "p edge " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    for (vid_t v : g.neighbors(u)) {
      if (u < v) out << "e " << (u + 1) << ' ' << (v + 1) << '\n';
    }
  }
}

}  // namespace gcg
