// Graph file I/O. Formats:
//  * edge list (.el / .txt): "u v" per line, '#' or '%' comments
//  * Matrix Market (.mtx): coordinate pattern/real, general or symmetric
//  * DIMACS coloring format (.col): "p edge N M" header, "e u v" lines (1-based)
//  * gcgpu binary (.gbin v2): page-aligned, checksummed, mmap'able
//    sections (layout in store/format.hpp). Zero-copy mapped opens live
//    in src/store/ (store::MappedGraph).
// load_graph() dispatches on extension. All loaders produce clean symmetric
// simple graphs via GraphBuilder.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/csr.hpp"

namespace gcg::store {
struct HeaderV2;
}

namespace gcg {

Csr load_edge_list(std::istream& in, vid_t min_vertices = 0);
void save_edge_list(std::ostream& out, const Csr& g);

Csr load_matrix_market(std::istream& in);
void save_matrix_market(std::ostream& out, const Csr& g);

Csr load_dimacs_color(std::istream& in);
void save_dimacs_color(std::ostream& out, const Csr& g);

/// Reads .gbin v2 into an owning, heap-resident Csr, verifying both
/// section checksums. Reads front to back and never seeks to a section,
/// so `in` may be a pipe; a seekable stream's size is checked against
/// the header before anything is allocated, and on any other stream the
/// buffers grow only as bytes arrive. Stores the validated header in
/// `*header` when given. Throws std::runtime_error on a bad or
/// truncated stream.
Csr load_binary(std::istream& in, store::HeaderV2* header = nullptr);
/// Writes .gbin v2: page-aligned sections + checksums, mmap'able by
/// store::MappedGraph.
void save_binary(std::ostream& out, const Csr& g);

/// Throws std::runtime_error describing the first defect in a v2 header
/// (magic, version, endianness, header checksum, geometry). Shared by
/// the stream loader here and the mmap path in store::MappedGraph.
void validate_gbin_v2_header(const store::HeaderV2& h);

/// Dispatch by extension; throws std::runtime_error on unknown extension
/// or unreadable file.
Csr load_graph(const std::string& path);
void save_graph(const std::string& path, const Csr& g);

}  // namespace gcg
