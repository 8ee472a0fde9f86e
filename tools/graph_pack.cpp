// Store packer/inspector: convert any loadable graph file into the
// mmap'able .gbin v2 store format, and inspect/verify packed files.
//
//   graph_pack <input> [output]        pack to .gbin v2
//       [--force]                      repack even if output is valid v2
//   graph_pack --inspect <file.gbin>   print header/sections/checksums
//   graph_pack --verify <file.gbin>    recompute + compare checksums
//
// Exit codes: 0 = ok, 1 = error (unreadable input, failed verify),
// 2 = usage.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "store/format.hpp"
#include "store/mapped_graph.hpp"
#include "store/writer.hpp"
#include "util/cli.hpp"

namespace {

using namespace gcg;

int usage() {
  std::cerr
      << "usage: graph_pack <input.{mtx,col,el,gbin}> [output.gbin] "
         "[--force]\n"
         "       graph_pack --inspect <file.gbin>\n"
         "       graph_pack --verify <file.gbin>\n";
  return 2;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Reads the raw v2 header without validating — --inspect should print
/// whatever is on disk, even for a corrupt file.
store::HeaderV2 read_raw_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  store::HeaderV2 h{};
  in.read(reinterpret_cast<char*>(&h), sizeof h);
  if (!in) throw std::runtime_error(path + ": shorter than a v2 header");
  return h;
}

int inspect(const std::string& path) {
  const store::HeaderV2 h = read_raw_header(path);
  if (!store::has_v2_magic(h.magic, sizeof h.magic)) {
    std::cerr << "error: " << path << " is not a .gbin v2 file\n";
    return 1;
  }
  const std::uint64_t expect_header = store::header_checksum(h);
  std::cout << "file:            " << path << '\n'
            << "magic:           " << std::string(h.magic, sizeof h.magic)
            << '\n'
            << "version:         " << h.version << '\n'
            << "endian tag:      " << hex64(h.endian_tag)
            << (h.endian_tag == store::kEndianTag ? "  (native)"
                                                  : "  (FOREIGN)")
            << '\n'
            << "vertices:        " << h.num_vertices << '\n'
            << "arcs:            " << h.num_arcs << '\n'
            << "rows section:    offset " << h.rows_offset << ", "
            << h.rows_bytes << " bytes, checksum " << hex64(h.rows_checksum)
            << '\n'
            << "cols section:    offset " << h.cols_offset << ", "
            << h.cols_bytes << " bytes, checksum " << hex64(h.cols_checksum)
            << '\n'
            << "header checksum: " << hex64(h.header_checksum)
            << (h.header_checksum == expect_header ? "  (ok)" : "  (BAD)")
            << '\n';
  return h.header_checksum == expect_header ? 0 : 1;
}

/// Full integrity check: the open validates the header and bounds both
/// sections by the file size before reading them, then recomputes both
/// section checksums. Any defect throws with a precise message.
int verify(const std::string& path) {
  const auto mg = store::MappedGraph::open(path, {.verify_checksums = true});
  std::cout << path << ": ok (" << mg->header().num_vertices << " vertices, "
            << mg->header().num_arcs << " arcs)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Every flag here is a boolean mode; declaring them keeps gcg::Cli
  // from absorbing the positional after `--force` or `--inspect` as a
  // value (the bug that once forced this tool to hand-parse argv).
  const Cli cli(argc, argv, {"force", "inspect", "verify"});
  const bool force = cli.get_bool("force");
  const bool inspect_mode = cli.get_bool("inspect");
  const bool verify_mode = cli.get_bool("verify");
  const std::vector<std::string>& pos = cli.positional();
  if (!cli.unused().empty()) {
    std::cerr << "error: unknown flag --" << cli.unused().front() << '\n';
    return usage();
  }
  if (pos.empty()) return usage();

  try {
    if (inspect_mode) return inspect(pos[0]);
    if (verify_mode) return verify(pos[0]);

    const std::string& input = pos[0];
    const std::string output =
        pos.size() > 1 ? pos[1] : store::default_pack_target(input);

    const store::PackResult r =
        store::pack(input, output, /*reuse_existing=*/!force);
    if (r.reused) {
      std::cout << r.output << " already packed (" << r.output_bytes
                << " bytes) -- use --force to repack\n";
    } else {
      std::cout << "packed " << input << " (" << r.input_bytes
                << " bytes) -> " << r.output << " (" << r.output_bytes
                << " bytes)\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
