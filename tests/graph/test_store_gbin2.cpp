// .gbin v2 store round-trip and corruption suite: write -> mmap ->
// validate must be lossless, every corrupted header/section field must
// fail with a precise error (never garbage data or bad_alloc), the
// stream loader must reject truncated input from seekable and
// unseekable streams alike before allocating what the header claims,
// and a FIFO must open through the stream path.
#include "store/mapped_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/gen/suite.hpp"
#include "graph/io/io.hpp"
#include "store/format.hpp"
#include "store/writer.hpp"
#include "support/gbin_streams.hpp"

namespace gcg {
namespace {

bool same_graph(const Csr& a, const Csr& b) {
  return a.num_vertices() == b.num_vertices() &&
         std::equal(a.row_offsets().begin(), a.row_offsets().end(),
                    b.row_offsets().begin(), b.row_offsets().end()) &&
         std::equal(a.col_indices().begin(), a.col_indices().end(),
                    b.col_indices().begin(), b.col_indices().end());
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class ScopedFile {
 public:
  explicit ScopedFile(std::string path) : path_(std::move(path)) {}
  ~ScopedFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Csr suite_graph() {
  return make_suite_graph("kron-like", {.scale = 0.02, .seed = 7}).graph;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Writes `g` as v2, applies `mutate` to the raw bytes, writes back.
void write_corrupted(const std::string& path, const Csr& g,
                     void (*mutate)(std::vector<char>&)) {
  store::write_gbin_v2(path, g);
  std::vector<char> bytes = read_file(path);
  mutate(bytes);
  write_file(path, bytes);
}

std::string load_error(const std::string& path) {
  try {
    (void)load_graph(path);
    return "";
  } catch (const std::exception& e) {
    return e.what();
  }
}

std::string stream_error(std::istream& in) {
  try {
    (void)load_binary(in);
    return "";
  } catch (const std::exception& e) {
    return e.what();
  }
}

/// load_binary of `bytes` must throw a truncation error both from a
/// seekable stream and from one that cannot seek (a pipe).
void expect_truncated(const std::string& bytes) {
  std::istringstream seekable(bytes);
  const std::string a = stream_error(seekable);
  EXPECT_NE(a.find("truncated"), std::string::npos) << "seekable: " << a;
  test_support::UnseekableBuf buf(bytes);
  std::istream unseekable(&buf);
  const std::string b = stream_error(unseekable);
  EXPECT_NE(b.find("truncated"), std::string::npos) << "unseekable: " << b;
}

store::HeaderV2 header_of(const std::string& bytes) {
  store::HeaderV2 h{};
  std::memcpy(&h, bytes.data(), sizeof h);
  return h;
}

// ---------------------------------------------------------------- roundtrip

TEST(StoreGbin2, WriteMapValidateRoundTrips) {
  const Csr g = suite_graph();
  const ScopedFile f(temp_path("store_rt.gbin"));
  store::write_gbin_v2(f.path(), g);

  const auto mg = store::MappedGraph::open(f.path());
  ASSERT_TRUE(mg->is_mapped());
  EXPECT_TRUE(mg->graph().is_view());
  EXPECT_TRUE(same_graph(g, mg->graph()));
  EXPECT_NO_THROW(mg->graph().validate());
  EXPECT_EQ(mg->header().num_vertices, g.num_vertices());
  EXPECT_EQ(mg->header().num_arcs, g.num_arcs());
}

TEST(StoreGbin2, LoadGraphReadsV2Heap) {
  // save_graph's .gbin dispatch writes v2; the plain heap loader must
  // read it back so non-store consumers keep working.
  const Csr g = suite_graph();
  const ScopedFile f(temp_path("store_dispatch.gbin"));
  save_graph(f.path(), g);
  EXPECT_TRUE(same_graph(g, load_graph(f.path())));
}

TEST(StoreGbin2, EmptyGraphRoundTrips) {
  const Csr g(std::vector<eid_t>{0}, std::vector<vid_t>{});
  const ScopedFile f(temp_path("store_empty.gbin"));
  store::write_gbin_v2(f.path(), g);
  const auto mg = store::MappedGraph::open(f.path());
  EXPECT_EQ(mg->graph().num_vertices(), 0u);
  EXPECT_EQ(mg->graph().num_arcs(), 0u);
}

TEST(StoreGbin2, ViewOutlivesMappedGraphHandle) {
  const Csr g = suite_graph();
  const ScopedFile f(temp_path("store_keepalive.gbin"));
  store::write_gbin_v2(f.path(), g);

  Csr copy;
  {
    const auto mg = store::MappedGraph::open(f.path());
    copy = mg->graph();  // view copy shares the mapping anchor
  }
  // The MappedGraph handle is gone; the keepalive must pin the mapping.
  EXPECT_TRUE(copy.is_view());
  EXPECT_TRUE(same_graph(g, copy));
}

TEST(StoreGbin2, SectionsArePageAligned) {
  const Csr g = suite_graph();
  const ScopedFile f(temp_path("store_align.gbin"));
  store::write_gbin_v2(f.path(), g);
  const auto mg = store::MappedGraph::open(f.path());
  EXPECT_EQ(mg->header().rows_offset % store::kSectionAlign, 0u);
  EXPECT_EQ(mg->header().cols_offset % store::kSectionAlign, 0u);
  EXPECT_GE(mg->header().rows_offset, sizeof(store::HeaderV2));
}

// --------------------------------------------------------------- corruption

TEST(StoreGbin2, BadMagicRejected) {
  const ScopedFile f(temp_path("store_badmagic.gbin"));
  write_corrupted(f.path(), suite_graph(),
                  [](std::vector<char>& b) { b[0] = 'X'; });
  // Without either magic the heap loader can't even classify the file.
  EXPECT_NE(load_error(f.path()), "");
  EXPECT_THROW((void)store::MappedGraph::open(f.path()), std::runtime_error);
}

TEST(StoreGbin2, BadVersionRejected) {
  const ScopedFile f(temp_path("store_badver.gbin"));
  write_corrupted(f.path(), suite_graph(), [](std::vector<char>& b) {
    std::uint32_t v = 99;
    std::memcpy(b.data() + 8, &v, sizeof v);  // version follows magic
  });
  EXPECT_NE(load_error(f.path()).find("gbin2"), std::string::npos);
}

TEST(StoreGbin2, ForeignEndianRejected) {
  const ScopedFile f(temp_path("store_endian.gbin"));
  write_corrupted(f.path(), suite_graph(), [](std::vector<char>& b) {
    std::uint32_t swapped;
    std::memcpy(&swapped, b.data() + 12, sizeof swapped);
    swapped = __builtin_bswap32(swapped);
    std::memcpy(b.data() + 12, &swapped, sizeof swapped);
  });
  const std::string err = load_error(f.path());
  EXPECT_NE(err.find("endian"), std::string::npos) << err;
}

TEST(StoreGbin2, HeaderRotRejected) {
  const ScopedFile f(temp_path("store_rot.gbin"));
  write_corrupted(f.path(), suite_graph(), [](std::vector<char>& b) {
    b[100] ^= 0x40;  // inside the reserved tail — only the checksum sees it
  });
  const std::string err = load_error(f.path());
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;
  EXPECT_THROW((void)store::MappedGraph::open(f.path()), std::runtime_error);
}

TEST(StoreGbin2, SectionRotCaughtByHeapLoadAndOptInVerify) {
  const ScopedFile f(temp_path("store_bitrot.gbin"));
  write_corrupted(f.path(), suite_graph(), [](std::vector<char>& b) {
    b.back() ^= 0x01;  // flip one bit in the cols section
  });
  // Heap loads always verify.
  const std::string err = load_error(f.path());
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;

  // Mapped opens skip the verify by default (lazy paging)...
  EXPECT_NO_THROW((void)store::MappedGraph::open(f.path()));
  // ...and catch the rot when asked.
  store::OpenOptions strict;
  strict.verify_checksums = true;
  EXPECT_THROW((void)store::MappedGraph::open(f.path(), strict),
               std::runtime_error);
}

TEST(StoreGbin2, TruncatedFileRejected) {
  const Csr g = suite_graph();
  const ScopedFile f(temp_path("store_trunc.gbin"));
  store::write_gbin_v2(f.path(), g);
  std::vector<char> bytes = read_file(f.path());
  bytes.resize(bytes.size() / 2);  // cut mid-cols-section
  write_file(f.path(), bytes);

  EXPECT_NE(load_error(f.path()), "");
  EXPECT_THROW((void)store::MappedGraph::open(f.path()), std::runtime_error);
}

TEST(StoreGbin2, GeometryLiesRejected) {
  // Header claims a cols section far past EOF; both loaders must notice
  // before touching it. Recompute the header checksum so geometry — not
  // rot — is what the validator sees.
  const ScopedFile f(temp_path("store_geom.gbin"));
  write_corrupted(f.path(), suite_graph(), [](std::vector<char>& b) {
    store::HeaderV2 h;
    std::memcpy(&h, b.data(), sizeof h);
    h.cols_bytes = std::uint64_t{1} << 50;
    h.num_arcs = h.cols_bytes / sizeof(vid_t);
    h.header_checksum = store::header_checksum(h);
    std::memcpy(b.data(), &h, sizeof h);
  });
  EXPECT_NE(load_error(f.path()), "");
  EXPECT_THROW((void)store::MappedGraph::open(f.path()), std::runtime_error);
}

TEST(StoreGbin2, WrappingGeometryRejected) {
  // Sizes and offsets that wrap past 2^64 can pass every equality and
  // ordering check; both loaders must still reject them as bad headers
  // before any section read.
  using Edit = void (*)(store::HeaderV2&);
  const Edit edits[] = {
      [](store::HeaderV2& h) {  // num_vertices + 1 wraps to 0
        h.num_vertices = ~std::uint64_t{0};
        h.rows_bytes = 0;
      },
      [](store::HeaderV2& h) {  // num_arcs * sizeof(vid_t) wraps to 0
        h.num_arcs = std::uint64_t{1} << 62;
        h.cols_bytes = 0;
      },
      [](store::HeaderV2& h) {  // rows_offset + rows_bytes wraps
        h.rows_offset = ~std::uint64_t{0} - 7;
      },
  };
  const std::string real = test_support::gbin_bytes(suite_graph());
  const ScopedFile f(temp_path("store_wrap.gbin"));
  for (std::size_t i = 0; i < std::size(edits); ++i) {
    SCOPED_TRACE(i);
    store::HeaderV2 h = header_of(real);
    edits[i](h);
    h.header_checksum = store::header_checksum(h);
    std::vector<char> bytes(real.begin(), real.end());
    std::memcpy(bytes.data(), &h, sizeof h);
    write_file(f.path(), bytes);
    const std::string err = load_error(f.path());
    EXPECT_NE(err.find("gbin2"), std::string::npos) << err;
    EXPECT_THROW((void)store::MappedGraph::open(f.path()),
                 std::runtime_error);
  }
}

// ----------------------------------------------------------- stream loads

TEST(StoreGbin2, OversizedSectionFailsCleanlyBeforeAllocating) {
  // A valid header claiming the largest rows section the geometry
  // allows (~32 GiB) in front of 4 KiB of rows: both streams must throw
  // the loader's truncation error, not attempt that allocation.
  const std::string real = test_support::gbin_bytes(suite_graph());
  store::HeaderV2 h = header_of(real);
  h.num_vertices = std::uint64_t{0xFFFFFFFE};
  h.rows_bytes = (h.num_vertices + 1) * sizeof(eid_t);
  h.cols_offset = store::align_up(h.rows_offset + h.rows_bytes);
  h.header_checksum = store::header_checksum(h);
  std::string bytes = real.substr(0, h.rows_offset + 4096);
  std::memcpy(bytes.data(), &h, sizeof h);
  expect_truncated(bytes);
}

TEST(StoreGbin2, TruncatedMidSectionFailsCleanly) {
  // Cut inside the header, the padding, the rows and the cols.
  const std::string bytes = test_support::gbin_bytes(suite_graph());
  const store::HeaderV2 h = header_of(bytes);
  for (const std::uint64_t cut :
       {std::uint64_t{64}, std::uint64_t{sizeof h + 100},
        h.rows_offset + h.rows_bytes / 2, h.cols_offset + h.cols_bytes / 2}) {
    SCOPED_TRACE(cut);
    expect_truncated(bytes.substr(0, cut));
  }
}

TEST(StoreFallback, FifoFedOpenStreamsToTheHeap) {
  // A FIFO cannot be mapped: the open must read it once, as a stream,
  // and report what it read.
  const Csr g = suite_graph();
  const std::string bytes = test_support::gbin_bytes(g);
  const test_support::GraphPipe pipe("store_fifo.gbin");
  bool fed = false;
  std::jthread feeder([&] { fed = pipe.feed(bytes); });
  const auto mg = store::MappedGraph::open(pipe.path());
  feeder.join();
  EXPECT_TRUE(fed);

  EXPECT_FALSE(mg->is_mapped());
  EXPECT_FALSE(mg->graph().is_view());
  EXPECT_TRUE(same_graph(g, mg->graph()));
  EXPECT_EQ(mg->file_bytes(), bytes.size());
  const store::HeaderV2 written = header_of(bytes);
  EXPECT_EQ(std::memcmp(&mg->header(), &written, sizeof written), 0);

  const store::ResidencyStats r = mg->residency();
  const std::size_t page = store::Mapping::page_size();
  EXPECT_EQ(r.total_pages, (bytes.size() + page - 1) / page);
  EXPECT_EQ(r.resident_pages, r.total_pages);
}

TEST(StoreFallback, TruncatedFifoFailsCleanly) {
  const std::string bytes = test_support::gbin_bytes(suite_graph());
  const test_support::GraphPipe pipe("store_fifo_trunc.gbin");
  bool fed = false;
  std::jthread feeder(
      [&] { fed = pipe.feed(bytes.substr(0, bytes.size() / 2)); });
  std::string err;
  try {
    (void)store::MappedGraph::open(pipe.path());
  } catch (const std::runtime_error& e) {
    err = e.what();
  }
  feeder.join();
  EXPECT_TRUE(fed);
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

// -------------------------------------------------------- pack + residency

TEST(StoreGbin2, PackConvertsAndReuses) {
  const Csr g = suite_graph();
  const ScopedFile mtx(temp_path("store_pack.mtx"));
  const ScopedFile packed(temp_path("store_pack.mtx.gbin"));
  save_graph(mtx.path(), g);

  EXPECT_EQ(store::default_pack_target(mtx.path()), packed.path());
  const store::PackResult first =
      store::pack(mtx.path(), packed.path(), /*reuse_existing=*/true);
  EXPECT_FALSE(first.reused);
  EXPECT_GT(first.output_bytes, 0u);

  const store::PackResult second =
      store::pack(mtx.path(), packed.path(), /*reuse_existing=*/true);
  EXPECT_TRUE(second.reused);

  const auto mg = store::MappedGraph::open(packed.path());
  EXPECT_TRUE(same_graph(g, mg->graph()));
}

TEST(StoreGbin2, PackRewritesATruncatedOutput) {
  // A torn pack keeps a valid header but not the sections it places; a
  // reusing pack must rewrite it rather than hand every later open a
  // truncated file.
  const Csr g = suite_graph();
  const ScopedFile mtx(temp_path("store_pack_torn.mtx"));
  const ScopedFile packed(temp_path("store_pack_torn.mtx.gbin"));
  save_graph(mtx.path(), g);
  const store::PackResult first =
      store::pack(mtx.path(), packed.path(), /*reuse_existing=*/true);
  ASSERT_FALSE(first.reused);

  std::vector<char> bytes = read_file(packed.path());
  ASSERT_GT(bytes.size(), 5000u);
  bytes.resize(5000);
  write_file(packed.path(), bytes);
  EXPECT_THROW(store::MappedGraph::open(packed.path()), std::runtime_error);

  const store::PackResult again =
      store::pack(mtx.path(), packed.path(), /*reuse_existing=*/true);
  EXPECT_FALSE(again.reused);
  EXPECT_EQ(again.output_bytes, first.output_bytes);
  const auto mg = store::MappedGraph::open(packed.path());
  EXPECT_TRUE(same_graph(g, mg->graph()));
}

TEST(StoreGbin2, ResidencyCountsEveryPageAfterAFullRead) {
  const Csr g = suite_graph();
  const ScopedFile f(temp_path("store_resident.gbin"));
  store::write_gbin_v2(f.path(), g);

  const auto mg = store::MappedGraph::open(f.path());
  ASSERT_TRUE(mg->is_mapped());
  // open() read the header page; reading both sections end to end (what
  // CSR validation does on every registry load) faults in the rest.
  ASSERT_TRUE(same_graph(g, mg->graph()));

  const store::ResidencyStats r = mg->residency();
  EXPECT_GT(r.total_pages, 0u);
  EXPECT_EQ(r.resident_pages, r.total_pages);
}

}  // namespace
}  // namespace gcg
