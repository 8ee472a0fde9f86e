#include "util/histogram.hpp"

#include <gtest/gtest.h>

namespace gcg {
namespace {

TEST(Histogram, Log2Binning) {
  auto h = Histogram::log2(4);  // bins [0,1) [1,2) [2,4) [4,8) [8,16) [16,inf)
  h.add(0.0);
  h.add(0.5);
  h.add(1.0);
  h.add(3.0);
  h.add(4.0);
  h.add(15.0);
  h.add(16.0);
  h.add(1e9);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.count(5), 2u);
}

TEST(Histogram, WeightedAdds) {
  auto h = Histogram::log2(3);
  h.add(2.0, 10);
  EXPECT_EQ(h.count(2), 10u);
  EXPECT_EQ(h.total(), 10u);
}

TEST(Histogram, LabelsAreReadable) {
  auto h = Histogram::log2(3);
  EXPECT_EQ(h.bin_label(0), "[0,1)");
  EXPECT_EQ(h.bin_label(1), "[1,2)");
  EXPECT_EQ(h.bin_label(2), "[2,4)");
  EXPECT_EQ(h.bin_label(4), "[8,inf)");
}

TEST(Histogram, RenderShowsNonEmptyBinsOnly) {
  auto h = Histogram::log2(4);
  h.add(3.0, 7);
  const std::string out = h.render();
  EXPECT_NE(out.find("[2,4)"), std::string::npos);
  EXPECT_NE(out.find('7'), std::string::npos);
  EXPECT_EQ(out.find("[0,1)"), std::string::npos);
}

}  // namespace
}  // namespace gcg
