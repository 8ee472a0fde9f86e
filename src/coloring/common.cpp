#include "coloring/common.hpp"

#include <algorithm>
#include <map>
#include <vector>

namespace gcg {

int count_colors(std::span<const color_t> colors) {
  std::vector<color_t> seen(colors.begin(), colors.end());
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  int k = 0;
  for (color_t c : seen) {
    if (c != kUncolored) ++k;
  }
  return k;
}

int compact_colors(std::span<color_t> colors) {
  std::map<color_t, color_t> remap;
  for (color_t c : colors) {
    if (c != kUncolored) remap.emplace(c, 0);
  }
  color_t next = 0;
  for (auto& [old_color, new_color] : remap) {
    (void)old_color;
    new_color = next++;
  }
  for (color_t& c : colors) {
    if (c != kUncolored) c = remap[c];
  }
  return static_cast<int>(next);
}

}  // namespace gcg
