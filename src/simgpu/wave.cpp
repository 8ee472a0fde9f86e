#include "simgpu/wave.hpp"

#include <cmath>

namespace gcg::simgpu {

Wave::Wave(const DeviceConfig& cfg, std::uint64_t first_global_id,
           unsigned width, std::uint64_t grid_size)
    : cfg_(cfg), first_id_(first_global_id), width_(width) {
  GCG_EXPECT(width_ >= 1 && width_ <= kMaxLanes);
  for (unsigned i = 0; i < width_; ++i) {
    const std::uint64_t gid = first_id_ + i;
    gids_[i] = static_cast<std::uint32_t>(gid);
    if (gid < grid_size) valid_.set(i);
  }
}

void Wave::valu(Mask m, double instructions) {
  cost_.valu_instructions += instructions;
  cost_.valu_lane_ops += instructions * m.count();
}

void Wave::salu(double instructions) {
  cost_.salu_instructions += instructions;
}

double Wave::reduce_cost() const {
  return std::ceil(std::log2(static_cast<double>(width_)));
}

}  // namespace gcg::simgpu
