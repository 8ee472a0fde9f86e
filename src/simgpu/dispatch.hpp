// NDRange dispatch: functionally executes a kernel over a grid, then prices
// the recorded events with the occupancy-aware cost model and schedules
// workgroups onto compute units (list scheduling in submission order — the
// hardware workgroup dispatcher). See DESIGN.md §4.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "simgpu/cache.hpp"
#include "simgpu/counters.hpp"
#include "simgpu/group.hpp"

namespace gcg::simgpu {

using GroupKernel = std::function<void(Group&)>;
using WaveKernel = std::function<void(Wave&)>;

struct LaunchResult {
  double kernel_cycles = 0.0;        ///< max CU busy + launch overhead
  double launch_overhead_cycles = 0.0;
  std::vector<double> cu_busy_cycles;   ///< per-CU accumulated busy time
  std::vector<double> group_cycles;     ///< per-workgroup time
  WaveCost total;                    ///< summed event counts
  std::uint64_t num_groups = 0;
  std::uint64_t num_waves = 0;
  double simd_efficiency = 1.0;
  double mem_latency_cost = 0.0;     ///< cycles charged per memory instruction

  /// max/mean over per-CU busy cycles (1.0 = perfectly balanced).
  double cu_imbalance() const;
};

/// Memory pricing (see DESIGN.md §4): every vector memory *instruction*
/// pays an exposed-latency component — the DRAM round trip divided by the
/// waves available per SIMD to hide it — because a wave's dependent loop
/// iterations serialize on their loads. Every 64-byte *line* additionally
/// pays the bandwidth roof. This is what makes SIMT divergence expensive:
/// a lane looping d times alone issues d latency-bound instructions, while
/// a wave-per-vertex loop issues d/64 of them.
double latency_cost(const DeviceConfig& cfg, double resident_waves_per_cu);

/// Cycles per 64-byte line at the bandwidth roof.
double bandwidth_cost(const DeviceConfig& cfg);

/// Price a wave's recorded events in cycles.
double wave_cycles(const DeviceConfig& cfg, const WaveCost& c, double lat_cost);

/// Execute `kernel` over `grid_size` work-items in workgroups of
/// `group_size`. Deterministic: groups run in id order. `cache` routes
/// line traffic through an L2 model when provided.
LaunchResult dispatch(const DeviceConfig& cfg, std::uint64_t grid_size,
                      unsigned group_size, const GroupKernel& kernel,
                      CacheSim* cache = nullptr);

/// Convenience for kernels with no cross-wave cooperation.
LaunchResult dispatch_waves(const DeviceConfig& cfg, std::uint64_t grid_size,
                            unsigned group_size, const WaveKernel& kernel,
                            CacheSim* cache = nullptr);

/// A device: a config plus an accumulating command-queue timeline, and
/// (when enabled) the L2 cache state that persists across launches.
class Device {
 public:
  explicit Device(DeviceConfig cfg);

  const DeviceConfig& config() const { return cfg_; }
  /// The device's L2 model, or nullptr when caching is disabled.
  CacheSim* l2() { return l2_.get(); }

  LaunchResult& launch(std::uint64_t grid_size, unsigned group_size,
                       const GroupKernel& kernel);
  LaunchResult& launch_waves(std::uint64_t grid_size, unsigned group_size,
                             const WaveKernel& kernel);
  /// Record a pre-built launch (e.g. from to_launch_record) on the
  /// timeline, so metrics aggregation sees persistent-mode work too.
  LaunchResult& record_launch(LaunchResult r) {
    total_cycles_ += r.kernel_cycles;
    history_.push_back(std::move(r));
    return history_.back();
  }

  double total_cycles() const { return total_cycles_; }
  double total_ms() const { return cfg_.cycles_to_ms(total_cycles_); }
  std::size_t launch_count() const { return history_.size(); }
  const std::vector<LaunchResult>& history() const { return history_; }
  void reset() {
    total_cycles_ = 0;
    history_.clear();
  }

 private:
  DeviceConfig cfg_;
  std::unique_ptr<CacheSim> l2_;
  double total_cycles_ = 0.0;
  std::vector<LaunchResult> history_;
};

}  // namespace gcg::simgpu
