// Persistent-wave execution: the substrate for work stealing. Instead of an
// NDRange, a fixed set of wavefronts stays resident and repeatedly asks a
// runtime for work. Execution is discrete-event over per-wave virtual
// clocks: the globally-earliest wave always steps next, so queue pops and
// steals interleave deterministically in virtual-time order — the property
// the paper's OpenCL persistent-thread queues get from real concurrency.
#pragma once

#include <functional>
#include <vector>

#include "simgpu/dispatch.hpp"

namespace gcg::simgpu {

enum class StepStatus {
  kWorked,  ///< did useful work; call again
  kIdle,    ///< found nothing this step (failed steal); call again
  kDone,    ///< worker retires
};

/// One scheduling step of a persistent wave. The Wave's cost counters are
/// fresh on entry; whatever the step records is priced and added to the
/// wave's virtual clock afterwards.
using PersistentStep =
    std::function<StepStatus(unsigned worker_id, Wave& wave)>;

struct PersistentResult {
  double makespan_cycles = 0.0;      ///< max wave clock + launch overhead
  std::vector<double> wave_clock;    ///< per-wave final virtual time
  std::vector<double> wave_busy;     ///< per-wave time spent in kWorked steps
  std::vector<std::uint64_t> steps_worked;
  std::vector<std::uint64_t> steps_idle;
  WaveCost total;
  double simd_efficiency = 1.0;
  double mem_latency_cost = 0.0;
};

struct PersistentOptions {
  unsigned waves_per_cu = 4;    ///< resident waves per CU
  /// Waves expected to have work concurrently (e.g. the number of queued
  /// chunks). Latency hiding comes only from waves with requests in
  /// flight, so a nearly-drained queue must not enjoy full-occupancy
  /// pricing. 0 = assume all resident waves are busy.
  std::uint64_t busy_waves_hint = 0;
  double idle_cycles = 200.0;   ///< penalty for an unproductive step
  std::uint64_t max_steps = 0;  ///< 0 = unlimited; safety valve for tests
  CacheSim* cache = nullptr;    ///< optional L2 model (usually Device::l2())
};

/// Runs waves until every worker returns kDone. Worker w's lanes cover
/// global ids [w*W, (w+1)*W) — persistent kernels derive identity from the
/// worker id, not from an NDRange.
PersistentResult run_persistent(const DeviceConfig& cfg,
                                const PersistentOptions& opts,
                                const PersistentStep& step);

/// Repackage a persistent run as a LaunchResult so the same metrics
/// pipeline (per-CU imbalance, SIMD efficiency, cycle totals) covers both
/// execution modes. Worker w maps to CU w / waves_per_cu.
LaunchResult to_launch_record(const DeviceConfig& cfg,
                              const PersistentResult& pres,
                              unsigned waves_per_cu);

}  // namespace gcg::simgpu
