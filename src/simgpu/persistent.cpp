#include "simgpu/persistent.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace gcg::simgpu {

PersistentResult run_persistent(const DeviceConfig& cfg,
                                const PersistentOptions& opts,
                                const PersistentStep& step) {
  GCG_EXPECT(opts.waves_per_cu >= 1);
  const unsigned n = cfg.num_cus * opts.waves_per_cu;
  double busy_per_cu = opts.waves_per_cu;
  if (opts.busy_waves_hint > 0) {
    busy_per_cu = std::min(
        busy_per_cu, std::max(1.0, static_cast<double>(opts.busy_waves_hint) /
                                       static_cast<double>(cfg.num_cus)));
  }
  const double lcost = latency_cost(cfg, busy_per_cu);

  PersistentResult r;
  r.mem_latency_cost = lcost;
  r.wave_clock.assign(n, 0.0);
  r.wave_busy.assign(n, 0.0);
  r.steps_worked.assign(n, 0);
  r.steps_idle.assign(n, 0);
  std::vector<bool> done(n, false);
  unsigned alive = n;

  std::uint64_t steps = 0;
  while (alive > 0) {
    // Earliest-clock live wave steps next (linear scan: n is ~100).
    unsigned w = n;
    for (unsigned i = 0; i < n; ++i) {
      if (!done[i] && (w == n || r.wave_clock[i] < r.wave_clock[w])) w = i;
    }
    GCG_ASSERT(w < n);

    Wave wave(cfg, static_cast<std::uint64_t>(w) * cfg.wavefront_size,
              cfg.wavefront_size, /*grid_size=*/~std::uint64_t{0});
    if (opts.cache) wave.attach_cache(opts.cache);
    const StepStatus st = step(w, wave);
    const double cycles = wave_cycles(cfg, wave.cost(), lcost);
    r.total += wave.cost();
    r.wave_clock[w] += cycles;

    switch (st) {
      case StepStatus::kWorked:
        r.wave_busy[w] += cycles;
        ++r.steps_worked[w];
        break;
      case StepStatus::kIdle:
        r.wave_clock[w] += opts.idle_cycles;
        ++r.steps_idle[w];
        break;
      case StepStatus::kDone:
        done[w] = true;
        --alive;
        break;
    }

    if (opts.max_steps && ++steps > opts.max_steps) {
      GCG_ASSERT(false && "persistent executor exceeded max_steps");
    }
  }

  r.makespan_cycles =
      *std::max_element(r.wave_clock.begin(), r.wave_clock.end()) +
      cfg.kernel_launch_cycles;
  r.simd_efficiency = simd_efficiency(r.total, cfg.wavefront_size);
  return r;
}

LaunchResult to_launch_record(const DeviceConfig& cfg,
                              const PersistentResult& pres,
                              unsigned waves_per_cu) {
  GCG_EXPECT(waves_per_cu >= 1);
  LaunchResult r;
  r.kernel_cycles = pres.makespan_cycles;
  r.launch_overhead_cycles = cfg.kernel_launch_cycles;
  r.cu_busy_cycles.assign(cfg.num_cus, 0.0);
  for (std::size_t w = 0; w < pres.wave_busy.size(); ++w) {
    const std::size_t cu = std::min<std::size_t>(w / waves_per_cu, cfg.num_cus - 1);
    r.cu_busy_cycles[cu] += pres.wave_busy[w];
  }
  r.total = pres.total;
  r.num_waves = pres.wave_clock.size();
  r.simd_efficiency = pres.simd_efficiency;
  r.mem_latency_cost = pres.mem_latency_cost;
  return r;
}

}  // namespace gcg::simgpu
