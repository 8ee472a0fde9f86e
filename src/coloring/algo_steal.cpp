// Persistent-wave coloring, with and without work stealing. Phase A runs
// on persistent waves pulling frontier chunks from per-wave queues:
//   * enable_steal=false — classic static partitioning: each wave owns a
//     contiguous share of the frontier and retires when it drains. Waves
//     that drew hub-heavy chunks become the makespan (the imbalance the
//     paper measures).
//   * enable_steal=true  — drained waves steal chunks from laggards' queue
//     tails (the paper's first load-balancing technique).
// Phase B stays an NDRange commit (neighbour-scan-free, already balanced).
#include <numeric>
#include <optional>

#include "coloring/detail/driver.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace gcg::detail {

void run_steal(DriverState& st, bool min_too, bool enable_steal) {
  const vid_t n = st.g.num_vertices();
  const simgpu::DeviceConfig& cfg = st.dev.config();
  std::vector<vid_t> frontier_in(n);
  std::iota(frontier_in.begin(), frontier_in.end(), vid_t{0});
  std::vector<vid_t> frontier_out(n);
  std::vector<std::uint32_t> counter(1, 0);
  std::uint32_t frontier_size = n;

  simgpu::PersistentOptions popts;
  popts.waves_per_cu = st.persistent_waves_per_cu();
  popts.cache = st.dev.l2();
  // One queue per CU: all waves resident on a CU drain it together, and
  // stealing moves work between CUs — the imbalance that actually decides
  // the makespan. (Per-wave queues would leave ~1 chunk per queue.)
  const auto queue_of = [&](unsigned worker) {
    return worker / popts.waves_per_cu;
  };

  for (unsigned iter = 0; frontier_size > 0; ++iter) {
    GCG_ASSERT(iter < st.opts.max_iterations);
    ColorCtx ctx = st.ctx();
    const std::span<const vid_t> fin(frontier_in.data(), frontier_size);

    // --- phase A on persistent waves with stealing ----------------------
    StealQueues queues(cfg.num_cus);
    const auto chunks = make_chunks(frontier_size, st.opts.chunk_size);
    popts.busy_waves_hint = chunks.size();  // latency hiding tracks real work
    // Both modes use the same static per-CU split (contiguous blocks, the
    // classic index-range partition); the only difference is whether a
    // drained CU may steal.
    queues.fill(deal_blocked(chunks, cfg.num_cus));
    Xoshiro256ss rng(st.opts.seed ^ (0x9e3779b9ULL * (iter + 1)));

    auto process_chunk = [&](simgpu::Wave& w, Chunk c) {
      for (std::uint32_t off = c.begin; off < c.end; off += w.width()) {
        simgpu::Mask m = simgpu::Mask::none();
        simgpu::Vec<std::uint32_t> fidx;
        for (unsigned i = 0; i < w.width(); ++i) {
          fidx[i] = off + i;
          if (fidx[i] < c.end) m.set(i);
        }
        w.valu(m);  // index setup
        const auto items = w.load(fin, fidx, m);
        scan_flags_tpv(w, m, items, ctx, /*check_colored=*/false, min_too);
      }
    };

    const auto pres = simgpu::run_persistent(
        cfg, popts, [&](unsigned worker, simgpu::Wave& w) -> simgpu::StepStatus {
          std::optional<Chunk> c = queues.pop_own(w, queue_of(worker));
          if (!c) {
            if (!enable_steal) return simgpu::StepStatus::kDone;
            if (queues.total_remaining() == 0) return simgpu::StepStatus::kDone;
            c = queues.steal(w, queue_of(worker), st.opts.victim, rng);
            if (!c) return simgpu::StepStatus::kIdle;
          }
          process_chunk(w, *c);
          return simgpu::StepStatus::kWorked;
        });
    st.dev.record_launch(simgpu::to_launch_record(cfg, pres, popts.waves_per_cu));
    st.run.steal += queues.stats();

    // --- phase B: NDRange commit + frontier rebuild ----------------------
    counter[0] = 0;
    FrontierAppender app{frontier_out, counter};
    const color_t base = static_cast<color_t>(iter) * (min_too ? 2 : 1);
    std::uint64_t committed = 0;
    st.dev.launch_waves(frontier_size, st.opts.group_size, [&](simgpu::Wave& w) {
      const simgpu::Mask m = w.valid();
      const auto items = w.load(fin, w.global_ids(), m);
      const simgpu::Mask won = commit_tpv(w, m, items, ctx, base, min_too,
                                          /*check_colored=*/false, &app);
      committed += won.count();
    });

    GCG_ASSERT(committed > 0);
    st.colored_total += static_cast<vid_t>(committed);
    st.note_iteration(frontier_size, committed);
    frontier_in.swap(frontier_out);
    frontier_size = counter[0];
  }
}

}  // namespace gcg::detail
