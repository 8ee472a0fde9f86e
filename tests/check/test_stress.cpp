// StressSchedule: the perturbation harness must actually fire at pool
// chunk boundaries and deque pops/steals, be deterministic in its
// decision stream, and — the point of the exercise — leave every
// scheduling invariant intact: JPL stays bit-identical across thread
// counts even when pops and steals yield and stall at random, and
// speculative/steal colorings stay valid, with speculative's cooperative
// hub path engaged on hub graphs.
#include "check/stress.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "check/coloring.hpp"
#include "check/csr.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/special.hpp"
#include "par/pool.hpp"
#include "par/runner.hpp"
#include "util/stress.hpp"

namespace gcg {
namespace {

TEST(StressSchedule, InstallsAndUninstallsTheGlobalHook) {
  EXPECT_FALSE(stress_hook_installed());
  {
    check::StressSchedule stress(42);
    EXPECT_TRUE(stress_hook_installed());
  }
  EXPECT_FALSE(stress_hook_installed());
}

TEST(StressSchedule, FiresAtThreadPoolChunkBoundaries) {
  check::StressSchedule stress(check::StressOptions{
      .seed = 7, .yield_probability = 0.5, .spin_probability = 0.5});
  par::ThreadPool pool(2);
  std::atomic<std::uint32_t> sum{0};
  pool.parallel_for(1000, 10, [&](std::uint32_t b, std::uint32_t e, unsigned) {
    // order: relaxed — independent tally, checked after the pool barrier.
    sum.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000u);
  EXPECT_EQ(stress.boundaries_seen(), 100u);  // 1000/10 chunk grabs
  // With p(yield)+p(spin)=1 every boundary perturbs.
  EXPECT_EQ(stress.perturbations(), stress.boundaries_seen());
}

TEST(StressSchedule, DecisionStreamIsSeedDeterministic) {
  // Same seed, same single-threaded chunk walk => identical counts.
  std::uint64_t runs[2];
  for (std::uint64_t& out : runs) {
    check::StressSchedule stress(check::StressOptions{
        .seed = 99, .yield_probability = 0.3, .spin_probability = 0.0});
    par::ThreadPool pool(1);
    pool.parallel_for(4096, 16, [](std::uint32_t, std::uint32_t, unsigned) {});
    out = stress.perturbations();
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_GT(runs[0], 0u);
}

TEST(StressScheduleDeathTest, SecondHarnessIsRejected) {
#if GTEST_HAS_DEATH_TEST
  check::StressSchedule outer(1);
  EXPECT_DEATH(check::StressSchedule inner(2), "precondition");
#endif
}

// --- the JPL bit-identity suite, rerun under perturbation -------------------

/// The star's center (degree 20000) and K(8, 3000)'s left vertices
/// (degree 3000) clear the auto hub threshold; RMAT has no hubs.
struct StressCase {
  const char* name;
  Csr graph;
  bool has_hubs;
};

std::vector<StressCase> stress_cases() {
  std::vector<StressCase> out;
  out.push_back({"rmat", make_rmat(11, 8, {}, 99), false});
  out.push_back({"star", make_star(20'000), true});
  out.push_back({"bipartite", make_complete_bipartite(8, 3000), true});
  return out;
}

TEST(StressSchedule, JplBitIdentityHoldsUnderPerturbation) {
  // Jpl's workers meet only at deque pops and steals, which is where the
  // harness perturbs them; hub graphs add the longest neighbour lists.
  for (const StressCase& tc : stress_cases()) {
    ASSERT_FALSE(check::validate_csr(tc.graph).has_value()) << tc.name;
    par::ParOptions opts;
    opts.seed = 1;

    // Unperturbed single-thread run as the reference.
    opts.threads = 1;
    const par::ParRun ref =
        par::run_par_coloring(tc.graph, par::ParAlgorithm::kJpl, opts);
    ASSERT_FALSE(check::verify_coloring(tc.graph, ref.colors).has_value());
    EXPECT_EQ(ref.hub_vertices, 0u) << tc.name;

    for (std::uint64_t seed : {3ull, 17ull}) {
      check::StressSchedule stress(check::StressOptions{
          .seed = seed, .yield_probability = 0.25, .spin_probability = 0.25});
      for (unsigned threads : {2u, 4u}) {
        opts.threads = threads;
        const par::ParRun run =
            par::run_par_coloring(tc.graph, par::ParAlgorithm::kJpl, opts);
        EXPECT_EQ(run.colors, ref.colors)
            << tc.name << "/" << threads << "t/seed=" << seed;
        EXPECT_EQ(run.iterations, ref.iterations);
        EXPECT_EQ(run.hub_vertices, 0u)
            << tc.name << "/" << threads << "t/seed=" << seed;
      }
      EXPECT_GT(stress.perturbations(), 0u) << "harness never engaged";
    }
  }
}

TEST(StressSchedule, SpeculativeAndStealStayValidUnderPerturbation) {
  std::vector<StressCase> cases = stress_cases();
  cases.push_back({"ba", make_barabasi_albert(3000, 8, 5), false});
  check::StressSchedule stress(check::StressOptions{
      .seed = 11, .yield_probability = 0.3, .spin_probability = 0.3});
  for (const StressCase& tc : cases) {
    for (par::ParAlgorithm algo :
         {par::ParAlgorithm::kSpeculative, par::ParAlgorithm::kSteal}) {
      for (unsigned threads : {2u, 4u}) {
        par::ParOptions o;
        o.threads = threads;
        o.seed = 1;
        const par::ParRun run = par::run_par_coloring(tc.graph, algo, o);
        const auto violation = check::verify_coloring(tc.graph, run.colors);
        EXPECT_FALSE(violation.has_value())
            << tc.name << "/" << par::par_algorithm_name(algo) << "/"
            << threads << "t: " << violation->to_string();
        // Speculative is the hub path's only caller: keep its cooperative
        // first-fit and conflict scan under perturbation.
        if (algo == par::ParAlgorithm::kSpeculative && tc.has_hubs) {
          EXPECT_GT(run.hub_vertices, 0u) << tc.name << "/" << threads << "t";
        }
      }
    }
  }
  EXPECT_GT(stress.perturbations(), 0u);
}

}  // namespace
}  // namespace gcg
