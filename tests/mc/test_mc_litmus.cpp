// Memory-model litmus tests for the checker itself: classic patterns
// whose weak-order variants MUST fail (the checker's reason to exist) and
// whose correctly-ordered variants MUST pass exhaustively. The buggy
// variants double as regression tests that the modeled memory model stays
// weaker than the x86 host: a checker that only explores host-observable
// behaviours would pass the relaxed store-buffer test and be useless.
//
// LIT-CNT-1 lives here: the remaining-work counter pattern (release
// decrements + an acquire load that waits for zero). The release variant
// passes and the relaxed variant fails. No production code uses the
// pattern now; it stays as the reference for any counter that an
// observer polls for zero.
// So does the dependency-counter hand-off of par's jpl, where the
// decrement that reaches zero must itself acquire (acq_rel passes,
// release fails).

#include <gtest/gtest.h>

#include <mutex>  // std::lock_guard/std::unique_lock over mc::mutex
#include <optional>
#include <string>

#include "mc/checker.hpp"
#include "mc/model.hpp"

namespace {

using gcg::mc::Model;
using gcg::mc::Options;
using gcg::mc::Result;

constexpr auto kRelaxed = std::memory_order_relaxed;
constexpr auto kAcquire = std::memory_order_acquire;
constexpr auto kRelease = std::memory_order_release;
constexpr auto kAcqRel = std::memory_order_acq_rel;
constexpr auto kSeqCst = std::memory_order_seq_cst;

// ---------------------------------------------------------------- store
// buffering (Dekker's core): T0 publishes x then reads y, T1 publishes y
// then reads x. Under seq_cst at least one thread sees the other's store;
// under relaxed (or with the fences removed) both may read 0.
struct StoreBuffer : Model {
  std::memory_order store_mo;
  std::memory_order load_mo;
  bool fences = false;

  std::optional<gcg::mc::atomic<int>> x, y;
  int r0 = -1, r1 = -1;

  explicit StoreBuffer(std::memory_order smo, std::memory_order lmo,
                       bool with_fences = false)
      : store_mo(smo), load_mo(lmo), fences(with_fences) {}

  int num_threads() const override { return 2; }
  void reset() override {
    x.emplace(0);
    y.emplace(0);
    gcg::mc::set_name(&*x, "x");
    gcg::mc::set_name(&*y, "y");
    r0 = r1 = -1;
  }
  void thread(int tid) override {
    auto& mine = tid == 0 ? *x : *y;
    auto& theirs = tid == 0 ? *y : *x;
    mine.store(1, store_mo);
    if (fences) gcg::mc::atomic_thread_fence(kSeqCst);
    (tid == 0 ? r0 : r1) = theirs.load(load_mo);
  }
  void finally() override { MC_REQUIRE(r0 == 1 || r1 == 1); }
};

TEST(McLitmus, StoreBufferRelaxedFails) {
  StoreBuffer m(kRelaxed, kRelaxed);
  const Result r = check(m);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("MC_REQUIRE"), std::string::npos) << r.failure;
  EXPECT_NE(r.trace.find("stale"), std::string::npos)
      << "the failing read should be visibly stale:\n"
      << r.trace;
}

TEST(McLitmus, StoreBufferSeqCstPasses) {
  StoreBuffer m(kSeqCst, kSeqCst);
  const Result r = check(m);
  EXPECT_TRUE(r.ok) << r.trace;
  EXPECT_TRUE(r.complete);
  EXPECT_GT(r.executions, 1);
}

TEST(McLitmus, StoreBufferSeqCstFencesPass) {
  StoreBuffer m(kRelaxed, kRelaxed, /*with_fences=*/true);
  const Result r = check(m);
  EXPECT_TRUE(r.ok) << r.trace;
  EXPECT_TRUE(r.complete);
}

// Satellite check: replaying a failure's trail must reproduce the trace
// bit-for-bit — that is what makes a reported interleaving debuggable.
TEST(McLitmus, FailureReplayIsDeterministic) {
  StoreBuffer m(kRelaxed, kRelaxed);
  const Result first = check(m);
  ASSERT_FALSE(first.ok);
  ASSERT_FALSE(first.trail.empty());
  const Result again = replay(m, first.trail);
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(first.trace, again.trace);
  EXPECT_EQ(first.failure, again.failure);
}

// ------------------------------------------------------- message passing:
// T0 writes data then sets a flag; T1 spins (bounded) on the flag and
// reads the data. Needs release/acquire on the flag; relaxed lets T1 see
// the flag without the data.
struct MessagePassing : Model {
  std::memory_order pub_mo;
  std::memory_order sub_mo;

  std::optional<gcg::mc::atomic<int>> data, flag;
  bool delivered = false;
  int got = -1;

  MessagePassing(std::memory_order pub, std::memory_order sub)
      : pub_mo(pub), sub_mo(sub) {}

  int num_threads() const override { return 2; }
  void reset() override {
    data.emplace(0);
    flag.emplace(0);
    gcg::mc::set_name(&*data, "data");
    gcg::mc::set_name(&*flag, "flag");
    delivered = false;
    got = -1;
  }
  void thread(int tid) override {
    if (tid == 0) {
      data->store(42, kRelaxed);
      flag->store(1, pub_mo);
    } else {
      // Bounded retry, not an unbounded spin: the exhaustive scheduler
      // would otherwise drive the spin into the livelock bound.
      for (int tries = 0; tries < 3; ++tries) {
        if (flag->load(sub_mo) == 1) {
          delivered = true;
          got = data->load(kRelaxed);
          return;
        }
      }
    }
  }
  void finally() override {
    if (delivered) MC_REQUIRE(got == 42);
  }
};

TEST(McLitmus, MessagePassingRelaxedFails) {
  MessagePassing m(kRelaxed, kRelaxed);
  const Result r = check(m);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("got == 42"), std::string::npos) << r.failure;
}

TEST(McLitmus, MessagePassingReleaseAcquirePasses) {
  MessagePassing m(kRelease, kAcquire);
  const Result r = check(m);
  EXPECT_TRUE(r.ok) << r.trace;
  EXPECT_TRUE(r.complete);
}

// ---------------------------------------- LIT-CNT-1: a remaining-work
// counter. Two workers publish their bookkeeping (modeled by a relaxed
// store each) and decrement the counter; an observer that acquire-reads 0
// must see both workers' bookkeeping. Release decrements suffice — the
// acquire load synchronizes with each decrement through the release
// sequence the RMWs continue — so acq_rel is too strong, and relaxed is
// too weak.
struct DrainCounter : Model {
  std::memory_order dec_mo;

  std::optional<gcg::mc::atomic<int>> remaining, a, b;
  bool saw_zero = false;
  int ra = -1, rb = -1;

  explicit DrainCounter(std::memory_order dec) : dec_mo(dec) {}

  int num_threads() const override { return 3; }
  void reset() override {
    remaining.emplace(2);
    a.emplace(0);
    b.emplace(0);
    gcg::mc::set_name(&*remaining, "remaining");
    gcg::mc::set_name(&*a, "a");
    gcg::mc::set_name(&*b, "b");
    saw_zero = false;
    ra = rb = -1;
  }
  void thread(int tid) override {
    if (tid == 0) {
      a->store(1, kRelaxed);
      remaining->fetch_sub(1, dec_mo);
    } else if (tid == 1) {
      b->store(1, kRelaxed);
      remaining->fetch_sub(1, dec_mo);
    } else {
      if (remaining->load(kAcquire) == 0) {
        saw_zero = true;
        ra = a->load(kRelaxed);
        rb = b->load(kRelaxed);
      }
    }
  }
  void finally() override {
    if (saw_zero) MC_REQUIRE(ra == 1 && rb == 1);
  }
};

TEST(McLitmus, DrainCounterReleasePasses) {
  DrainCounter m(kRelease);
  Options opts;
  opts.preemption_bound = 3;
  const Result r = check(m, opts);
  EXPECT_TRUE(r.ok) << r.trace;
  EXPECT_TRUE(r.complete);
}

TEST(McLitmus, DrainCounterRelaxedFails) {
  DrainCounter m(kRelaxed);
  Options opts;
  opts.preemption_bound = 3;
  const Result r = check(m, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("ra == 1"), std::string::npos) << r.failure;
}

// ------------------------------------------- dependency counter: par's
// jpl colors a vertex once its counter of uncolored higher-priority
// neighbours reaches zero. Two neighbours each store their color
// (relaxed) and decrement the shared counter; the one whose fetch_sub
// returns 1 pushes the waiting vertex, which first-fits against both
// colors — so that worker must read both. Unlike LIT-CNT-1 there is no
// separate observer: the last decrement is the reader, so every
// decrement needs release and the last one acquire (acq_rel); release
// alone lets the last decrementer miss the other color.
// algo_jpl.cpp cites this test.
struct DependencyCounter : Model {
  std::memory_order dec_mo;

  std::optional<gcg::mc::atomic<int>> pending, color0, color1;
  int last = -1;
  int seen0 = -1, seen1 = -1;

  explicit DependencyCounter(std::memory_order dec) : dec_mo(dec) {}

  int num_threads() const override { return 2; }
  void reset() override {
    pending.emplace(2);
    color0.emplace(-1);
    color1.emplace(-1);
    gcg::mc::set_name(&*pending, "pending");
    gcg::mc::set_name(&*color0, "color0");
    gcg::mc::set_name(&*color1, "color1");
    last = -1;
    seen0 = seen1 = -1;
  }
  void thread(int tid) override {
    (tid == 0 ? *color0 : *color1).store(tid + 1, kRelaxed);
    if (pending->fetch_sub(1, dec_mo) == 1) {
      last = tid;
      seen0 = color0->load(kRelaxed);
      seen1 = color1->load(kRelaxed);
    }
  }
  void finally() override {
    MC_REQUIRE(last != -1);
    MC_REQUIRE(seen0 == 1 && seen1 == 2);
  }
};

TEST(McLitmus, DependencyCounterAcqRelPasses) {
  DependencyCounter m(kAcqRel);
  const Result r = check(m);
  EXPECT_TRUE(r.ok) << r.trace;
  EXPECT_TRUE(r.complete);
}

TEST(McLitmus, DependencyCounterReleaseFails) {
  DependencyCounter m(kRelease);
  const Result r = check(m);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("seen0 == 1 && seen1 == 2"), std::string::npos)
      << r.failure;
}

// ------------------------------------------------------------ atomic_flag
// as a one-shot lock: exactly one of two contenders may win it.
struct FlagRace : Model {
  std::optional<gcg::mc::atomic_flag> flag;
  int winners = 0;

  int num_threads() const override { return 2; }
  void reset() override {
    flag.emplace();
    gcg::mc::set_name(&*flag, "flag");
    winners = 0;
  }
  void thread(int) override {
    if (!flag->test_and_set(std::memory_order_acq_rel)) ++winners;
  }
  void finally() override { MC_REQUIRE(winners == 1); }
};

TEST(McLitmus, AtomicFlagElectsExactlyOneWinner) {
  FlagRace m;
  const Result r = check(m);
  EXPECT_TRUE(r.ok) << r.trace;
  EXPECT_TRUE(r.complete);
}

// --------------------------------------------------------------- mutexes:
// ABBA ordering deadlocks; the checker must find it and name both waits.
struct AbbaDeadlock : Model {
  std::optional<gcg::mc::mutex> a, b;

  int num_threads() const override { return 2; }
  void reset() override {
    a.emplace();
    b.emplace();
    gcg::mc::set_name(&*a, "A");
    gcg::mc::set_name(&*b, "B");
  }
  void thread(int tid) override {
    auto& first = tid == 0 ? *a : *b;
    auto& second = tid == 0 ? *b : *a;
    std::lock_guard<gcg::mc::mutex> l1(first);
    std::lock_guard<gcg::mc::mutex> l2(second);
  }
};

TEST(McLitmus, AbbaLockOrderDeadlocks) {
  AbbaDeadlock m;
  const Result r = check(m);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("deadlock"), std::string::npos) << r.failure;
  EXPECT_NE(r.failure.find("lock A"), std::string::npos) << r.failure;
  EXPECT_NE(r.failure.find("lock B"), std::string::npos) << r.failure;
}

// ------------------------------------------------------ condition variable
// lost wakeup: the publisher flips the predicate and notifies WITHOUT
// holding the waiter's lock, so the notify can land between the waiter's
// predicate check and its registration on the cv. The model has no
// spurious wakeups, so this surfaces as a deadlock — exactly the bug
// class a real cv masks most of the time.
struct LostWakeup : Model {
  std::optional<gcg::mc::mutex> m;
  std::optional<gcg::mc::condition_variable> cv;
  bool ready = false;

  int num_threads() const override { return 2; }
  void reset() override {
    m.emplace();
    cv.emplace();
    gcg::mc::set_name(&*m, "m");
    gcg::mc::set_name(&*cv, "ready_cv");
    ready = false;
  }
  void thread(int tid) override {
    if (tid == 0) {
      std::unique_lock<gcg::mc::mutex> lk(*m);
      while (!ready) cv->wait(lk);
    } else {
      ready = true;       // BUG: predicate flipped outside the lock, so
      cv->notify_one();   // this notify can race past the waiter's check
    }
  }
};

TEST(McLitmus, LostWakeupSurfacesAsDeadlock) {
  LostWakeup m;
  const Result r = check(m);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("deadlock"), std::string::npos) << r.failure;
  EXPECT_NE(r.failure.find("cv-wake"), std::string::npos) << r.failure;
}

// The correct handoff (predicate checked under the lock) passes.
struct Handoff : Model {
  std::optional<gcg::mc::mutex> m;
  std::optional<gcg::mc::condition_variable> cv;
  bool ready = false;
  bool woke = false;

  int num_threads() const override { return 2; }
  void reset() override {
    m.emplace();
    cv.emplace();
    ready = false;
    woke = false;
  }
  void thread(int tid) override {
    if (tid == 0) {
      std::unique_lock<gcg::mc::mutex> lk(*m);
      cv->wait(lk, [&] { return ready; });
      woke = true;
    } else {
      {
        std::lock_guard<gcg::mc::mutex> lk(*m);
        ready = true;
      }
      cv->notify_one();
    }
  }
  void finally() override { MC_REQUIRE(woke); }
};

TEST(McLitmus, CvHandoffPassesExhaustively) {
  Handoff m;
  const Result r = check(m);
  EXPECT_TRUE(r.ok) << r.trace;
  EXPECT_TRUE(r.complete);
}

// ------------------------------------------------------------- livelock:
// an unbounded spin on a flag nobody sets must hit the step bound, not
// hang the harness.
struct Spin : Model {
  std::optional<gcg::mc::atomic<int>> flag;

  int num_threads() const override { return 1; }
  void reset() override { flag.emplace(0); }
  void thread(int) override {
    while (flag->load(kRelaxed) == 0) {
    }
  }
};

TEST(McLitmus, UnboundedSpinHitsStepBound) {
  Spin m;
  Options opts;
  opts.max_steps = 100;
  const Result r = check(m, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("step bound"), std::string::npos) << r.failure;
}

// ------------------------------------------------ sleep-set soundness on
// these small models: pruning must not change any verdict, only shrink
// the number of executions explored.
TEST(McLitmus, SleepSetsPreserveVerdicts) {
  Options with;
  Options without;
  without.sleep_sets = false;

  StoreBuffer sb_bad(kRelaxed, kRelaxed);
  EXPECT_FALSE(check(sb_bad, with).ok);
  EXPECT_FALSE(check(sb_bad, without).ok);

  StoreBuffer sb_ok(kSeqCst, kSeqCst);
  const Result pruned = check(sb_ok, with);
  const Result full = check(sb_ok, without);
  EXPECT_TRUE(pruned.ok) << pruned.trace;
  EXPECT_TRUE(full.ok) << full.trace;
  EXPECT_TRUE(pruned.complete);
  EXPECT_TRUE(full.complete);
  EXPECT_LE(pruned.executions, full.executions);

  Handoff h;
  EXPECT_TRUE(check(h, with).ok);
  EXPECT_TRUE(check(h, without).ok);
}

}  // namespace
