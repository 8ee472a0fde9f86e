// The sync:: seam: the one spelling of the synchronization vocabulary the
// concurrent core (src/par/, src/svc/, util/stress.*) is allowed to use.
// In product builds sync::atomic IS std::atomic — see the
// static_asserts in tests/par/test_sync_seam.cpp — so the seam costs
// nothing. When a TU is compiled with GCG_MC_MODEL defined (the tests/mc/
// models), the same names resolve to the mc:: modeled primitives instead,
// so the exact production templates (WorkStealingDeque,
// BasicFrontierAppender, BasicJobQueue, ...) run under the model checker
// with no forked copies. tools/lint/gcg_lint.py (rule `sync-seam`) bans
// direct std::atomic use in the migrated directories to keep the seam
// airtight.
//
// The aliases live in mode-specific *inline namespaces* so that any
// function compiled against the seam mangles differently in the two
// modes: a test binary that links both std-mode objects (gcg_util) and
// GCG_MC_MODEL objects can never fuse two definitions across modes (ODR).
// The annotated Mutex/CondVar/LockGuard wrappers below live inside the
// same inline namespaces for the same reason (their member types differ
// by mode).
//
// Deliberately NOT aliased: std::atomic_ref (used by the par backend on
// plain color/bitmap arrays; the checker models owned mc::atomic objects,
// not views into foreign memory), std::atomic_signal_fence, and
// std::memory_order itself — order arguments keep their std:: spelling in
// both modes.
//
// --- Thread safety analysis ------------------------------------------------
//
// The GCG_* macros below expose Clang's Thread Safety Analysis
// attributes (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) and
// expand to nothing on other compilers. Together with the capability-
// annotated wrappers (sync::Mutex / sync::CondVar / sync::LockGuard)
// they turn the locking protocol of the concurrent core into a
// compile-time contract: every mutex-guarded field carries
// GCG_GUARDED_BY, every must-hold-the-lock function carries
// GCG_REQUIRES, and a clang build with -Wthread-safety
// -Wthread-safety-beta (promoted to errors in CMakeLists.txt and the CI
// `thread-safety` job) refuses to compile an unlocked access, a
// wrong-mutex guard, or a leaked lock. tests/tsa/ negative-compiles ~10
// seeded violations so the analysis itself is regression-tested, and the
// `raw-mutex` lint rule keeps std::mutex/std::lock_guard (and the
// unannotated lowercase aliases) out of the annotated directories.
#pragma once

#include <chrono>              // CondVar::wait_until/wait_for deadlines
#include <condition_variable>  // std::cv_status in CondVar's timed waits
#include <mutex>               // std::unique_lock shim inside CondVar::wait

#if defined(GCG_MC_MODEL)
#include "mc/model.hpp"
#else
#include <atomic>
#endif

// Clang Thread Safety Analysis attributes; no-ops on GCC/MSVC. Kept
// active under GCG_MC_MODEL too — the protocol is the same in both
// modes, and a clang-compiled model-check TU gets the same static pass.
#if defined(__clang__)
#define GCG_TSA_ATTR(x) __attribute__((x))
#else
#define GCG_TSA_ATTR(x)  // no-op outside clang
#endif

#define GCG_CAPABILITY(x) GCG_TSA_ATTR(capability(x))
#define GCG_SCOPED_CAPABILITY GCG_TSA_ATTR(scoped_lockable)
#define GCG_GUARDED_BY(x) GCG_TSA_ATTR(guarded_by(x))
#define GCG_PT_GUARDED_BY(x) GCG_TSA_ATTR(pt_guarded_by(x))
#define GCG_ACQUIRED_BEFORE(...) GCG_TSA_ATTR(acquired_before(__VA_ARGS__))
#define GCG_ACQUIRED_AFTER(...) GCG_TSA_ATTR(acquired_after(__VA_ARGS__))
#define GCG_REQUIRES(...) GCG_TSA_ATTR(requires_capability(__VA_ARGS__))
#define GCG_ACQUIRE(...) GCG_TSA_ATTR(acquire_capability(__VA_ARGS__))
#define GCG_RELEASE(...) GCG_TSA_ATTR(release_capability(__VA_ARGS__))
#define GCG_TRY_ACQUIRE(...) GCG_TSA_ATTR(try_acquire_capability(__VA_ARGS__))
#define GCG_EXCLUDES(...) GCG_TSA_ATTR(locks_excluded(__VA_ARGS__))
#define GCG_ASSERT_CAPABILITY(x) GCG_TSA_ATTR(assert_capability(x))
#define GCG_RETURN_CAPABILITY(x) GCG_TSA_ATTR(lock_returned(x))
#define GCG_NO_THREAD_SAFETY_ANALYSIS GCG_TSA_ATTR(no_thread_safety_analysis)

namespace gcg::sync {

#if defined(GCG_MC_MODEL)

inline namespace modelled {

template <class T>
using atomic = ::gcg::mc::atomic<T>;
using atomic_flag = ::gcg::mc::atomic_flag;
using mutex = ::gcg::mc::mutex;
using condition_variable = ::gcg::mc::condition_variable;

inline void atomic_thread_fence(std::memory_order mo) {
  ::gcg::mc::atomic_thread_fence(mo);
}

}  // namespace modelled

#else

inline namespace native {

template <class T>
using atomic = ::std::atomic<T>;
using atomic_flag = ::std::atomic_flag;
using mutex = ::std::mutex;
using condition_variable = ::std::condition_variable;

inline void atomic_thread_fence(std::memory_order mo) {
  ::std::atomic_thread_fence(mo);
}

}  // namespace native

#endif

// Reopen the mode's inline namespace for the annotated wrappers: they
// hold a mode-specific `mutex`/`condition_variable` member, so their
// definitions must mangle per-mode exactly like the aliases above.
#if defined(GCG_MC_MODEL)
inline namespace modelled {
#else
inline namespace native {
#endif

/// Capability-annotated mutex: the lockable thing GCG_GUARDED_BY /
/// GCG_REQUIRES / GCG_EXCLUDES name. Prefer sync::LockGuard over calling
/// lock()/unlock() directly; the raw calls exist for the rare manual
/// protocol (and so the negative-compile suite can seed leaked-lock
/// violations).
class GCG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GCG_ACQUIRE() { mu_.lock(); }
  void unlock() GCG_RELEASE() { mu_.unlock(); }
  bool try_lock() GCG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;  // waits on the underlying primitive
  sync::mutex mu_;
};

/// RAII scoped acquisition of a sync::Mutex (the std::lock_guard of the
/// seam). SCOPED_CAPABILITY: the analysis credits the capability to the
/// enclosing scope for the guard's lifetime.
class GCG_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) GCG_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() GCG_RELEASE() { mu_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over sync::Mutex. Every wait takes the Mutex the
/// caller already holds (GCG_REQUIRES), re-holds it on return, and — by
/// design — has NO predicate overloads: spell the condition as an
/// explicit `while (!cond) cv.wait(mu);` loop so the analysis sees the
/// guarded reads under the held capability (a predicate lambda would be
/// analyzed as a separate unannotated function).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  /// Atomically releases `mu` and blocks; re-acquires before returning.
  void wait(Mutex& mu) GCG_REQUIRES(mu) {
    // Adopt the caller's hold into a unique_lock for the wait protocol,
    // then release() so ownership stays with the caller's LockGuard.
    // (If the wait itself threw, the lock would be released twice; the
    // standard wait only throws on system_error conditions this code
    // treats as fatal anyway.)
    std::unique_lock<sync::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

#if !defined(GCG_MC_MODEL)
  /// wait() with a deadline; false once `tp` has passed (a timeout).
  /// Native-mode only: the model checker has no clock, so timed waits do
  /// not exist under GCG_MC_MODEL (model-checked code must not use them).
  template <class Clock, class Duration>
  bool wait_until(Mutex& mu,
                  const std::chrono::time_point<Clock, Duration>& tp)
      GCG_REQUIRES(mu) {
    std::unique_lock<sync::mutex> lk(mu.mu_, std::adopt_lock);
    const auto status = cv_.wait_until(lk, tp);
    lk.release();
    return status == std::cv_status::no_timeout;
  }

  /// wait() with a timeout; false once `dur` elapsed. Native-mode only.
  template <class Rep, class Period>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& dur)
      GCG_REQUIRES(mu) {
    std::unique_lock<sync::mutex> lk(mu.mu_, std::adopt_lock);
    const auto status = cv_.wait_for(lk, dur);
    lk.release();
    return status == std::cv_status::no_timeout;
  }
#endif  // !GCG_MC_MODEL

 private:
  sync::condition_variable cv_;
};

}  // inline namespace (modelled/native)

}  // namespace gcg::sync
