// Model-checker engine: cooperative scheduler + modeled C++11 memory
// model behind the mc:: primitives in mc/model.hpp.
//
// Execution scheme. The N logical threads of a Model run on N real OS
// threads, but at most one is ever runnable: every mc:: operation first
// *announces* itself (a Pending record) and blocks; the scheduler picks
// one announced thread, which then performs its operation with exclusive
// access to the engine state and runs user code up to its next
// announcement. All engine state is therefore single-threaded by
// construction, and the announce/grant handoff through one host mutex
// provides the cross-thread visibility.
//
// Memory model. Per atomic location the engine keeps the modification
// order as the list of stores in execution order. A load does not simply
// read the newest store: the set of *visible* stores is the contiguous
// suffix that coherence (per-thread floors), happens-before (vector
// clocks), and seq_cst read coherence do not rule out, and which member
// gets read is an explored decision — this is where relaxed stale reads
// come from. Release/acquire edges carry vector clocks; RMWs continue
// release sequences; fences keep per-thread snapshots (release) and a
// global SC clock (seq_cst). Seq_cst *operations* are modeled as acq_rel
// plus SC read coherence (a seq_cst load never reads past the newest
// seq_cst store) — slightly weaker than the full total order S, i.e. the
// model over-approximates behaviors and errs toward reporting bugs.
//
// Exploration. Depth-first over a trail of decision records (scheduling
// picks and load-value picks). Each execution re-runs the model from
// reset() following the trail prefix, then takes default choices;
// advance() bumps the deepest record with untried alternatives. Sleep
// sets prune schedules that only commute independent operations, and a
// CHESS-style preemption bound caps context switches away from runnable
// threads. The combination is a bounded search: every schedule within
// the bound is covered (up to sleep-set equivalence), nothing beyond it.
#include "mc/checker.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mc/model.hpp"
#include "util/expect.hpp"

namespace gcg::mc {

Model::~Model() = default;

namespace detail {
namespace {

// Thrown at a blocked announcement (or an MC_REQUIRE) to unwind a logical
// thread once its execution is being torn down. While unwinding, every
// mc:: hook degrades to a raw-bits no-op so destructors cannot re-enter
// the scheduler.
struct AbortExecution {};

thread_local int tls_tid = -1;
thread_local bool tls_aborting = false;

using Clock = std::vector<unsigned>;

void join(Clock& into, const Clock& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0U);
  for (std::size_t i = 0; i < from.size(); ++i) {
    into[i] = std::max(into[i], from[i]);
  }
}

// order: the memory_order values in this block are *data* — the checker
// interprets them against the modeled memory model; none of these
// functions perform host synchronization.
bool has_acquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}
// order: data, as above.
bool has_release(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}
// order: data, as above.
bool is_seq_cst(std::memory_order mo) { return mo == std::memory_order_seq_cst; }
// order: data, as above — trace-formatting names only.
const char* mo_name(std::memory_order mo) {
  switch (mo) {
    case std::memory_order_relaxed: return "relaxed";
    case std::memory_order_consume: return "consume";
    case std::memory_order_acquire: return "acquire";
    case std::memory_order_release: return "release";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "seq_cst";
  }
  return "?";
}

std::uint64_t width_mask(unsigned width) {
  return width >= 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (width * 8)) - 1;
}

// Sign-extend a width-byte value for display (top_/bottom_ are int64_t;
// traces read better signed, and small unsigned values are unaffected).
std::string val_str(std::uint64_t v, unsigned width) {
  std::int64_t s = 0;
  if (width >= 8) {
    s = static_cast<std::int64_t>(v);
  } else {
    const std::uint64_t sign = std::uint64_t{1} << (width * 8 - 1);
    s = static_cast<std::int64_t>(((v & width_mask(width)) ^ sign) - sign);
  }
  return std::to_string(s);
}

const char* rmw_name(Rmw op) {
  switch (op) {
    case Rmw::kAdd: return "fetch_add";
    case Rmw::kSub: return "fetch_sub";
    case Rmw::kAnd: return "fetch_and";
    case Rmw::kOr: return "fetch_or";
    case Rmw::kXchg: return "exchange";
  }
  return "?";
}

enum class Kind : std::uint8_t {
  kStart,
  kLoad,
  kStore,
  kRmw,
  kCas,
  kFence,
  kLock,
  kTryLock,
  kUnlock,
  kCvWait,
  kCvWake,
  kCvNotify,
};

struct Pending {
  Kind kind = Kind::kStart;
  const void* a = nullptr;  // primary object: atomic location, mutex, or cv
  const void* b = nullptr;  // secondary object: the mutex of a cv-wait
  // order: default for operations without an order argument (mutex/cv/
  // start records) — modeled data, never host synchronization.
  std::memory_order mo = std::memory_order_seq_cst;
};

bool is_pure_read(const Pending& p) {
  return p.kind == Kind::kLoad;
}

// Conservative dependence for sleep sets: operations commute unless they
// can touch the same object with at least one mutation (fences are
// dependent with everything; thread starts with nothing).
bool dependent(const Pending& x, const Pending& y) {
  if (x.kind == Kind::kStart || y.kind == Kind::kStart) return false;
  if (x.kind == Kind::kFence || y.kind == Kind::kFence) return true;
  const bool share =
      (x.a != nullptr && (x.a == y.a || x.a == y.b)) ||
      (x.b != nullptr && (x.b == y.a || x.b == y.b));
  if (!share) return false;
  if (is_pure_read(x) && is_pure_read(y)) return false;
  return true;
}

struct StoreRec {
  std::uint64_t value = 0;
  int tid = -1;       // -1: initial value
  unsigned time = 0;  // writer's own clock component at the store
  Clock release;      // release clock; empty = plain (breaks the sequence)
  bool sc = false;
};

struct Location {
  std::string name;
  unsigned width = 8;
  std::vector<StoreRec> stores;  // modification order == execution order
  int last_sc = -1;              // index of newest seq_cst store
  std::vector<int> floor;        // per-thread coherence floor (min index)
};

struct MutexRec {
  std::string name;
  bool held = false;
  int owner = -1;
  Clock release;  // published at unlock, joined at lock
};

struct CvRec {
  std::string name;
  std::vector<int> waiters;  // registration order
};

struct TrailRec {
  bool sched = false;
  // sched: candidate thread ids in exploration order, and current index.
  std::vector<int> cands;
  int idx = 0;
  // value: chosen ordinal (0 = newest) out of num alternatives.
  int chosen = 0;
  int num = 0;
};

struct Step {
  int tid = 0;
  std::string text;
};

enum class TState : std::uint8_t { kReady, kRunning, kDone };

constexpr int kSchedulerTurn = -1;
constexpr int kMaxThreads = 8;

class Exec {
 public:
  Exec(Model& model, const Options& opts, const std::vector<int>* replay_in);
  ~Exec();
  Exec(const Exec&) = delete;
  Exec& operator=(const Exec&) = delete;

  void run_one();
  bool advance();

  bool failed() const { return failed_; }
  bool pruned() const { return pruned_; }
  const std::string& fail_msg() const { return fail_msg_; }
  std::string format_trace() const;
  std::vector<int> export_trail() const;

  // --- modeled operations (called from logical threads via the hooks) ---
  std::uint64_t op_load(int tid, const void* addr, const std::uint64_t* bits,
                        std::memory_order mo);
  void op_store(int tid, const void* addr, std::uint64_t* bits,
                std::uint64_t value, unsigned width, std::memory_order mo);
  std::uint64_t op_rmw(int tid, const void* addr, std::uint64_t* bits, Rmw op,
                       std::uint64_t operand, unsigned width,
                       std::memory_order mo);
  bool op_cas(int tid, const void* addr, std::uint64_t* bits,
              std::uint64_t* expected, std::uint64_t desired, unsigned width,
              std::memory_order success, std::memory_order failure);
  void op_fence(int tid, std::memory_order mo);
  // Every seq_cst OPERATION (not just fences) participates in the global
  // seq_cst clock: pull before acting, push after. The execution order of
  // sc ops then forms the total order S, and any op after an sc op in S
  // inherits its knowledge — slightly stronger than the letter of C++
  // for relaxed accesses adjacent to sc ops on other locations, but it
  // is what makes sc-fence/sc-CAS protocols (Chase–Lev pop vs steal)
  // verify without false races; see docs/CORRECTNESS.md.
  void sc_pull(int tid, std::memory_order mo) {
    if (is_seq_cst(mo)) join(clocks_[static_cast<std::size_t>(tid)], sc_clock_);
  }
  void sc_push(int tid, std::memory_order mo) {
    if (is_seq_cst(mo)) join(sc_clock_, clocks_[static_cast<std::size_t>(tid)]);
  }
  void op_mutex_lock(int tid, const void* m, const char* why);
  bool op_mutex_try_lock(int tid, const void* m);
  void op_mutex_unlock(int tid, const void* m);
  void op_cv_wait(int tid, const void* cv, const void* m);
  void op_cv_notify(int tid, const void* cv, bool all);
  [[noreturn]] void op_require_failed(int tid, const std::string& msg);
  void scheduler_require_failed(const std::string& msg);
  void on_location_destroyed(const void* addr);
  void set_location_name(const void* addr, const char* name);

 private:
  void worker_main(int tid);
  void finish_worker(int tid, std::unique_lock<std::mutex>& lk);
  void yield(int tid, const Pending& op);
  int pick(const std::vector<int>& enabled);
  int choose(int num);
  void wake_sleepers(const Pending& executed);
  void abort_all(std::unique_lock<std::mutex>& lk);
  bool is_enabled(const Pending& p, int tid);
  void tick(int tid) { ++clocks_[static_cast<std::size_t>(tid)][static_cast<std::size_t>(tid)]; }
  void step(int tid, std::string text);
  std::string describe(const Pending& p) const;
  std::string object_name(const void* addr) const;
  Location& location(const void* addr, std::uint64_t init_bits);
  MutexRec& mutex_rec(const void* m);
  CvRec& cv_rec(const void* cv);
  void push_store(int tid, Location& loc, std::uint64_t value,
                  std::uint64_t* bits, std::memory_order mo,
                  const Clock* read_from_release);
  void acquire_from(int tid, const StoreRec& s, std::memory_order mo);

  Model& model_;
  const Options opts_;
  const int n_;
  const std::vector<int>* replay_in_;  // non-null: single-execution replay
  std::size_t replay_pos_ = 0;

  // Handoff (guarded by mu_). Everything below it is touched only by
  // whichever context currently holds the turn.
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;
  int turn_ = kSchedulerTurn;
  bool shutdown_ = false;
  bool abort_ = false;
  std::vector<TState> tstate_;
  std::vector<Pending> pending_;

  // Model state, rebuilt every execution.
  std::unordered_map<const void*, Location> locations_;
  std::unordered_map<const void*, MutexRec> mutexes_;
  std::unordered_map<const void*, CvRec> cvs_;
  std::unordered_map<const void*, std::string> names_;
  int loc_count_ = 0;
  int mutex_count_ = 0;
  int cv_count_ = 0;
  std::vector<Clock> clocks_;
  std::vector<Clock> acq_pending_;  // relaxed-load clocks awaiting an acquire fence
  std::vector<Clock> rel_snap_;     // release-fence snapshot (empty = none)
  Clock sc_clock_;
  std::vector<char> cv_woken_;
  std::unordered_map<int, Pending> sleep_;
  std::vector<Step> steps_;
  int step_count_ = 0;
  int preemptions_ = 0;
  int current_ = -1;
  Pending last_op_;
  bool failed_ = false;
  bool pruned_ = false;
  std::string fail_msg_;

  // DFS trail across executions.
  std::vector<TrailRec> trail_;
  std::size_t pos_ = 0;

  std::vector<std::thread> workers_;
};

Exec* g_active = nullptr;

Exec::Exec(Model& model, const Options& opts, const std::vector<int>* replay_in)
    : model_(model), opts_(opts), n_(model.num_threads()), replay_in_(replay_in) {
  GCG_EXPECT(n_ >= 1 && n_ <= kMaxThreads);
  GCG_EXPECT(opts_.preemption_bound >= 0 && opts_.max_steps > 0);
  GCG_EXPECT(g_active == nullptr);  // one check() at a time per process
  g_active = this;
  tstate_.assign(static_cast<std::size_t>(n_), TState::kDone);
  pending_.assign(static_cast<std::size_t>(n_), Pending{});
  workers_.reserve(static_cast<std::size_t>(n_));
  for (int t = 0; t < n_; ++t) {
    workers_.emplace_back([this, t] { worker_main(t); });
  }
}

Exec::~Exec() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  g_active = nullptr;
}

void Exec::worker_main(int tid) {
  tls_tid = tid;
  std::unique_lock<std::mutex> lk(mu_);
  std::uint64_t seen = 0;
  while (true) {
    cv_.wait(lk, [&] { return shutdown_ || (generation_ != seen && turn_ == tid); });
    if (shutdown_) return;
    seen = generation_;
    tls_aborting = false;
    if (abort_) {
      finish_worker(tid, lk);
      continue;
    }
    // Granted the kStart announcement made on our behalf by run_one().
    step(tid, "start");
    lk.unlock();
    try {
      model_.thread(tid);
    } catch (const AbortExecution&) {
      // Torn down (failure elsewhere, prune, or own MC_REQUIRE).
    } catch (...) {
      failed_ = true;
      fail_msg_ = "model thread " + std::to_string(tid) + " threw an exception";
    }
    lk.lock();
    finish_worker(tid, lk);
  }
}

void Exec::finish_worker(int tid, std::unique_lock<std::mutex>& lk) {
  (void)lk;  // must be held; finish is a handoff
  tls_aborting = false;
  if (!abort_ && !failed_) step(tid, "finish");
  tstate_[static_cast<std::size_t>(tid)] = TState::kDone;
  turn_ = kSchedulerTurn;
  cv_.notify_all();
}

void Exec::yield(int tid, const Pending& op) {
  std::unique_lock<std::mutex> lk(mu_);
  pending_[static_cast<std::size_t>(tid)] = op;
  tstate_[static_cast<std::size_t>(tid)] = TState::kReady;
  turn_ = kSchedulerTurn;
  cv_.notify_all();
  cv_.wait(lk, [&] { return turn_ == tid; });
  if (abort_) {
    tls_aborting = true;
    throw AbortExecution{};
  }
  tstate_[static_cast<std::size_t>(tid)] = TState::kRunning;
}

void Exec::run_one() {
  locations_.clear();
  mutexes_.clear();
  cvs_.clear();
  names_.clear();
  loc_count_ = mutex_count_ = cv_count_ = 0;
  clocks_.assign(static_cast<std::size_t>(n_), Clock(static_cast<std::size_t>(n_), 0U));
  acq_pending_.assign(static_cast<std::size_t>(n_), Clock{});
  rel_snap_.assign(static_cast<std::size_t>(n_), Clock{});
  sc_clock_.assign(static_cast<std::size_t>(n_), 0U);
  cv_woken_.assign(static_cast<std::size_t>(n_), 0);
  sleep_.clear();
  steps_.clear();
  step_count_ = 0;
  preemptions_ = 0;
  current_ = -1;
  failed_ = false;
  pruned_ = false;
  fail_msg_.clear();
  pos_ = 0;
  replay_pos_ = 0;

  model_.reset();  // unmodeled: runs on this (scheduler) thread

  std::unique_lock<std::mutex> lk(mu_);
  abort_ = false;
  for (int t = 0; t < n_; ++t) {
    pending_[static_cast<std::size_t>(t)] = Pending{Kind::kStart};
    tstate_[static_cast<std::size_t>(t)] = TState::kReady;
  }
  ++generation_;
  turn_ = kSchedulerTurn;
  cv_.notify_all();

  std::vector<int> enabled;
  while (true) {
    enabled.clear();
    bool all_done = true;
    for (int t = 0; t < n_; ++t) {
      if (tstate_[static_cast<std::size_t>(t)] == TState::kDone) continue;
      all_done = false;
      if (is_enabled(pending_[static_cast<std::size_t>(t)], t)) enabled.push_back(t);
    }
    if (all_done) break;
    if (enabled.empty()) {
      failed_ = true;
      std::string who;
      for (int t = 0; t < n_; ++t) {
        if (tstate_[static_cast<std::size_t>(t)] == TState::kDone) continue;
        if (!who.empty()) who += ", ";
        who += "T" + std::to_string(t) + " waiting: " +
               describe(pending_[static_cast<std::size_t>(t)]);
      }
      fail_msg_ = "deadlock: no enabled thread (" + who + ")";
      break;
    }
    const int t = pick(enabled);
    if (pruned_ || failed_) break;
    if (++step_count_ > opts_.max_steps) {
      failed_ = true;
      fail_msg_ = "step bound exceeded (" + std::to_string(opts_.max_steps) +
                  " steps): possible livelock";
      break;
    }
    if (current_ >= 0 && t != current_ &&
        std::find(enabled.begin(), enabled.end(), current_) != enabled.end()) {
      ++preemptions_;
    }
    last_op_ = pending_[static_cast<std::size_t>(t)];
    current_ = t;
    turn_ = t;
    cv_.notify_all();
    cv_.wait(lk, [&] { return turn_ == kSchedulerTurn; });
    if (failed_) break;
    if (opts_.sleep_sets) wake_sleepers(last_op_);
  }

  if (failed_ || pruned_) abort_all(lk);
  lk.unlock();

  if (!failed_ && !pruned_) {
    try {
      model_.finally();  // unmodeled postcondition checks; MC_REQUIRE ok
    } catch (const AbortExecution&) {
      // scheduler_require_failed() set failed_/fail_msg_
    }
  }
}

void Exec::abort_all(std::unique_lock<std::mutex>& lk) {
  abort_ = true;
  while (true) {
    int t = -1;
    for (int i = 0; i < n_; ++i) {
      if (tstate_[static_cast<std::size_t>(i)] != TState::kDone) {
        t = i;
        break;
      }
    }
    if (t < 0) break;
    turn_ = t;
    cv_.notify_all();
    cv_.wait(lk, [&] { return turn_ == kSchedulerTurn; });
  }
  abort_ = false;
}

bool Exec::is_enabled(const Pending& p, int tid) {
  switch (p.kind) {
    case Kind::kLock:
      return !mutex_rec(p.a).held;
    case Kind::kCvWake:
      return cv_woken_[static_cast<std::size_t>(tid)] != 0;
    default:
      return true;
  }
}

int Exec::pick(const std::vector<int>& enabled) {
  std::vector<int> explorable;
  for (int t : enabled) {
    if (!opts_.sleep_sets || sleep_.find(t) == sleep_.end()) explorable.push_back(t);
  }
  if (explorable.empty()) {
    pruned_ = true;  // every enabled move is covered by a sibling subtree
    return -1;
  }
  const bool cur_enabled =
      std::find(enabled.begin(), enabled.end(), current_) != enabled.end();
  const bool cur_explorable =
      std::find(explorable.begin(), explorable.end(), current_) != explorable.end();

  std::vector<int> cands;
  if (preemptions_ >= opts_.preemption_bound && cur_enabled) {
    if (!cur_explorable) {
      pruned_ = true;  // only covered moves remain within the bound
      return -1;
    }
    cands.push_back(current_);
  } else {
    if (cur_explorable) cands.push_back(current_);
    for (int t : explorable) {
      if (t != current_) cands.push_back(t);
    }
  }

  if (cands.size() == 1) return cands[0];  // forced move: not a decision

  if (replay_in_ != nullptr) {
    int t = cands[0];
    if (replay_pos_ < replay_in_->size()) {
      t = (*replay_in_)[replay_pos_++];
      if (std::find(cands.begin(), cands.end(), t) == cands.end()) {
        failed_ = true;
        fail_msg_ = "replay trail mismatch: T" + std::to_string(t) +
                    " is not a candidate at step " + std::to_string(step_count_);
        return -1;
      }
    }
    if (opts_.sleep_sets) {
      for (int s : cands) {
        if (s == t) break;
        sleep_[s] = pending_[static_cast<std::size_t>(s)];
      }
    }
    return t;
  }

  if (pos_ < trail_.size()) {
    TrailRec& r = trail_[pos_];
    GCG_EXPECT(r.sched && r.idx < static_cast<int>(r.cands.size()));
    const int t = r.cands[static_cast<std::size_t>(r.idx)];
    if (opts_.sleep_sets) {
      for (int j = 0; j < r.idx; ++j) {
        const int s = r.cands[static_cast<std::size_t>(j)];
        sleep_[s] = pending_[static_cast<std::size_t>(s)];
      }
    }
    ++pos_;
    return t;
  }

  TrailRec r;
  r.sched = true;
  r.cands = cands;
  r.idx = 0;
  trail_.push_back(std::move(r));
  ++pos_;
  return cands[0];
}

int Exec::choose(int num) {
  if (num <= 1) return 0;
  if (replay_in_ != nullptr) {
    if (replay_pos_ < replay_in_->size()) {
      const int v = (*replay_in_)[replay_pos_++];
      GCG_EXPECT(v >= 0 && v < num);
      return v;
    }
    return 0;
  }
  if (pos_ < trail_.size()) {
    const TrailRec& r = trail_[pos_];
    GCG_EXPECT(!r.sched && r.num == num);
    ++pos_;
    return r.chosen;
  }
  TrailRec r;
  r.num = num;
  trail_.push_back(std::move(r));
  ++pos_;
  return 0;
}

bool Exec::advance() {
  while (!trail_.empty()) {
    TrailRec& r = trail_.back();
    if (r.sched) {
      if (r.idx + 1 < static_cast<int>(r.cands.size())) {
        ++r.idx;
        return true;
      }
    } else if (r.chosen + 1 < r.num) {
      ++r.chosen;
      return true;
    }
    trail_.pop_back();
  }
  return false;
}

void Exec::wake_sleepers(const Pending& executed) {
  for (auto it = sleep_.begin(); it != sleep_.end();) {
    if (dependent(executed, it->second)) {
      it = sleep_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<int> Exec::export_trail() const {
  std::vector<int> out;
  out.reserve(trail_.size());
  for (const TrailRec& r : trail_) {
    out.push_back(r.sched ? r.cands[static_cast<std::size_t>(r.idx)] : r.chosen);
  }
  return out;
}

void Exec::step(int tid, std::string text) {
  steps_.push_back(Step{tid, std::move(text)});
}

std::string Exec::format_trace() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    os << (i + 1 < 10 ? "  " : i + 1 < 100 ? " " : "") << (i + 1) << ". T"
       << steps_[i].tid << "  " << steps_[i].text << "\n";
  }
  os << "=== " << fail_msg_ << " ===\n";
  return os.str();
}

std::string Exec::object_name(const void* addr) const {
  if (const auto it = locations_.find(addr); it != locations_.end()) {
    return it->second.name;
  }
  if (const auto it = mutexes_.find(addr); it != mutexes_.end()) {
    return it->second.name;
  }
  if (const auto it = cvs_.find(addr); it != cvs_.end()) {
    return it->second.name;
  }
  if (const auto it = names_.find(addr); it != names_.end()) {
    return it->second;
  }
  return "?";
}

std::string Exec::describe(const Pending& p) const {
  switch (p.kind) {
    case Kind::kStart: return "start";
    case Kind::kLoad: return "load " + object_name(p.a);
    case Kind::kStore: return "store " + object_name(p.a);
    case Kind::kRmw: return "rmw " + object_name(p.a);
    case Kind::kCas: return "cas " + object_name(p.a);
    case Kind::kFence: return "fence";
    case Kind::kLock: return "lock " + object_name(p.a);
    case Kind::kTryLock: return "try_lock " + object_name(p.a);
    case Kind::kUnlock: return "unlock " + object_name(p.a);
    case Kind::kCvWait: return "cv-wait " + object_name(p.a);
    case Kind::kCvWake: return "cv-wake " + object_name(p.a);
    case Kind::kCvNotify: return "cv-notify " + object_name(p.a);
  }
  return "?";
}

Location& Exec::location(const void* addr, std::uint64_t init_bits) {
  const auto it = locations_.find(addr);
  if (it != locations_.end()) return it->second;
  Location loc;
  if (const auto nit = names_.find(addr); nit != names_.end()) {
    loc.name = nit->second;
  } else {
    loc.name = "a" + std::to_string(loc_count_);
  }
  ++loc_count_;
  loc.stores.push_back(StoreRec{init_bits, -1, 0, Clock{}, false});
  loc.floor.assign(static_cast<std::size_t>(n_), 0);
  return locations_.emplace(addr, std::move(loc)).first->second;
}

MutexRec& Exec::mutex_rec(const void* m) {
  const auto it = mutexes_.find(m);
  if (it != mutexes_.end()) return it->second;
  MutexRec rec;
  if (const auto nit = names_.find(m); nit != names_.end()) {
    rec.name = nit->second;
  } else {
    rec.name = "m" + std::to_string(mutex_count_);
  }
  ++mutex_count_;
  return mutexes_.emplace(m, std::move(rec)).first->second;
}

CvRec& Exec::cv_rec(const void* cv) {
  const auto it = cvs_.find(cv);
  if (it != cvs_.end()) return it->second;
  CvRec rec;
  if (const auto nit = names_.find(cv); nit != names_.end()) {
    rec.name = nit->second;
  } else {
    rec.name = "c" + std::to_string(cv_count_);
  }
  ++cv_count_;
  return cvs_.emplace(cv, std::move(rec)).first->second;
}

void Exec::set_location_name(const void* addr, const char* name) {
  names_[addr] = name;
  if (const auto it = locations_.find(addr); it != locations_.end()) {
    it->second.name = name;
  }
  if (const auto it = mutexes_.find(addr); it != mutexes_.end()) {
    it->second.name = name;
  }
  if (const auto it = cvs_.find(addr); it != cvs_.end()) {
    it->second.name = name;
  }
}

void Exec::on_location_destroyed(const void* addr) {
  locations_.erase(addr);
  mutexes_.erase(addr);
  cvs_.erase(addr);
}

void Exec::acquire_from(int tid, const StoreRec& s, std::memory_order mo) {
  if (s.release.empty()) return;
  if (has_acquire(mo)) {
    join(clocks_[static_cast<std::size_t>(tid)], s.release);
  } else {
    // Remembered until an acquire fence upgrades this relaxed read.
    join(acq_pending_[static_cast<std::size_t>(tid)], s.release);
  }
}

void Exec::push_store(int tid, Location& loc, std::uint64_t value,
                      std::uint64_t* bits, std::memory_order mo,
                      const Clock* read_from_release) {
  StoreRec s;
  s.value = value;
  s.tid = tid;
  s.time = clocks_[static_cast<std::size_t>(tid)][static_cast<std::size_t>(tid)];
  s.sc = is_seq_cst(mo);
  if (has_release(mo)) {
    s.release = clocks_[static_cast<std::size_t>(tid)];
  } else if (!rel_snap_[static_cast<std::size_t>(tid)].empty()) {
    // A preceding release fence makes this relaxed store a release of
    // everything up to the fence.
    s.release = rel_snap_[static_cast<std::size_t>(tid)];
  }
  if (read_from_release != nullptr && !read_from_release->empty()) {
    // RMW: continues the release sequence of the store it read.
    join(s.release, *read_from_release);
  }
  loc.stores.push_back(std::move(s));
  const int idx = static_cast<int>(loc.stores.size()) - 1;
  loc.floor[static_cast<std::size_t>(tid)] = idx;
  if (is_seq_cst(mo)) loc.last_sc = idx;
  *bits = value;
}

std::uint64_t Exec::op_load(int tid, const void* addr, const std::uint64_t* bits,
                            std::memory_order mo) {
  yield(tid, Pending{Kind::kLoad, addr, nullptr, mo});
  Location& loc = location(addr, *bits);
  sc_pull(tid, mo);
  const int newest = static_cast<int>(loc.stores.size()) - 1;
  int lo = loc.floor[static_cast<std::size_t>(tid)];
  for (int j = newest; j > lo; --j) {
    const StoreRec& s = loc.stores[static_cast<std::size_t>(j)];
    if (s.tid >= 0 &&
        clocks_[static_cast<std::size_t>(tid)][static_cast<std::size_t>(s.tid)] >=
            s.time) {
      lo = j;  // newest store that happens-before the load bounds staleness
      break;
    }
  }
  if (is_seq_cst(mo) && loc.last_sc > lo) lo = loc.last_sc;
  const int ord = choose(newest - lo + 1);  // 0 = newest, explored choice
  const int idx = newest - ord;
  const StoreRec& s = loc.stores[static_cast<std::size_t>(idx)];
  loc.floor[static_cast<std::size_t>(tid)] =
      std::max(loc.floor[static_cast<std::size_t>(tid)], idx);
  tick(tid);
  acquire_from(tid, s, mo);
  sc_push(tid, mo);
  std::string text = "load " + loc.name + " (" + mo_name(mo) + ") = " +
                     val_str(s.value, loc.width);
  if (ord > 0) text += " [stale " + std::to_string(ord) + "]";
  step(tid, std::move(text));
  return s.value;
}

void Exec::op_store(int tid, const void* addr, std::uint64_t* bits,
                    std::uint64_t value, unsigned width, std::memory_order mo) {
  yield(tid, Pending{Kind::kStore, addr, nullptr, mo});
  Location& loc = location(addr, *bits);
  loc.width = width;
  sc_pull(tid, mo);
  tick(tid);
  push_store(tid, loc, value, bits, mo, nullptr);
  sc_push(tid, mo);
  step(tid, "store " + loc.name + " (" + mo_name(mo) + ") = " +
                val_str(value, width));
}

std::uint64_t Exec::op_rmw(int tid, const void* addr, std::uint64_t* bits,
                           Rmw op, std::uint64_t operand, unsigned width,
                           std::memory_order mo) {
  yield(tid, Pending{Kind::kRmw, addr, nullptr, mo});
  Location& loc = location(addr, *bits);
  loc.width = width;
  // An RMW reads the newest store in modification order (atomicity).
  const StoreRec prev = loc.stores.back();
  std::uint64_t next = 0;
  switch (op) {
    case Rmw::kAdd: next = prev.value + operand; break;
    case Rmw::kSub: next = prev.value - operand; break;
    case Rmw::kAnd: next = prev.value & operand; break;
    case Rmw::kOr: next = prev.value | operand; break;
    case Rmw::kXchg: next = operand; break;
  }
  next &= width_mask(width);
  sc_pull(tid, mo);
  tick(tid);
  acquire_from(tid, prev, mo);
  push_store(tid, loc, next, bits, mo, &prev.release);
  sc_push(tid, mo);
  step(tid, std::string(rmw_name(op)) + " " + loc.name + " (" + mo_name(mo) +
                ") " + val_str(prev.value, width) + " -> " + val_str(next, width));
  return prev.value;
}

bool Exec::op_cas(int tid, const void* addr, std::uint64_t* bits,
                  std::uint64_t* expected, std::uint64_t desired, unsigned width,
                  std::memory_order success, std::memory_order failure) {
  yield(tid, Pending{Kind::kCas, addr, nullptr, success});
  Location& loc = location(addr, *bits);
  loc.width = width;
  const StoreRec prev = loc.stores.back();
  sc_pull(tid, success);
  tick(tid);
  if (prev.value != *expected) {
    // Failed CAS = load of the newest store under the failure order (the
    // model does not explore stale failure reads; see CORRECTNESS.md).
    acquire_from(tid, prev, failure);
    loc.floor[static_cast<std::size_t>(tid)] =
        static_cast<int>(loc.stores.size()) - 1;
    sc_push(tid, failure);
    step(tid, "cas " + loc.name + " (" + mo_name(failure) + ") failed: saw " +
                  val_str(prev.value, width) + ", expected " +
                  val_str(*expected, width));
    *expected = prev.value;
    return false;
  }
  acquire_from(tid, prev, success);
  push_store(tid, loc, desired, bits, success, &prev.release);
  sc_push(tid, success);
  step(tid, "cas " + loc.name + " (" + mo_name(success) + ") " +
                val_str(prev.value, width) + " -> " + val_str(desired, width));
  return true;
}

void Exec::op_fence(int tid, std::memory_order mo) {
  yield(tid, Pending{Kind::kFence, nullptr, nullptr, mo});
  tick(tid);
  if (has_acquire(mo)) {
    // Upgrade every earlier relaxed read on this thread to acquire.
    join(clocks_[static_cast<std::size_t>(tid)],
         acq_pending_[static_cast<std::size_t>(tid)]);
    acq_pending_[static_cast<std::size_t>(tid)].clear();
  }
  if (is_seq_cst(mo)) {
    // All seq_cst fences are totally ordered through one global clock.
    join(clocks_[static_cast<std::size_t>(tid)], sc_clock_);
    join(sc_clock_, clocks_[static_cast<std::size_t>(tid)]);
  }
  if (has_release(mo)) {
    rel_snap_[static_cast<std::size_t>(tid)] = clocks_[static_cast<std::size_t>(tid)];
  }
  step(tid, std::string("fence (") + mo_name(mo) + ")");
}

void Exec::op_mutex_lock(int tid, const void* m, const char* why) {
  yield(tid, Pending{Kind::kLock, m});
  MutexRec& rec = mutex_rec(m);
  GCG_EXPECT(!rec.held);  // scheduler only grants enabled lock ops
  rec.held = true;
  rec.owner = tid;
  tick(tid);
  join(clocks_[static_cast<std::size_t>(tid)], rec.release);
  step(tid, "lock " + rec.name + why);
}

bool Exec::op_mutex_try_lock(int tid, const void* m) {
  yield(tid, Pending{Kind::kTryLock, m});
  MutexRec& rec = mutex_rec(m);
  tick(tid);
  if (rec.held) {
    step(tid, "try_lock " + rec.name + " = busy");
    return false;
  }
  rec.held = true;
  rec.owner = tid;
  join(clocks_[static_cast<std::size_t>(tid)], rec.release);
  step(tid, "try_lock " + rec.name + " = acquired");
  return true;
}

void Exec::op_mutex_unlock(int tid, const void* m) {
  // Deliberately NOT a scheduling point: unlock is routinely reached from
  // lock_guard/unique_lock destructors (noexcept frames), where the
  // teardown exception of an aborted execution would std::terminate. The
  // release is bundled with the thread's previous operation instead;
  // nothing observable is lost for plain lock() (a blocked locker has no
  // "busy" outcome to observe), only some try_lock busy windows shrink —
  // see the scope notes in docs/CORRECTNESS.md. The worker holds the turn
  // while running user code, so touching engine state here is safe.
  MutexRec& rec = mutex_rec(m);
  if (!rec.held || rec.owner != tid) {
    op_require_failed(tid, "unlock of " + rec.name +
                               " which this thread does not hold");
  }
  tick(tid);
  join(rec.release, clocks_[static_cast<std::size_t>(tid)]);
  rec.held = false;
  rec.owner = -1;
  step(tid, "unlock " + rec.name);
  // Sleepers caring about this mutex must still be woken: the release
  // does not commute with their pending lock/try_lock.
  if (opts_.sleep_sets) wake_sleepers(Pending{Kind::kUnlock, m});
}

void Exec::op_cv_wait(int tid, const void* cv, const void* m) {
  yield(tid, Pending{Kind::kCvWait, cv, m});
  CvRec& c = cv_rec(cv);
  MutexRec& rec = mutex_rec(m);
  if (!rec.held || rec.owner != tid) {
    op_require_failed(tid, "cv-wait on " + c.name + " without holding " + rec.name);
  }
  // Atomically release the mutex and register as a waiter.
  tick(tid);
  join(rec.release, clocks_[static_cast<std::size_t>(tid)]);
  rec.held = false;
  rec.owner = -1;
  c.waiters.push_back(tid);
  cv_woken_[static_cast<std::size_t>(tid)] = 0;
  step(tid, "cv-wait " + c.name + " (released " + rec.name + ")");

  // Disabled until a notify marks us woken (no spurious wakeups).
  yield(tid, Pending{Kind::kCvWake, cv});
  tick(tid);
  step(tid, "cv-wake " + c.name);

  op_mutex_lock(tid, m, " (cv reacquire)");
}

void Exec::op_cv_notify(int tid, const void* cv, bool all) {
  yield(tid, Pending{Kind::kCvNotify, cv});
  CvRec& c = cv_rec(cv);
  tick(tid);
  if (c.waiters.empty()) {
    step(tid, std::string(all ? "notify-all " : "notify-one ") + c.name +
                  " (no waiters)");
    return;
  }
  if (all) {
    for (int w : c.waiters) cv_woken_[static_cast<std::size_t>(w)] = 1;
    step(tid, "notify-all " + c.name + " (woke " +
                  std::to_string(c.waiters.size()) + ")");
    c.waiters.clear();
    return;
  }
  // Which waiter a notify_one wakes is an explored decision.
  const int k = choose(static_cast<int>(c.waiters.size()));
  const int w = c.waiters[static_cast<std::size_t>(k)];
  cv_woken_[static_cast<std::size_t>(w)] = 1;
  c.waiters.erase(c.waiters.begin() + k);
  step(tid, "notify-one " + c.name + " -> T" + std::to_string(w));
}

void Exec::op_require_failed(int tid, const std::string& msg) {
  failed_ = true;
  fail_msg_ = msg;
  step(tid, "FAILED: " + msg);
  tls_aborting = true;
  throw AbortExecution{};
}

void Exec::scheduler_require_failed(const std::string& msg) {
  failed_ = true;
  fail_msg_ = msg;
  steps_.push_back(Step{-1, "FAILED (finally): " + msg});
  throw AbortExecution{};
}

bool modeled() { return g_active != nullptr && tls_tid >= 0 && !tls_aborting; }

}  // namespace

// ---------------------------------------------------------------------------
// Hooks called from mc/model.hpp (external linkage). A call is modeled
// only when it comes from a logical thread of the active execution;
// everything else (model reset()/finally() on the scheduler thread,
// teardown unwinding, plain use without a checker) falls back to the raw
// mirrored bits.

std::uint64_t atomic_load(const void* addr, const std::uint64_t* bits,
                          std::memory_order mo) {
  if (!modeled()) return *bits;
  return g_active->op_load(tls_tid, addr, bits, mo);
}

void atomic_store(const void* addr, std::uint64_t* bits, std::uint64_t value,
                  unsigned width, std::memory_order mo) {
  if (!modeled()) {
    *bits = value;
    return;
  }
  g_active->op_store(tls_tid, addr, bits, value, width, mo);
}

std::uint64_t atomic_rmw(const void* addr, std::uint64_t* bits, Rmw op,
                         std::uint64_t operand, unsigned width,
                         std::memory_order mo) {
  if (!modeled()) {
    const std::uint64_t old = *bits;
    std::uint64_t next = 0;
    switch (op) {
      case Rmw::kAdd: next = old + operand; break;
      case Rmw::kSub: next = old - operand; break;
      case Rmw::kAnd: next = old & operand; break;
      case Rmw::kOr: next = old | operand; break;
      case Rmw::kXchg: next = operand; break;
    }
    *bits = next & width_mask(width);
    return old;
  }
  return g_active->op_rmw(tls_tid, addr, bits, op, operand, width, mo);
}

bool atomic_cas(const void* addr, std::uint64_t* bits, std::uint64_t* expected,
                std::uint64_t desired, unsigned width,
                std::memory_order success, std::memory_order failure) {
  if (!modeled()) {
    if (*bits != *expected) {
      *expected = *bits;
      return false;
    }
    *bits = desired;
    return true;
  }
  return g_active->op_cas(tls_tid, addr, bits, expected, desired, width,
                          success, failure);
}

void thread_fence(std::memory_order mo) {
  if (!modeled()) return;
  g_active->op_fence(tls_tid, mo);
}

void location_destroyed(const void* addr) {
  if (g_active != nullptr && !tls_aborting) g_active->on_location_destroyed(addr);
}

void mutex_lock(const void* m) {
  if (!modeled()) return;
  g_active->op_mutex_lock(tls_tid, m, "");
}

bool mutex_try_lock(const void* m) {
  if (!modeled()) return true;
  return g_active->op_mutex_try_lock(tls_tid, m);
}

void mutex_unlock(const void* m) {
  if (!modeled()) return;
  g_active->op_mutex_unlock(tls_tid, m);
}

void cv_wait(const void* cv, const void* m) {
  if (!modeled()) return;  // unmodeled predicate loops re-check and move on
  g_active->op_cv_wait(tls_tid, cv, m);
}

void cv_notify(const void* cv, bool all) {
  if (!modeled()) return;
  g_active->op_cv_notify(tls_tid, cv, all);
}

void require_failed(const char* cond, const char* file, int line) {
  const std::string msg = std::string("MC_REQUIRE failed: ") + cond + " at " +
                          file + ":" + std::to_string(line);
  if (g_active != nullptr && tls_tid >= 0 && !tls_aborting) {
    g_active->op_require_failed(tls_tid, msg);
  }
  if (g_active != nullptr && tls_tid < 0) {
    g_active->scheduler_require_failed(msg);
  }
  // No active check (or already unwinding): behave like GCG_EXPECT.
  std::fprintf(stderr, "gcgpu: %s\n", msg.c_str());
  std::abort();
}

}  // namespace detail

void set_name(const void* addr, const char* name) {
  if (detail::g_active != nullptr) detail::g_active->set_location_name(addr, name);
}

Result check(Model& model, const Options& opts) {
  Result res;
  detail::Exec exec(model, opts, nullptr);
  while (true) {
    exec.run_one();
    ++res.executions;
    if (exec.failed()) {
      res.ok = false;
      res.failure = exec.fail_msg();
      res.trace = exec.format_trace();
      res.trail = exec.export_trail();
      break;
    }
    if (!exec.advance()) break;  // search space exhausted
    if (res.executions >= kMaxExecutions) {
      res.complete = false;
      break;
    }
  }
  return res;
}

Result replay(Model& model, const std::vector<int>& trail, const Options& opts) {
  Result res;
  detail::Exec exec(model, opts, &trail);
  exec.run_one();
  res.executions = 1;
  if (exec.failed()) {
    res.ok = false;
    res.failure = exec.fail_msg();
    res.trace = exec.format_trace();
  }
  res.trail = trail;
  return res;
}

}  // namespace gcg::mc
