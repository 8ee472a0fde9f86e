// In-process side of the end-to-end benchmark. Every layer is called
// through its public function and timed from here, so the per-layer
// numbers need no instrumentation inside the program.
//
//   e2e_inproc graphs --specs S1,S2,.. [--paths P1,P2,..]
//       Builds each gen: spec; with --paths also writes it as .gbin v2
//       (the store's pack). One JSON line per graph on stdout.
//
//   e2e_inproc replay --schedule FILE --threads T (--jobs N | --seconds S)
//                     [--cache-graphs K] [--setups K] [--warmup]
//                     [--validate-each] [--speedup] [--trace-out FILE]
//       Colors schedule jobs one at a time on one ThreadPool(T), each
//       through GraphRegistry::acquire, check::validate_csr (with
//       --validate-each, as the service does per job), make_order +
//       apply_order (ordered jobs), par::run_par_coloring and
//       check::verify_coloring, with one span per call.
//       --setups K   first acquires and validates every graph the
//                    schedule names, K times from an empty registry
//                    (the offline user's load step; K > 1 for a median).
//       --warmup     colors one job per graph before the measured jobs.
//       --jobs N     stop after N jobs; --seconds S: stop once S seconds
//                    of jobs have run (schedule reused cyclically).
//       --speedup    colors the kron-like and er-like graphs at 1 and 4
//                    threads and reports whether the colorings match.
//       --trace-out  writes the spans as a Chrome trace.
//       One JSON line per setup, job and speedup on stdout, then the
//       process's peak RSS.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "check/coloring.hpp"
#include "check/csr.hpp"
#include "coloring/priorities.hpp"
#include "graph/reorder.hpp"
#include "par/pool.hpp"
#include "par/runner.hpp"
#include "schedule.hpp"
#include "store/writer.hpp"
#include "svc/graph_registry.hpp"
#include "svc/json.hpp"
#include "util/cli.hpp"
#include "util/narrow.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using gcg::Csr;
using gcg::e2e::ScheduledJob;
using gcg::svc::Json;
using gcg::svc::JsonArray;
using gcg::svc::JsonObject;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

void print_line(const Json& j) { std::cout << j.dump() << '\n'; }

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

void require_valid_graph(const Csr& g, const std::string& spec) {
  if (const auto issue = gcg::check::validate_csr(g)) {
    fail("invalid graph " + spec + ": " + issue->to_string());
  }
}

/// The ParOptions the service derives from a job spec (Scheduler::run_one),
/// minus the order: the replay reorders explicitly so it can be timed.
gcg::par::ParOptions par_options(const gcg::svc::JobSpec& spec) {
  gcg::par::ParOptions opts;
  opts.priority = gcg::priority_mode_from_name(spec.priority);
  opts.seed = spec.seed;
  return opts;
}

Json run_stats(const gcg::par::ParRun& run) {
  Json out{JsonObject{}};
  out["wall_ms"] = Json(run.wall_ms);
  out["iterations"] = Json(run.iterations);
  out["hub_vertices"] = Json(run.hub_vertices);
  out["threads"] = Json(run.threads);
  out["num_colors"] = Json(run.num_colors);
  JsonArray busy;
  for (const auto& w : run.workers) busy.emplace_back(w.busy_ms);
  out["busy_ms"] = Json(std::move(busy));
  out["steal_attempts"] = Json(run.steal.steal_attempts);
  out["steal_hits"] = Json(run.steal.steal_hits);
  return out;
}

/// Collects Chrome-trace duration events ("ph":"X", microseconds) in
/// memory; written once at the end.
class Trace {
 public:
  double span(const std::string& name, std::uint64_t job, const char* parent,
              Clock::time_point begin, Clock::time_point end) {
    Json ev{JsonObject{}};
    ev["name"] = Json(name);
    ev["ph"] = Json("X");
    ev["pid"] = Json(1);
    ev["tid"] = Json(1);
    ev["ts"] = Json(ms_between(origin_, begin) * 1000.0);
    ev["dur"] = Json(ms_between(begin, end) * 1000.0);
    Json args{JsonObject{}};
    args["job"] = Json(job);
    args["parent"] = parent ? Json(parent) : Json();
    ev["args"] = std::move(args);
    events_.push_back(std::move(ev));
    return ms_between(begin, end);
  }

  void write(const std::string& path) const {
    Json doc{JsonObject{}};
    doc["traceEvents"] = Json(events_);
    doc["displayTimeUnit"] = Json("ms");
    std::ofstream out(path);
    out << doc.dump() << '\n';
    if (!out) fail("cannot write " + path);
  }

 private:
  Clock::time_point origin_ = Clock::now();
  JsonArray events_;
};

int cmd_graphs(const gcg::Cli& cli) {
  const std::vector<std::string> specs = split_csv(cli.get("specs", ""));
  const std::vector<std::string> paths = split_csv(cli.get("paths", ""));
  if (specs.empty() || (!paths.empty() && paths.size() != specs.size())) {
    fail("graphs: need --specs, and one --paths entry per spec");
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    gcg::svc::GraphRegistry registry;
    const Clock::time_point t0 = Clock::now();
    const auto g = registry.acquire(specs[i]);
    const Clock::time_point t1 = Clock::now();
    Json line{JsonObject{}};
    line["spec"] = Json(specs[i]);
    line["vertices"] = Json(g->num_vertices());
    line["arcs"] = Json(std::uint64_t{g->num_arcs()});
    line["build_ms"] = Json(ms_between(t0, t1));
    if (!paths.empty()) {
      gcg::store::write_gbin_v2(paths[i], *g);
      line["path"] = Json(paths[i]);
      line["write_ms"] = Json(ms_between(t1, Clock::now()));
    }
    print_line(line);
  }
  return 0;
}

class Replay {
 public:
  Replay(const gcg::Cli& cli, std::vector<ScheduledJob> jobs)
      : jobs_(std::move(jobs)),
        validate_each_(cli.get_bool("validate-each")),
        cache_graphs_(
            gcg::narrow<std::size_t>(cli.get_int("cache-graphs", 16))),
        pool_(gcg::narrow<unsigned>(cli.get_int("threads", 2))) {
    reset_registry();
  }

  void reset_registry() {
    registry_.reset();
    gcg::svc::GraphRegistry::Options opts;
    opts.max_entries = cache_graphs_;
    registry_ = std::make_unique<gcg::svc::GraphRegistry>(opts);
  }

  /// Acquires and validates every graph the schedule names.
  void setup() {
    std::vector<std::string> specs;
    for (const ScheduledJob& job : jobs_) {
      if (std::find(specs.begin(), specs.end(), job.spec.graph) ==
          specs.end()) {
        specs.push_back(job.spec.graph);
      }
    }
    JsonArray validate_ms;
    const Clock::time_point t0 = Clock::now();
    for (const std::string& spec : specs) {
      const auto g = registry_->acquire(spec);
      const Clock::time_point v0 = Clock::now();
      require_valid_graph(*g, spec);
      validate_ms.emplace_back(ms_between(v0, Clock::now()));
    }
    Json line{JsonObject{}};
    line["kind"] = Json("setup");
    line["ms"] = Json(ms_between(t0, Clock::now()));
    line["validate_ms"] = Json(std::move(validate_ms));
    print_line(line);
  }

  void color(std::size_t index, const char* kind) {
    const ScheduledJob& job = jobs_[index % jobs_.size()];
    const std::uint64_t id = next_id_++;
    Json spans{JsonObject{}};
    auto timed = [&](const char* name, auto&& body) {
      const Clock::time_point b = Clock::now();
      body();
      spans[name] = Json(trace_.span(name, id, "job", b, Clock::now()));
    };

    const Clock::time_point begin = Clock::now();
    bool hit = false;
    std::shared_ptr<const Csr> graph;
    timed("registry.acquire",
          [&] { graph = registry_->acquire(job.spec.graph, &hit); });
    if (validate_each_) {
      timed("check.validate_csr",
            [&] { require_valid_graph(*graph, job.spec.graph); });
    }
    const gcg::par::ParAlgorithm algo =
        gcg::par::par_algorithm_from_name(job.spec.algorithm);
    const gcg::par::ParOptions opts = par_options(job.spec);
    gcg::par::ParRun run;
    std::vector<gcg::color_t> colors;
    if (job.spec.order.empty()) {
      timed("par.run_par_coloring", [&] {
        run = gcg::par::run_par_coloring(pool_, *graph, algo, opts);
      });
      colors = std::move(run.colors);
    } else {
      // The runner's reorder pipeline, step by step: permute, color the
      // relabeled graph, map the colors back to the caller's ids.
      std::vector<gcg::vid_t> perm;
      Csr relabeled;
      timed("graph.make_order", [&] {
        perm = gcg::make_order(*graph, gcg::order_from_name(job.spec.order),
                               job.spec.seed);
      });
      timed("graph.apply_order",
            [&] { relabeled = gcg::apply_order(*graph, perm); });
      timed("par.run_par_coloring", [&] {
        run = gcg::par::run_par_coloring(pool_, relabeled, algo, opts);
      });
      timed("graph.unmap", [&] {
        colors.resize(perm.size());
        for (std::size_t v = 0; v < perm.size(); ++v) {
          colors[v] = run.colors[perm[v]];
        }
      });
    }
    bool verified = false;
    timed("check.verify_coloring", [&] {
      verified = gcg::check::is_valid_coloring(*graph, colors);
    });
    const Clock::time_point end = Clock::now();

    Json line{JsonObject{}};
    line["kind"] = Json(kind);
    line["name"] = Json(job.name);
    line["spec"] = Json(job.spec.graph);
    line["arcs"] = Json(std::uint64_t{graph->num_arcs()});
    line["cache_hit"] = Json(hit);
    line["mapped"] = Json(graph->is_view());
    line["gap_ms"] = Json(ms_between(prev_end_, begin));
    line["job_ms"] = Json(trace_.span("job", id, nullptr, begin, end));
    line["spans"] = std::move(spans);
    line["run"] = run_stats(run);
    line["verified"] = Json(verified);
    print_line(line);
    prev_end_ = Clock::now();
  }

  /// One job per distinct graph, in schedule order.
  void warmup() {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (seen.insert(jobs_[i].spec.graph).second) color(i, "warmup");
    }
    prev_end_ = Clock::now();
  }

  /// Colors `name`'s graph with its first scheduled job's settings at 1
  /// and at 4 threads.
  void speedup(const std::string& name) {
    const auto job = std::find_if(jobs_.begin(), jobs_.end(), [&](const auto& j) {
      return j.name == name;
    });
    if (job == jobs_.end()) fail("speedup: no " + name + " job in schedule");
    const auto graph = registry_->acquire(job->spec.graph);
    const gcg::par::ParAlgorithm algo =
        gcg::par::par_algorithm_from_name(job->spec.algorithm);
    Json line{JsonObject{}};
    line["kind"] = Json("speedup");
    line["name"] = Json(name);
    std::vector<std::vector<gcg::color_t>> colorings;
    for (const unsigned t : {1u, 4u}) {
      gcg::par::ThreadPool team(t);
      const std::string span = "par.run_par_coloring." + std::to_string(t) + "t";
      const Clock::time_point b = Clock::now();
      gcg::par::ParRun run = gcg::par::run_par_coloring(
          team, *graph, algo, par_options(job->spec));
      line["ms_" + std::to_string(t) + "t"] =
          Json(trace_.span(span, next_id_, nullptr, b, Clock::now()));
      if (!gcg::check::is_valid_coloring(*graph, run.colors)) {
        fail("speedup: invalid coloring of " + job->spec.graph);
      }
      colorings.push_back(std::move(run.colors));
    }
    ++next_id_;
    line["identical"] = Json(colorings[0] == colorings[1]);
    print_line(line);
  }

  const Trace& trace() const { return trace_; }

 private:
  const std::vector<ScheduledJob> jobs_;
  const bool validate_each_;
  const std::size_t cache_graphs_;
  gcg::par::ThreadPool pool_;
  std::unique_ptr<gcg::svc::GraphRegistry> registry_;
  Trace trace_;
  std::uint64_t next_id_ = 0;
  Clock::time_point prev_end_ = Clock::now();
};

int cmd_replay(const gcg::Cli& cli) {
  Replay replay(cli, gcg::e2e::read_schedule(cli.get("schedule", "")));
  const std::int64_t setups = cli.get_int("setups", 0);
  for (std::int64_t k = 0; k < setups; ++k) {
    // Each set-up starts from an empty registry so its time is a fresh
    // load; the previous round's graphs are freed first.
    if (k > 0) replay.reset_registry();
    replay.setup();
  }
  if (cli.get_bool("warmup")) replay.warmup();

  if (cli.has("seconds")) {
    const double budget_ms = cli.get_double("seconds", 1.0) * 1000.0;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; ms_between(start, Clock::now()) < budget_ms; ++i) {
      replay.color(i, "job");
    }
  } else {
    const auto jobs = gcg::narrow<std::size_t>(cli.get_int("jobs", 1));
    for (std::size_t i = 0; i < jobs; ++i) replay.color(i, "job");
  }
  if (cli.get_bool("speedup")) {
    replay.speedup("kron-like");
    replay.speedup("er-like");
  }
  if (const std::string path = cli.get("trace-out", ""); !path.empty()) {
    replay.trace().write(path);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Json line{JsonObject{}};
  line["kind"] = Json("rss");
  line["max_rss_kb"] = Json(std::int64_t{usage.ru_maxrss});
  print_line(line);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const gcg::Cli cli(argc, argv,
                     {"warmup", "validate-each", "speedup"});
  const std::vector<std::string>& pos = cli.positional();
  try {
    if (pos.size() == 1 && pos[0] == "graphs") return cmd_graphs(cli);
    if (pos.size() == 1 && pos[0] == "replay") return cmd_replay(cli);
    std::cerr << "usage: e2e_inproc graphs|replay [options]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "e2e_inproc: " << e.what() << '\n';
    return 1;
  }
}
