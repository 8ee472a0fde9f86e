// Load generator for the end-to-end benchmark: replays a schedule
// (schedule.hpp) against a running color_server and writes one JSON
// record per job for run.py to score.
//
//   e2e_loadgen --socket PATH --schedule FILE --out FILE --seconds S
//               --mode open|closed [--connections N] [--block B]
//
// open:   this thread submits each job with wait=false at its due time
//         and one collector thread fetches the results: 2 threads, 2
//         connections. Jobs due after S seconds are not sent.
// closed: N connections (this thread plus N-1), each submitting wait=true
//         back to back until S seconds pass or the schedule runs out.
//         With --block B, jobs keep being sent after S seconds until the
//         number sent is a multiple of B, so the jobs sent hold whole
//         blocks of the schedule (run.py writes one block per graph mix).
//
// Record times are ms since the phase start. `due_ms` is when the job was
// due: its schedule time (open) or when its connection became free
// (closed), so send_ms - due_ms is how late the generator ran.
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "schedule.hpp"
#include "svc/client.hpp"
#include "util/cli.hpp"
#include "util/narrow.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using gcg::e2e::ScheduledJob;
using gcg::svc::Json;

struct Record {
  std::size_t index = 0;
  double due_ms = 0.0;
  double send_ms = 0.0;
  double ack_ms = 0.0;   ///< submit reply (open loop only)
  double done_ms = 0.0;  ///< terminal reply
  Json reply;            ///< terminal reply, or the submit rejection
};

struct Phase {
  std::string socket;
  std::vector<ScheduledJob> jobs;
  double seconds = 0.0;
  Clock::time_point t0 = Clock::now();

  double ms_now() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  }
  gcg::svc::Client connect() const {
    gcg::svc::ClientOptions opts;
    opts.connect_timeout_ms = 5000.0;
    opts.request_timeout_ms = 120000.0;
    return gcg::svc::Client(socket, opts);
  }
};

std::vector<Record> run_open(const Phase& ph) {
  std::size_t count = 0;
  while (count < ph.jobs.size() &&
         ph.jobs[count].due_ms < ph.seconds * 1000.0) {
    ++count;
  }
  std::vector<Record> records(count);
  gcg::svc::Client sender = ph.connect();
  gcg::svc::Client collector_client = ph.connect();

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::uint64_t>> pending;  // guarded by mu
  bool sending_done = false;                                   // guarded by mu
  std::exception_ptr collector_error;

  std::thread collector([&] {
    try {
      for (;;) {
        std::pair<std::size_t, std::uint64_t> next;
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return !pending.empty() || sending_done; });
          if (pending.empty()) return;
          next = pending.front();
          pending.pop_front();
        }
        Record& r = records[next.first];
        r.reply = collector_client.result(next.second);
        r.done_ms = ph.ms_now();
      }
    } catch (...) {
      collector_error = std::current_exception();
    }
  });

  std::exception_ptr sender_error;
  try {
    for (std::size_t i = 0; i < count; ++i) {
      Record& r = records[i];
      r.index = i;
      r.due_ms = ph.jobs[i].due_ms;
      std::this_thread::sleep_until(
          ph.t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(r.due_ms)));
      r.send_ms = ph.ms_now();
      Json ack = sender.submit(ph.jobs[i].spec, /*wait=*/false);
      r.ack_ms = ph.ms_now();
      if (!ack.get_bool("ok", false)) {
        r.reply = std::move(ack);
        r.done_ms = r.ack_ms;
        continue;
      }
      const auto id = gcg::narrow<std::uint64_t>(ack.get_int("id", 0));
      {
        std::lock_guard lock(mu);
        pending.emplace_back(i, id);
      }
      cv.notify_one();
    }
  } catch (...) {
    sender_error = std::current_exception();
  }
  {
    std::lock_guard lock(mu);
    sending_done = true;
  }
  cv.notify_one();
  collector.join();
  if (sender_error) std::rethrow_exception(sender_error);
  if (collector_error) std::rethrow_exception(collector_error);
  return records;
}

std::vector<Record> run_closed(const Phase& ph, unsigned connections,
                               std::size_t block) {
  std::mutex mu;
  std::size_t next = 0;  // guarded by mu
  std::vector<std::vector<Record>> per_conn(connections);
  std::vector<std::exception_ptr> errors(connections);

  auto client_loop = [&](unsigned c) {
    try {
      gcg::svc::Client client = ph.connect();
      double free_at = ph.ms_now();
      for (;;) {
        std::size_t i = 0;
        {
          std::lock_guard lock(mu);
          const bool in_time = ph.ms_now() < ph.seconds * 1000.0;
          if (next >= ph.jobs.size() || (!in_time && next % block == 0)) {
            return;
          }
          i = next++;
        }
        Record r;
        r.index = i;
        r.due_ms = free_at;
        r.send_ms = ph.ms_now();
        r.reply = client.submit(ph.jobs[i].spec, /*wait=*/true);
        r.done_ms = ph.ms_now();
        free_at = r.done_ms;
        per_conn[c].push_back(std::move(r));
      }
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };

  std::vector<std::thread> threads;
  for (unsigned c = 1; c < connections; ++c) threads.emplace_back(client_loop, c);
  client_loop(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<Record> records;
  for (auto& conn : per_conn) {
    for (Record& r : conn) records.push_back(std::move(r));
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  const gcg::Cli cli(argc, argv);
  try {
    Phase ph;
    ph.socket = cli.get("socket", "");
    ph.jobs = gcg::e2e::read_schedule(cli.get("schedule", ""));
    ph.seconds = cli.get_double("seconds", 1.0);
    const std::string mode = cli.get("mode", "closed");
    const auto connections =
        gcg::narrow<unsigned>(cli.get_int("connections", 1));
    const auto block = gcg::narrow<std::size_t>(cli.get_int("block", 1));
    const std::string out_path = cli.get("out", "");
    if (ph.socket.empty() || out_path.empty() || connections == 0 ||
        block == 0 || (mode != "open" && mode != "closed")) {
      std::cerr << "usage: e2e_loadgen --socket PATH --schedule FILE "
                   "--out FILE --seconds S --mode open|closed "
                   "[--connections N] [--block B]\n";
      return 2;
    }

    ph.t0 = Clock::now();
    const std::vector<Record> records =
        mode == "open" ? run_open(ph) : run_closed(ph, connections, block);

    std::ofstream out(out_path);
    for (const Record& r : records) {
      Json line{gcg::svc::JsonObject{}};
      line["index"] = Json(std::uint64_t{r.index});
      line["name"] = Json(ph.jobs[r.index].name);
      line["due_ms"] = Json(r.due_ms);
      line["send_ms"] = Json(r.send_ms);
      line["ack_ms"] = Json(r.ack_ms);
      line["done_ms"] = Json(r.done_ms);
      line["reply"] = r.reply;
      out << line.dump() << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + out_path);
  } catch (const std::exception& e) {
    std::cerr << "e2e_loadgen: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
