// Job schedule shared by e2e_loadgen and e2e_inproc.
// run.py writes it from the workload seed; the programs only replay it.
// One job per line, tab-separated:
//
//   due_ms  name  spec  algorithm  order  seed
//
// `due_ms` is the open-loop send time relative to the phase start (closed
// loops ignore it), `name` the suite graph the spec resolves to, `order`
// a graph/reorder.hpp name or "natural".
#pragma once

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "svc/job.hpp"

namespace gcg::e2e {

struct ScheduledJob {
  double due_ms = 0.0;
  std::string name;
  svc::JobSpec spec;
};

inline std::vector<ScheduledJob> read_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open schedule " + path);
  std::vector<ScheduledJob> jobs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    ScheduledJob job;
    std::string order;
    if (!(fields >> job.due_ms >> job.name >> job.spec.graph >>
          job.spec.algorithm >> order >> job.spec.seed)) {
      throw std::runtime_error("malformed schedule line: " + line);
    }
    if (order != "natural") job.spec.order = order;
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) throw std::runtime_error("empty schedule " + path);
  return jobs;
}

}  // namespace gcg::e2e
