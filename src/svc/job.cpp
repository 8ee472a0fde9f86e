#include "svc/job.hpp"

#include <stdexcept>

namespace gcg::svc {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kPar: return "par";
    case Backend::kShard: return "shard";
  }
  return "?";
}

Backend backend_from_name(const std::string& name) {
  if (name == "par") return Backend::kPar;
  if (name == "shard") return Backend::kShard;
  throw std::invalid_argument("unknown backend: " + name + " (par|shard)");
}

const char* default_algorithm(Backend b) {
  return b == Backend::kShard ? "jpl" : "steal";
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
  }
  return "?";
}

JobSnapshot snapshot(const JobRecord& rec) {
  JobSnapshot s;
  s.id = rec.id;
  s.spec = rec.spec;
  sync::LockGuard lock(rec.mu);
  s.status = rec.status;
  s.result = rec.result;
  return s;
}

}  // namespace gcg::svc
