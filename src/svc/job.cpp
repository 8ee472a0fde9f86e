#include "svc/job.hpp"

namespace gcg::svc {

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
