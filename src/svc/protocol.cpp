#include "svc/protocol.hpp"

#include <stdexcept>

#include "graph/reorder.hpp"
#include "util/narrow.hpp"

namespace gcg::svc {

namespace {

std::uint64_t require_u64(const Json& req, const char* key) {
  const Json* v = req.find(key);
  if (!v || !v->is_number()) {
    throw std::runtime_error(std::string("missing or non-numeric \"") + key +
                             "\"");
  }
  const std::int64_t i = v->as_int();
  if (i < 0) throw std::runtime_error(std::string("\"") + key +
                                      "\" must be >= 0");
  return to_unsigned(i);
}

/// Counter/id -> JSON integer. Everything the protocol emits fits JSON's
/// exact-int64 range by construction; narrow keeps that claim checked in
/// debug instead of assumed.
template <typename T>
Json count_json(T x) {
  return Json(narrow<std::int64_t>(x));
}

std::string require_graph(const Json& req) {
  const Json* graph = req.find("graph");
  if (!graph || !graph->is_string() || graph->as_string().empty()) {
    throw std::runtime_error("requires a non-empty \"graph\" string");
  }
  return graph->as_string();
}

std::uint64_t require_id(const Json& req) { return require_u64(req, "id"); }

/// Seeds are full 64-bit values; JSON has no u64, so they travel as
/// two's-complement int64 and cast back bit-for-bit. Any integral number
/// (negative included) is therefore valid here. An absent seed is
/// `fallback`.
std::uint64_t seed_or(const Json& req, std::uint64_t fallback) {
  const Json* v = req.find("seed");
  if (!v) return fallback;
  if (!v->is_number()) {
    throw std::runtime_error("non-numeric \"seed\"");
  }
  // lossy: u64 seeds travel as two's-complement int64; cast back bit-for-bit
  return narrow_cast<std::uint64_t>(v->as_int());
}

Json result_to_json(const JobResult& r, bool include_colors) {
  Json out{JsonObject{}};
  out["num_colors"] = Json(r.num_colors);
  out["iterations"] = count_json(r.iterations);
  out["run_ms"] = Json(r.run_ms);
  out["latency_ms"] = Json(r.latency_ms);
  out["queue_ms"] = Json(r.queue_ms);
  out["threads"] = count_json(r.threads);
  out["verified"] = Json(r.verified);
  out["cache_hit"] = Json(r.cache_hit);
  out["mapped"] = Json(r.mapped);
  if (!r.error.empty()) out["error"] = Json(r.error);
  if (include_colors && !r.colors.empty()) {
    JsonArray colors;
    colors.reserve(r.colors.size());
    for (color_t c : r.colors) {
      colors.push_back(count_json(c));
    }
    out["colors"] = Json(std::move(colors));
  }
  return out;
}

/// Inspects req["protocol_version"] (absent = version 1, the pre-field
/// schema). Returns nullopt when this build speaks it, otherwise an
/// unsupported_version error reply carrying the supported version.
std::optional<Json> check_protocol_version(const Json& req) {
  if (!req.is_object()) return std::nullopt;  // protocol_error elsewhere
  const Json* v = req.find("protocol_version");
  if (!v) return std::nullopt;  // pre-versioning peer: version 1 schema
  const std::int64_t version = v->is_number() ? v->as_int() : -1;
  if (version == kProtocolVersion) return std::nullopt;
  Json out = error_reply(
      kErrUnsupportedVersion,
      "this server speaks protocol_version " +
          std::to_string(kProtocolVersion));
  out["protocol_version"] = Json(kProtocolVersion);
  return out;
}

}  // namespace

Json error_reply(const std::string& code, const std::string& detail) {
  Json out{JsonObject{}};
  out["ok"] = Json(false);
  out["error"] = Json(code);
  if (!detail.empty()) out["detail"] = Json(detail);
  return out;
}

JobSpec job_spec_from_json(const Json& req) {
  JobSpec spec;
  spec.graph = require_graph(req);
  // The only backend. A client that asks for another one gets an error,
  // not a silently different run.
  const std::string backend = req.get_string("backend", "par");
  if (backend != "par") {
    throw std::runtime_error("unknown backend \"" + backend +
                             "\" (only par)");
  }
  spec.algorithm = req.get_string("algorithm", spec.algorithm);
  spec.priority = req.get_string("priority", "random");
  spec.seed = seed_or(req, spec.seed);
  spec.order = req.get_string("order", "");
  if (!spec.order.empty()) {
    try {
      order_from_name(spec.order);
    } catch (const std::exception&) {
      throw std::runtime_error(
          "\"order\" must be one of natural, random, degree-desc, "
          "degree-asc, bfs, rcm");
    }
  }
  spec.deadline_ms = req.get_double("deadline_ms", 0.0);
  if (spec.deadline_ms < 0.0) {
    throw std::runtime_error("\"deadline_ms\" must be >= 0");
  }
  spec.keep_colors = req.get_bool("keep_colors", false);
  return spec;
}

Json job_spec_to_json(const JobSpec& spec) {
  Json out{JsonObject{}};
  out["graph"] = Json(spec.graph);
  out["algorithm"] = Json(spec.algorithm);
  out["priority"] = Json(spec.priority);
  out["seed"] = Json(spec.seed);
  if (!spec.order.empty()) out["order"] = Json(spec.order);
  out["deadline_ms"] = Json(spec.deadline_ms);
  out["keep_colors"] = Json(spec.keep_colors);
  return out;
}

Json snapshot_reply(const JobSnapshot& snap, bool include_colors) {
  Json out{JsonObject{}};
  out["ok"] = Json(true);
  out["id"] = Json(snap.id);
  out["status"] = Json(job_status_name(snap.status));
  out["graph"] = Json(snap.spec.graph);
  out["algorithm"] = Json(snap.spec.algorithm);
  const bool terminal = snap.status == JobStatus::kDone ||
                        snap.status == JobStatus::kFailed ||
                        snap.status == JobStatus::kCancelled;
  if (terminal) out["result"] = result_to_json(snap.result, include_colors);
  return out;
}

Json stats_reply(const SchedulerStats& s) {
  Json out{JsonObject{}};
  out["ok"] = Json(true);
  out["submitted"] = Json(s.submitted);
  out["rejected"] = Json(s.rejected);
  out["completed"] = Json(s.completed);
  out["failed"] = Json(s.failed);
  out["cancelled"] = Json(s.cancelled);
  out["batches"] = Json(s.batches);
  out["batched_jobs"] = Json(s.batched_jobs);
  out["queue_depth"] = count_json(s.queue_depth);
  out["queue_capacity"] = count_json(s.queue_capacity);
  out["jobs_tracked"] = count_json(s.jobs_tracked);
  out["latency_samples"] =
      count_json(s.latency_samples);
  out["latency_p50_ms"] = Json(s.latency_p50_ms);
  out["latency_p90_ms"] = Json(s.latency_p90_ms);
  out["latency_p99_ms"] = Json(s.latency_p99_ms);
  out["latency_mean_ms"] = Json(s.latency_mean_ms);
  out["latency_max_ms"] = Json(s.latency_max_ms);
  Json reg{JsonObject{}};
  reg["hits"] = Json(s.registry.hits);
  reg["misses"] = Json(s.registry.misses);
  reg["evictions"] = Json(s.registry.evictions);
  reg["load_errors"] = Json(s.registry.load_errors);
  reg["entries"] = count_json(s.registry.entries);
  reg["bytes"] = count_json(s.registry.bytes);
  reg["mapped_entries"] =
      count_json(s.registry.mapped_entries);
  reg["mapped_bytes"] =
      count_json(s.registry.mapped_bytes);
  out["registry"] = std::move(reg);
  return out;
}

Json handle_request(Scheduler& sched, const Json& req) {
  if (!req.is_object()) {
    return error_reply(kErrProtocol, "request must be a JSON object");
  }
  if (auto unsupported = check_protocol_version(req)) return *unsupported;
  const Json* op = req.find("op");
  if (!op || !op->is_string()) {
    return error_reply(kErrProtocol, "missing \"op\" string");
  }
  const std::string& verb = op->as_string();

  try {
    if (verb == "ping") {
      Json out{JsonObject{}};
      out["ok"] = Json(true);
      out["pong"] = Json(true);
      return out;
    }
    if (verb == "submit") {
      JobSpec spec;
      try {
        spec = job_spec_from_json(req);
      } catch (const std::exception& e) {
        return error_reply(kErrBadRequest, e.what());
      }
      const Scheduler::Submit sub = sched.submit(std::move(spec));
      if (!sub.accepted) return error_reply(sub.error, sub.detail);
      if (req.get_bool("wait", false)) {
        // Closed-loop clients: block until terminal, reply with result.
        const auto snap = sched.wait(sub.id);
        if (snap) return snapshot_reply(*snap);
      }
      Json out{JsonObject{}};
      out["ok"] = Json(true);
      out["id"] = Json(sub.id);
      out["status"] = Json("queued");
      return out;
    }
    if (verb == "status" || verb == "result") {
      const std::uint64_t id = require_id(req);
      std::optional<JobSnapshot> snap;
      if (verb == "result" || req.get_bool("wait", false)) {
        snap = sched.wait(id, req.get_double("timeout_ms", 0.0));
      } else {
        snap = sched.status(id);
      }
      if (!snap) {
        return error_reply(kErrUnknownId,
                           "no job " + std::to_string(id) +
                               " (completed jobs are retained up to the "
                               "scheduler's retain_jobs bound)");
      }
      return snapshot_reply(*snap);
    }
    if (verb == "cancel") {
      const std::uint64_t id = require_id(req);
      Json out{JsonObject{}};
      out["ok"] = Json(true);
      out["id"] = Json(id);
      out["cancelled"] = Json(sched.cancel(id));
      return out;
    }
    if (verb == "stats") {
      return stats_reply(sched.stats());
    }
  } catch (const std::exception& e) {
    return error_reply(kErrBadRequest, e.what());
  }
  return error_reply(kErrUnknownOp, "unknown op \"" + verb + "\"");
}

Json handle_request_line(Scheduler& sched, const std::string& line) {
  Json req;
  try {
    req = Json::parse(line);
  } catch (const std::exception& e) {
    return error_reply(kErrProtocol, e.what());
  }
  return handle_request(sched, req);
}

}  // namespace gcg::svc
