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

/// Array of non-negative integers bounded by `max` -> vector<T>.
template <typename T>
std::vector<T> u32_array(const Json& req, const char* key, std::int64_t max) {
  const Json* v = req.find(key);
  if (!v || !v->is_array()) {
    throw std::runtime_error(std::string("missing or non-array \"") + key +
                             "\"");
  }
  std::vector<T> out;
  out.reserve(v->as_array().size());
  for (const Json& e : v->as_array()) {
    if (!e.is_number()) {
      throw std::runtime_error(std::string("\"") + key +
                               "\" entries must be numbers");
    }
    const std::int64_t i = e.as_int();
    if (i < 0 || i > max) {
      throw std::runtime_error(std::string("\"") + key +
                               "\" entry out of range");
    }
    out.push_back(narrow<T>(i));
  }
  return out;
}

/// Color array; allows kUncolored (-1) through, rejects other negatives.
std::vector<color_t> color_array(const Json& req, const char* key) {
  const Json* v = req.find(key);
  if (!v || !v->is_array()) {
    throw std::runtime_error(std::string("missing or non-array \"") + key +
                             "\"");
  }
  std::vector<color_t> out;
  out.reserve(v->as_array().size());
  for (const Json& e : v->as_array()) {
    if (!e.is_number()) {
      throw std::runtime_error(std::string("\"") + key +
                               "\" entries must be numbers");
    }
    const std::int64_t i = e.as_int();
    if (i < kUncolored || i > 0x7FFFFFFFll) {
      throw std::runtime_error(std::string("\"") + key +
                               "\" entry out of range");
    }
    out.push_back(narrow<color_t>(i));
  }
  return out;
}

/// Counter/id -> JSON integer. Everything the protocol emits fits JSON's
/// exact-int64 range by construction; narrow keeps that claim checked in
/// debug instead of assumed.
template <typename T>
Json count_json(T x) {
  return Json(narrow<std::int64_t>(x));
}

template <typename T>
Json int_array_to_json(const std::vector<T>& v) {
  JsonArray out;
  out.reserve(v.size());
  for (const T x : v) out.push_back(count_json(x));
  return Json(std::move(out));
}

std::string require_graph(const Json& req) {
  const Json* graph = req.find("graph");
  if (!graph || !graph->is_string() || graph->as_string().empty()) {
    throw std::runtime_error("requires a non-empty \"graph\" string");
  }
  return graph->as_string();
}

/// begin <= end as vid_t range bounds.
void require_range(const Json& req, vid_t& begin, vid_t& end) {
  const std::int64_t b = to_signed(require_u64(req, "begin"));
  const std::int64_t e = to_signed(require_u64(req, "end"));
  if (b > e || e > 0xFFFFFFFFll) {
    throw std::runtime_error("bad vertex range [begin, end)");
  }
  begin = narrow<vid_t>(b);
  end = narrow<vid_t>(e);
}

std::uint64_t require_id(const Json& req) { return require_u64(req, "id"); }

/// Seeds are full 64-bit values (job seeds, shard hash outputs); JSON has
/// no u64, so they travel as two's-complement int64 and cast back
/// bit-for-bit. Any integral number (negative included) is therefore
/// valid here. An absent seed is an error unless `fallback` is given.
std::uint64_t require_seed(const Json& req,
                           std::optional<std::uint64_t> fallback = {}) {
  const Json* v = req.find("seed");
  if (!v && fallback) return *fallback;
  if (!v || !v->is_number()) {
    throw std::runtime_error("missing or non-numeric \"seed\"");
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
  if (r.shards > 0) {
    out["shards"] = count_json(r.shards);
    out["conflict_rounds"] = count_json(r.conflict_rounds);
    out["recolored"] = count_json(r.recolored);
    out["boundary_fraction"] = Json(r.boundary_fraction);
  }
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

}  // namespace

Json error_reply(const std::string& code, const std::string& detail) {
  Json out{JsonObject{}};
  out["ok"] = Json(false);
  out["error"] = Json(code);
  if (!detail.empty()) out["detail"] = Json(detail);
  return out;
}

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

JobSpec job_spec_from_json(const Json& req) {
  JobSpec spec;
  spec.graph = require_graph(req);
  spec.backend = backend_from_name(req.get_string("backend", "par"));
  spec.algorithm =
      req.get_string("algorithm", default_algorithm(spec.backend));
  spec.priority = req.get_string("priority", "random");
  spec.seed = require_seed(req, 1);
  spec.order = req.get_string("order", "");
  if (!spec.order.empty()) {
    try {
      order_from_name(spec.order);
    } catch (const std::exception&) {
      throw std::runtime_error(
          "\"order\" must be one of natural, random, degree-desc, "
          "degree-asc, bfs, rcm");
    }
    if (spec.backend != Backend::kPar) {
      throw std::runtime_error(
          "\"order\" requires backend par — for shard, put an order= "
          "parameter in a gen: graph spec instead");
    }
  }
  spec.deadline_ms = req.get_double("deadline_ms", 0.0);
  if (spec.deadline_ms < 0.0) {
    throw std::runtime_error("\"deadline_ms\" must be >= 0");
  }
  spec.keep_colors = req.get_bool("keep_colors", false);
  const std::int64_t shards = req.get_int("shards", 0);
  if (shards < 0 || shards > 4096) {
    throw std::runtime_error("\"shards\" must be in [0, 4096]");
  }
  spec.shards = narrow<unsigned>(shards);
  const std::int64_t rounds = req.get_int("shard_rounds", 0);
  if (rounds < 0 || rounds > 0xFFFF) {
    throw std::runtime_error("\"shard_rounds\" must be in [0, 65535]");
  }
  spec.shard_rounds = narrow<unsigned>(rounds);
  return spec;
}

Json job_spec_to_json(const JobSpec& spec) {
  Json out{JsonObject{}};
  out["graph"] = Json(spec.graph);
  out["backend"] = Json(backend_name(spec.backend));
  out["algorithm"] = Json(spec.algorithm);
  out["priority"] = Json(spec.priority);
  out["seed"] = Json(spec.seed);
  if (!spec.order.empty()) out["order"] = Json(spec.order);
  out["deadline_ms"] = Json(spec.deadline_ms);
  out["keep_colors"] = Json(spec.keep_colors);
  if (spec.shards != 0) {
    out["shards"] = count_json(spec.shards);
  }
  if (spec.shard_rounds != 0) {
    out["shard_rounds"] = count_json(spec.shard_rounds);
  }
  return out;
}

// --- shard worker DTO codecs -----------------------------------------------

ShardColorRequest shard_color_request_from_json(const Json& req) {
  ShardColorRequest r;
  r.graph = require_graph(req);
  require_range(req, r.begin, r.end);
  r.seed = require_seed(req);
  r.algorithm = req.get_string("algorithm", "jpl");
  r.priority = req.get_string("priority", "random");
  const std::int64_t threads = req.get_int("threads", 0);
  if (threads < 0 || threads > 4096) {
    throw std::runtime_error("\"threads\" must be in [0, 4096]");
  }
  r.threads = narrow<unsigned>(threads);
  return r;
}

Json shard_color_request_to_json(const ShardColorRequest& r) {
  Json out{JsonObject{}};
  out["op"] = Json("shard_color");
  out["graph"] = Json(r.graph);
  out["begin"] = count_json(r.begin);
  out["end"] = count_json(r.end);
  out["seed"] = Json(r.seed);
  out["algorithm"] = Json(r.algorithm);
  out["priority"] = Json(r.priority);
  if (r.threads != 0) {
    out["threads"] = count_json(r.threads);
  }
  return out;
}

ShardColorReply shard_color_reply_from_json(const Json& reply) {
  ShardColorReply r;
  r.colors = color_array(reply, "colors");
  r.num_colors = narrow<int>(require_u64(reply, "num_colors"));
  r.num_boundary = narrow<vid_t>(require_u64(reply, "num_boundary"));
  r.cut_arcs = require_u64(reply, "cut_arcs");
  r.run_ms = reply.get_double("run_ms", 0.0);
  r.cache_hit = reply.get_bool("cache_hit", false);
  r.mapped = reply.get_bool("mapped", false);
  return r;
}

Json shard_color_reply_to_json(const ShardColorReply& r) {
  Json out{JsonObject{}};
  out["ok"] = Json(true);
  out["colors"] = int_array_to_json(r.colors);
  out["num_colors"] = Json(r.num_colors);
  out["num_boundary"] = count_json(r.num_boundary);
  out["cut_arcs"] = count_json(r.cut_arcs);
  out["run_ms"] = Json(r.run_ms);
  out["cache_hit"] = Json(r.cache_hit);
  out["mapped"] = Json(r.mapped);
  return out;
}

ShardRepairRequest shard_repair_request_from_json(const Json& req) {
  ShardRepairRequest r;
  r.graph = require_graph(req);
  require_range(req, r.begin, r.end);
  r.seed = require_seed(req);
  r.losers = u32_array<vid_t>(req, "losers", 0xFFFFFFFFll);
  r.ghost_ids = u32_array<vid_t>(req, "ghost_ids", 0xFFFFFFFFll);
  r.ghost_colors = color_array(req, "ghost_colors");
  if (r.ghost_ids.size() != r.ghost_colors.size()) {
    throw std::runtime_error(
        "\"ghost_ids\" and \"ghost_colors\" must be the same length");
  }
  return r;
}

Json shard_repair_request_to_json(const ShardRepairRequest& r) {
  Json out{JsonObject{}};
  out["op"] = Json("shard_repair");
  out["graph"] = Json(r.graph);
  out["begin"] = count_json(r.begin);
  out["end"] = count_json(r.end);
  out["seed"] = Json(r.seed);
  out["losers"] = int_array_to_json(r.losers);
  out["ghost_ids"] = int_array_to_json(r.ghost_ids);
  out["ghost_colors"] = int_array_to_json(r.ghost_colors);
  return out;
}

ShardRepairReply shard_repair_reply_from_json(const Json& reply) {
  ShardRepairReply r;
  r.ids = u32_array<vid_t>(reply, "ids", 0xFFFFFFFFll);
  r.colors = color_array(reply, "colors");
  if (r.ids.size() != r.colors.size()) {
    throw std::runtime_error(
        "\"ids\" and \"colors\" must be the same length");
  }
  r.rounds = narrow<unsigned>(require_u64(reply, "rounds"));
  r.recolored = require_u64(reply, "recolored");
  r.run_ms = reply.get_double("run_ms", 0.0);
  return r;
}

Json shard_repair_reply_to_json(const ShardRepairReply& r) {
  Json out{JsonObject{}};
  out["ok"] = Json(true);
  out["ids"] = int_array_to_json(r.ids);
  out["colors"] = int_array_to_json(r.colors);
  out["rounds"] = count_json(r.rounds);
  out["recolored"] = count_json(r.recolored);
  out["run_ms"] = Json(r.run_ms);
  return out;
}

Json snapshot_reply(const JobSnapshot& snap, bool include_colors) {
  Json out{JsonObject{}};
  out["ok"] = Json(true);
  out["id"] = Json(snap.id);
  out["status"] = Json(job_status_name(snap.status));
  out["graph"] = Json(snap.spec.graph);
  out["algorithm"] = Json(snap.spec.algorithm);
  out["backend"] = Json(backend_name(snap.spec.backend));
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
