// Wire protocol of the coloring service: line-delimited JSON over a
// Unix-domain stream socket. One request object per line, one reply
// object per line, strictly in order per connection. docs/SERVICE.md has
// the full verb reference and an example session.
//
// Requests:  {"op":"submit","graph":"gen:rmat-like?scale=0.25", ...}
//            {"op":"status","id":7}   {"op":"result","id":7}
//            {"op":"cancel","id":7}   {"op":"stats"}
//            {"op":"ping"}            {"op":"shutdown"}
//            {"op":"shard_color",...} {"op":"shard_repair",...}  (workers)
// Replies:   {"ok":true, ...}  or  {"ok":false,"error":"<code>",
//            "detail":"<human text>"} with stable machine-readable codes:
//            queue_full | bad_request | unknown_op | unknown_id |
//            shutting_down | protocol_error | unsupported_version.
//
// Every request may carry "protocol_version" (svc::Client stamps it).
// Absent means version 1 — the schema before the field existed. A version
// the server does not speak yields the stable unsupported_version code
// plus a "protocol_version" field naming what the server does speak, so
// old/new peers fail loud instead of misparsing each other.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "svc/job.hpp"
#include "svc/json.hpp"
#include "svc/scheduler.hpp"

namespace gcg::svc {

/// Version of the line-JSON request/reply schema this build speaks.
inline constexpr std::int64_t kProtocolVersion = 1;

// --- error codes (stable strings clients key off) --------------------------
inline constexpr const char* kErrQueueFull = "queue_full";
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrUnknownOp = "unknown_op";
inline constexpr const char* kErrUnknownId = "unknown_id";
inline constexpr const char* kErrShuttingDown = "shutting_down";
inline constexpr const char* kErrProtocol = "protocol_error";
inline constexpr const char* kErrUnsupportedVersion = "unsupported_version";

/// {"ok":false,"error":code,"detail":detail}
Json error_reply(const std::string& code, const std::string& detail);

/// Inspects req["protocol_version"] (absent = version 1, the pre-field
/// schema). Returns nullopt when this build speaks it, otherwise an
/// unsupported_version error reply carrying the supported version.
/// handle_request applies this to every scheduler-facing verb; handler-
/// mode servers (the shard worker) call it themselves.
std::optional<Json> check_protocol_version(const Json& req);

/// Parses the submit-verb fields of `req` into a JobSpec; unknown keys
/// are ignored. Throws std::runtime_error on missing/ill-typed fields (the
/// server maps that to a bad_request reply).
JobSpec job_spec_from_json(const Json& req);
Json job_spec_to_json(const JobSpec& spec);

/// {"ok":true,"id":...,"status":...,"result":{...}} — result fields only
/// present once terminal. `include_colors` additionally inlines the color
/// array (spec.keep_colors jobs only).
Json snapshot_reply(const JobSnapshot& snap, bool include_colors = true);

Json stats_reply(const SchedulerStats& stats);

// --- shard worker verbs ----------------------------------------------------
// Spoken between the shard coordinator and its worker processes (see
// docs/SHARDING.md). The coordinator is the only intended client, but the
// schema is part of the wire protocol proper: workers are plain svc
// servers and the DTO codecs below are the single source of truth for
// both sides.

/// {"op":"shard_color"}: color the interior of vertex range [begin, end)
/// of `graph` and remember the colors for later shard_repair calls.
struct ShardColorRequest {
  std::string graph;        ///< registry spec: path or gen:name?...
  vid_t begin = 0;
  vid_t end = 0;
  std::uint64_t seed = 1;   ///< job seed; worker derives the per-shard seed
  std::string algorithm = "jpl";  ///< par algorithm for the interior
  std::string priority = "random";
  unsigned threads = 0;     ///< worker pool threads; 0 = worker default
};

struct ShardColorReply {
  std::vector<color_t> colors;  ///< local colors; colors[i] = vertex begin+i
  int num_colors = 0;           ///< distinct colors used in the range
  vid_t num_boundary = 0;       ///< range vertices with out-of-range edges
  std::uint64_t cut_arcs = 0;   ///< range -> out-of-range arcs
  double run_ms = 0.0;
  bool cache_hit = false;
  bool mapped = false;          ///< graph served zero-copy off the mmap store
};

/// {"op":"shard_repair"}: recolor this round's conflict losers (global
/// ids inside the worker's range) against the ghost colors in
/// ghost_ids/ghost_colors (parallel arrays). Requires a prior
/// shard_color for the same (graph, begin, end).
struct ShardRepairRequest {
  std::string graph;
  vid_t begin = 0;
  vid_t end = 0;
  std::uint64_t seed = 1;
  std::vector<vid_t> losers;
  std::vector<vid_t> ghost_ids;
  std::vector<color_t> ghost_colors;
};

struct ShardRepairReply {
  std::vector<vid_t> ids;        ///< recolored global ids (= losers)
  std::vector<color_t> colors;   ///< their new colors, parallel to ids
  unsigned rounds = 0;           ///< intra-shard repair rounds
  std::uint64_t recolored = 0;
  double run_ms = 0.0;
};

/// DTO codecs. *_from_json throw std::runtime_error on missing or
/// ill-typed fields (servers map that to a bad_request reply);
/// *_to_json(reply) emit {"ok":true, ...}.
ShardColorRequest shard_color_request_from_json(const Json& req);
Json shard_color_request_to_json(const ShardColorRequest& r);
ShardColorReply shard_color_reply_from_json(const Json& reply);
Json shard_color_reply_to_json(const ShardColorReply& r);
ShardRepairRequest shard_repair_request_from_json(const Json& req);
Json shard_repair_request_to_json(const ShardRepairRequest& r);
ShardRepairReply shard_repair_reply_from_json(const Json& reply);
Json shard_repair_reply_to_json(const ShardRepairReply& r);

/// Dispatches one already-parsed request against a scheduler. Handles
/// every verb except "shutdown" (the server intercepts that one — it owns
/// the lifecycle). Unknown ops yield an unknown_op error reply.
Json handle_request(Scheduler& sched, const Json& req);

/// Parses `line` and dispatches; malformed JSON yields a protocol_error
/// reply instead of throwing.
Json handle_request_line(Scheduler& sched, const std::string& line);

}  // namespace gcg::svc
