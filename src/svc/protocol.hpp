// Wire protocol of the coloring service: line-delimited JSON over a
// Unix-domain stream socket. One request object per line, one reply
// object per line, strictly in order per connection. docs/SERVICE.md has
// the full verb reference and an example session.
//
// Requests:  {"op":"submit","graph":"gen:rmat-like?scale=0.25", ...}
//            {"op":"status","id":7}   {"op":"result","id":7}
//            {"op":"cancel","id":7}   {"op":"stats"}
//            {"op":"ping"}            {"op":"shutdown"}
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

#include <string>

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

/// Parses the submit-verb fields of `req` into a JobSpec; unknown keys
/// are ignored. Throws std::runtime_error on missing/ill-typed fields and
/// on any "backend" other than "par" (the server maps that to a
/// bad_request reply). The values themselves (names, order, deadline)
/// are checked by Scheduler::submit.
JobSpec job_spec_from_json(const Json& req);
Json job_spec_to_json(const JobSpec& spec);

/// {"ok":true,"id":...,"status":...,"result":{...}} — result fields only
/// present once terminal. `include_colors` additionally inlines the color
/// array (spec.keep_colors jobs only).
Json snapshot_reply(const JobSnapshot& snap, bool include_colors = true);

Json stats_reply(const SchedulerStats& stats);

/// Dispatches one already-parsed request against a scheduler. Handles
/// every verb except "shutdown" (the server intercepts that one — it owns
/// the lifecycle). Unknown ops yield an unknown_op error reply.
Json handle_request(Scheduler& sched, const Json& req);

/// Parses `line` and dispatches; malformed JSON yields a protocol_error
/// reply instead of throwing.
Json handle_request_line(Scheduler& sched, const std::string& line);

}  // namespace gcg::svc
