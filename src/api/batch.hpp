// JSONL batch front-end: the long-lived, many-request entry point.
//
// Reads one JSON request object per input line, dispatches each through
// an Engine (fanned out over parallel_for - requests are independent),
// and emits exactly one JSON response per input line, in input order: a
// {"result": ...} envelope on success or a {"error": {code, message}}
// envelope using the util/error.hpp taxonomy on failure. A failing
// request never aborts the stream and never changes the process exit
// code - that is what lets a scheduler/partitioner (or a serving daemon)
// pump thousands of evaluations through one process.
#pragma once

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string_view>

#include "api/engine.hpp"
#include "util/json.hpp"

namespace prcost::api {

/// Dispatch one parsed request object by its "op" member through the op
/// table (api/ops.hpp). Returns the response envelope; all Errors are
/// captured into the error envelope, never thrown. An "id" member, when
/// present, is echoed back verbatim. A numeric "deadline_ms" member arms a
/// per-request deadline (stable "deadline" error code on expiry), checked
/// at engine phase boundaries; when the caller already opened an
/// api::DeadlineScope (the serve front-end anchors one at request
/// arrival), that outer deadline wins.
Json dispatch_request(const Engine& engine, const Json& request);

/// Parse one JSONL line and dispatch it. Malformed JSON yields an error
/// envelope with code "parse"; a non-object line yields code "usage".
Json dispatch_line(const Engine& engine, std::string_view line);

/// dispatch_line with the request's "deadline_ms" budget anchored at
/// `arrival` instead of at dispatch time, so queue wait counts against the
/// deadline. The serving front-end stamps arrival when the line is read
/// off the socket.
Json dispatch_line_at(const Engine& engine, std::string_view line,
                      std::chrono::steady_clock::time_point arrival);

struct BatchOptions {
  std::size_t workers = 0;  ///< parallel dispatch workers (0 = auto)
  /// Lines dispatched (and responses emitted) per streaming window; input
  /// is read incrementally so memory stays bounded by one window plus one
  /// read chunk regardless of stream length. 0 = auto (scales with the
  /// worker count).
  std::size_t window = 0;
};

struct BatchStats {
  std::size_t requests = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
};

/// Run every line of `in` through the engine and write one response line
/// per input line to `out`, preserving input order. Input is streamed:
/// lines dispatch in bounded windows as they arrive (a pipe producer sees
/// responses flow before it finishes writing), so memory never grows with
/// the stream. Returns the tally.
BatchStats run_batch(const Engine& engine, std::istream& in, std::ostream& out,
                     const BatchOptions& options = {});

}  // namespace prcost::api
