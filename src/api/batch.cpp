#include "api/batch.hpp"

#include <algorithm>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "api/deadline.hpp"
#include "api/ops.hpp"
#include "util/error.hpp"
#include "util/lines.hpp"
#include "util/parallel.hpp"

namespace prcost::api {
namespace {

Json error_envelope(ErrorCode code, const std::string& message) {
  Json error = Json::object();
  error.set("code", std::string{error_code_name(code)}).set("message", message);
  Json envelope = Json::object();
  envelope.set("error", std::move(error));
  return envelope;
}

/// Copy "op" and "id" from the request into the envelope (when present)
/// so batch consumers can correlate out-of-band.
void echo_request_keys(const Json& request, Json& envelope) {
  Json tagged = Json::object();
  if (const Json* op = request.find("op")) {
    if (op->is_string()) tagged.set("op", *op);
  }
  if (const Json* id = request.find("id")) tagged.set("id", *id);
  for (const auto& [key, value] : envelope.as_object()) {
    tagged.set(key, value);
  }
  envelope = std::move(tagged);
}

Json dispatch_by_op(const Engine& engine, const Json& request) {
  const Json* op = request.find("op");
  if (op == nullptr) throw UsageError{"request needs an \"op\" member"};
  const std::string& name = op->as_string();
  const Op* entry = find_op(name);
  if (entry == nullptr) {
    throw NotFoundError{"unknown op '" + name + "' (known: " + op_names() +
                        ")"};
  }
  return entry->dispatch(engine, request);
}

/// Arm the request's "deadline_ms" budget (anchored at `arrival`) for the
/// duration of the dispatch. Outermost-wins: no-op when the caller already
/// opened a scope. Returns disengaged when the request carries no budget.
std::optional<DeadlineScope> arm_deadline(
    const Json& request, std::chrono::steady_clock::time_point arrival) {
  const Json* dl = request.is_object() ? request.find("deadline_ms") : nullptr;
  if (dl == nullptr) return std::nullopt;
  if (!dl->is_number() || dl->as_double() < 0) {
    throw UsageError{"deadline_ms must be a non-negative number"};
  }
  const auto budget = std::chrono::duration_cast<DeadlineClock::duration>(
      std::chrono::duration<double, std::milli>{dl->as_double()});
  return std::optional<DeadlineScope>{std::in_place, arrival + budget};
}

/// The one dispatch body: the request's "deadline_ms" budget is anchored
/// at `arrival`, so time spent queued behind other requests counts and an
/// overloaded server answers "deadline" instead of doing work nobody is
/// waiting for.
Json dispatch_at(const Engine& engine, const Json& request,
                 DeadlineClock::time_point arrival) {
  Json envelope = Json::object();
  try {
    if (!request.is_object()) {
      throw UsageError{"request must be a JSON object"};
    }
    const auto scope = arm_deadline(request, arrival);
    check_deadline("admission");
    Json result = dispatch_by_op(engine, request);
    envelope.set("result", std::move(result));
  } catch (const Error& error) {
    envelope = error_envelope(error.code(), error.what());
  } catch (const std::exception& error) {
    envelope = error_envelope(ErrorCode::kInternal, error.what());
  }
  if (request.is_object()) echo_request_keys(request, envelope);
  return envelope;
}

}  // namespace

Json dispatch_request(const Engine& engine, const Json& request) {
  return dispatch_at(engine, request, DeadlineClock::now());
}

Json dispatch_line(const Engine& engine, std::string_view line) {
  return dispatch_line_at(engine, line, DeadlineClock::now());
}

Json dispatch_line_at(const Engine& engine, std::string_view line,
                      std::chrono::steady_clock::time_point arrival) {
  Json request;
  try {
    request = Json::parse(line);
  } catch (const ParseError& error) {
    return error_envelope(ErrorCode::kParse, error.what());
  }
  return dispatch_at(engine, request, arrival);
}

BatchStats run_batch(const Engine& engine, std::istream& in, std::ostream& out,
                     const BatchOptions& options) {
  const std::size_t workers =
      options.workers != 0 ? options.workers : engine.options().workers;
  const std::size_t width = workers != 0 ? workers : parallel_worker_count();
  const std::size_t window =
      options.window != 0 ? options.window
                          : std::max<std::size_t>(64, width * 16);

  BatchStats stats;
  std::vector<std::string> lines;
  std::vector<std::string> responses;
  std::vector<unsigned char> ok;  // not vector<bool>: workers write
                                  // distinct indices concurrently
  lines.reserve(window);

  // Dispatch one window over the pool and emit its responses in input
  // order. Windows bound memory: the stream is never slurped whole.
  const auto flush = [&] {
    if (lines.empty()) return;
    responses.assign(lines.size(), {});
    ok.assign(lines.size(), 0);
    parallel_for(
        lines.size(),
        [&](std::size_t i) {
          const Json envelope = dispatch_line(engine, lines[i]);
          ok[i] = envelope.find("error") == nullptr;
          responses[i] = envelope.dump();
        },
        workers);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      out << responses[i] << '\n';
      if (ok[i]) {
        ++stats.succeeded;
      } else {
        ++stats.failed;
      }
    }
    stats.requests += lines.size();
    lines.clear();
    // Responses leave the process as soon as their window completes, so a
    // pipe producer can overlap with dispatch.
    out.flush();
  };

  // Same framing the serve event loop uses on its sockets: chunks in,
  // getline-equivalent lines out (a trailing unterminated chunk is still
  // one last line).
  LineSplitter splitter;
  char chunk[64 * 1024];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    splitter.append(
        std::string_view{chunk, static_cast<std::size_t>(in.gcount())});
    while (auto line = splitter.next_line()) {
      lines.push_back(std::move(*line));
      if (lines.size() >= window) flush();
    }
  }
  std::string tail = splitter.take_tail();
  if (!tail.empty()) lines.push_back(std::move(tail));
  flush();
  return stats;
}

}  // namespace prcost::api
