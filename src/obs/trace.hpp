// Scoped-span tracing with per-thread ring buffers and Chrome trace-event
// export.
//
//   {
//     PRCOST_TRACE_SPAN("prr_search");
//     ...  // work attributed to the span
//   }
//
// Spans nest lexically: each thread keeps a stack of active spans, child
// durations are subtracted from the parent's self time, and finished spans
// land in a fixed-capacity per-thread ring buffer (oldest records are
// overwritten; the drop count is reported). The collected spans export as
// Chrome trace-event JSON — load the file at https://ui.perfetto.dev or
// chrome://tracing — or as a self-time summary table sorted by where the
// time actually went.
//
// Cost model: a disabled span is one relaxed atomic load at construction
// and a branch on a local bool at destruction; recording an enabled span is
// two clock reads plus a store into the thread-local ring. -DPRCOST_NO_OBS
// compiles spans out entirely.
#pragma once

#include <atomic>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/ints.hpp"
#include "util/table.hpp"

namespace prcost::obs {

/// Global tracing switch. Relaxed load; spans started while disabled are
/// never recorded (flipping the switch mid-span records nothing for it).
bool tracing_enabled() noexcept;
void set_tracing(bool on) noexcept;

/// True when spans must run their timing path at all: global tracing is on
/// OR at least one request-stats scope wants per-phase times. One relaxed
/// load of a combined flag, so a fully disabled span site costs the same
/// single load it always did.
bool span_capture_active() noexcept;

/// Internal: RequestStats scopes register (+1) / unregister (-1) their
/// interest in span capture.
void add_request_phase_capture(int delta) noexcept;

/// Reads PRCOST_TRACE; "1"/non-empty-non-"0" enables tracing AND metrics
/// (they are one observability surface for env-driven runs). Returns
/// whether observability ended up enabled.
bool init_from_env();

/// One finished span as stored in a ring buffer.
struct SpanRecord {
  const char* name = nullptr;  ///< static-storage string from the macro
  u64 start_ns = 0;            ///< monotonic_ns() at entry
  u64 dur_ns = 0;              ///< wall duration
  u64 self_ns = 0;             ///< dur minus directly nested child spans
  u32 depth = 0;               ///< nesting depth within its thread
};

/// RAII span. Use via PRCOST_TRACE_SPAN; constructible directly when the
/// name is built at runtime is deliberately NOT supported (records keep the
/// pointer, so names must have static storage duration).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* static_name) noexcept {
    if (span_capture_active()) begin(static_name);
  }
  ~ScopedSpan() {
    if (active_) finish();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* static_name) noexcept;
  void finish() noexcept;

  ScopedSpan* parent_ = nullptr;
  const char* name_ = nullptr;
  u64 start_ns_ = 0;
  u64 child_ns_ = 0;
  u32 depth_ = 0;
  bool active_ = false;
};

/// Aggregated per-name view of the recorded spans.
struct TraceSummaryRow {
  std::string name;
  u64 count = 0;
  u64 total_ns = 0;
  u64 self_ns = 0;
  u64 max_ns = 0;
};

/// Copy of every retained span across all threads, ordered by start time.
std::vector<SpanRecord> trace_spans();

/// Rows aggregated by span name, sorted by self time descending.
std::vector<TraceSummaryRow> trace_summary();

/// trace_summary() rendered with util's TextTable (ms columns).
TextTable trace_summary_table();

/// Chrome trace-event JSON ({"traceEvents":[...]}, complete "X" events,
/// microsecond timestamps). Safe to call while tracing is enabled, but the
/// intended use is export after the traced workload finished.
void write_chrome_trace(std::ostream& out);

/// Flamegraph-compatible folded stacks: one "root;child;leaf <self_ns>"
/// line per distinct stack, self times in nanoseconds aggregated across
/// all threads, lines sorted lexicographically. Feed to flamegraph.pl,
/// inferno, or speedscope. Ancestor frames evicted by ring wrap-around
/// render as "?".
void write_folded_stacks(std::ostream& out);

/// Total spans recorded / overwritten by ring wrap-around since clear.
u64 trace_span_count();
u64 trace_dropped_count();

/// Discard all recorded spans (rings stay registered).
void clear_trace();

}  // namespace prcost::obs

#if defined(PRCOST_NO_OBS)

#define PRCOST_TRACE_SPAN(name)

#else

#define PRCOST_OBS_CONCAT_IMPL(a, b) a##b
#define PRCOST_OBS_CONCAT(a, b) PRCOST_OBS_CONCAT_IMPL(a, b)

/// Open a span covering the rest of the enclosing scope.
#define PRCOST_TRACE_SPAN(name)                    \
  const ::prcost::obs::ScopedSpan PRCOST_OBS_CONCAT( \
      prcost_obs_span_, __LINE__) {                \
    name                                           \
  }

#endif  // PRCOST_NO_OBS
