#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/request_stats.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace prcost::obs {
namespace {

// Combined span-capture flag: bit 0 is the global tracing switch, and each
// live request-stats scope adds 2. ScopedSpan gates on "any bit set", so a
// disabled span site still costs exactly one relaxed atomic load while
// request scopes can collect phase times without global tracing.
constexpr u32 kTracingBit = 1;
std::atomic<u32> g_span_capture{0};

// Capacity per thread; at 40 bytes/record this is ~2.6 MB per traced
// thread, enough for every bench/CLI run while bounding a runaway loop.
constexpr u64 kRingCapacity = 1 << 16;

struct ThreadRing {
  u32 tid = 0;
  /// Total records ever written; readers take min(count, capacity) of the
  /// most recent. Release store pairs with the exporter's acquire load.
  std::atomic<u64> count{0};
  std::vector<SpanRecord> records{kRingCapacity};
};

/// Owns one shared_ptr per ring so span data survives thread exit.
struct Collector {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  u32 next_tid = 1;
};

Collector& collector() {
  static Collector* c = new Collector;  // leaked: usable during exit
  return *c;
}

ThreadRing& local_ring() {
  thread_local const std::shared_ptr<ThreadRing> ring = [] {
    auto r = std::make_shared<ThreadRing>();
    Collector& c = collector();
    const std::scoped_lock lock{c.mutex};
    r->tid = c.next_tid++;
    c.rings.push_back(r);
    return r;
  }();
  return *ring;
}

thread_local ScopedSpan* t_current_span = nullptr;

/// Snapshot every ring under the collector lock.
std::vector<std::shared_ptr<ThreadRing>> ring_snapshot() {
  Collector& c = collector();
  const std::scoped_lock lock{c.mutex};
  return c.rings;
}

}  // namespace

bool tracing_enabled() noexcept {
  return (g_span_capture.load(std::memory_order_relaxed) & kTracingBit) != 0;
}

void set_tracing(bool on) noexcept {
  if (on) {
    g_span_capture.fetch_or(kTracingBit, std::memory_order_relaxed);
  } else {
    g_span_capture.fetch_and(~kTracingBit, std::memory_order_relaxed);
  }
}

bool span_capture_active() noexcept {
  return g_span_capture.load(std::memory_order_relaxed) != 0;
}

void add_request_phase_capture(int delta) noexcept {
  g_span_capture.fetch_add(static_cast<u32>(2 * delta),
                           std::memory_order_relaxed);
}

bool init_from_env() {
  const char* value = std::getenv("PRCOST_TRACE");
  if (value == nullptr || *value == '\0' ||
      std::string_view{value} == "0") {
    return false;
  }
  set_tracing(true);
  set_metrics_enabled(true);
  return true;
}

void ScopedSpan::begin(const char* static_name) noexcept {
  active_ = true;
  name_ = static_name;
  parent_ = t_current_span;
  depth_ = parent_ != nullptr ? parent_->depth_ + 1 : 0;
  t_current_span = this;
  start_ns_ = monotonic_ns();
}

void ScopedSpan::finish() noexcept {
  const u64 dur = monotonic_ns() - start_ns_;
  if (parent_ != nullptr) parent_->child_ns_ += dur;
  t_current_span = parent_;
  const u64 self = dur > child_ns_ ? dur - child_ns_ : 0;
  if (tracing_enabled()) {
    ThreadRing& ring = local_ring();
    const u64 n = ring.count.load(std::memory_order_relaxed);
    ring.records[n % kRingCapacity] =
        SpanRecord{name_, start_ns_, dur, self, depth_};
    ring.count.store(n + 1, std::memory_order_release);
  }
  // Feed the request scope active on this thread (the span may have begun
  // because a scope, not global tracing, raised the capture flag).
  if ((g_span_capture.load(std::memory_order_relaxed) & ~kTracingBit) != 0) {
    if (RequestStats* stats = RequestStats::current()) {
      stats->add_phase(name_, dur, self);
    }
  }
}

std::vector<SpanRecord> trace_spans() {
  std::vector<SpanRecord> out;
  for (const auto& ring : ring_snapshot()) {
    const u64 n = ring->count.load(std::memory_order_acquire);
    const u64 retained = std::min(n, kRingCapacity);
    for (u64 i = 0; i < retained; ++i) {
      // Oldest retained record first: when wrapped, start at count % cap.
      const u64 slot = n > kRingCapacity ? (n + i) % kRingCapacity : i;
      out.push_back(ring->records[slot]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

std::vector<TraceSummaryRow> trace_summary() {
  std::map<std::string_view, TraceSummaryRow> by_name;
  for (const SpanRecord& span : trace_spans()) {
    TraceSummaryRow& row = by_name[span.name];
    if (row.count == 0) row.name = span.name;
    ++row.count;
    row.total_ns += span.dur_ns;
    row.self_ns += span.self_ns;
    row.max_ns = std::max(row.max_ns, span.dur_ns);
  }
  std::vector<TraceSummaryRow> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(),
            [](const TraceSummaryRow& a, const TraceSummaryRow& b) {
              return a.self_ns > b.self_ns;
            });
  return rows;
}

TextTable trace_summary_table() {
  TextTable table{{"span", "count", "self (ms)", "total (ms)", "avg (ms)",
                   "max (ms)"}};
  const auto ms = [](u64 ns) {
    return format_fixed(static_cast<double>(ns) / 1e6, 3);
  };
  for (const TraceSummaryRow& row : trace_summary()) {
    table.add_row({row.name, std::to_string(row.count), ms(row.self_ns),
                   ms(row.total_ns),
                   ms(row.count > 0 ? row.total_ns / row.count : 0),
                   ms(row.max_ns)});
  }
  return table;
}

void write_chrome_trace(std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Thread metadata first so Perfetto labels each track.
  for (const auto& ring : ring_snapshot()) {
    if (ring->count.load(std::memory_order_acquire) == 0) continue;
    if (!first) out << ',';
    first = false;
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << ring->tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"prcost-thread-"
        << ring->tid << "\"}}";
  }
  for (const auto& ring : ring_snapshot()) {
    const u64 n = ring->count.load(std::memory_order_acquire);
    const u64 retained = std::min(n, kRingCapacity);
    for (u64 i = 0; i < retained; ++i) {
      const u64 slot = n > kRingCapacity ? (n + i) % kRingCapacity : i;
      const SpanRecord& span = ring->records[slot];
      if (!first) out << ',';
      first = false;
      // Timestamps/durations in microseconds (Chrome trace convention).
      out << "{\"name\":\"" << span.name
          << "\",\"cat\":\"prcost\",\"ph\":\"X\",\"ts\":"
          << format_fixed(static_cast<double>(span.start_ns) / 1e3, 3)
          << ",\"dur\":"
          << format_fixed(static_cast<double>(span.dur_ns) / 1e3, 3)
          << ",\"pid\":1,\"tid\":" << ring->tid << "}";
    }
  }
  out << "]}";
}

void write_folded_stacks(std::ostream& out) {
  // Stacks are reconstructed per thread: records sorted by start time are a
  // pre-order walk of the span tree, so a record at depth d has the current
  // depth-(d-1) record as its parent. Self times then aggregate by path
  // across all threads.
  std::map<std::string, u64> self_by_stack;
  for (const auto& ring : ring_snapshot()) {
    const u64 n = ring->count.load(std::memory_order_acquire);
    const u64 retained = std::min(n, kRingCapacity);
    std::vector<SpanRecord> records;
    records.reserve(retained);
    for (u64 i = 0; i < retained; ++i) {
      const u64 slot = n > kRingCapacity ? (n + i) % kRingCapacity : i;
      records.push_back(ring->records[slot]);
    }
    std::sort(records.begin(), records.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                : a.depth < b.depth;
              });
    std::vector<const char*> frames;
    for (const SpanRecord& span : records) {
      frames.resize(span.depth);
      // Ancestors evicted by ring wrap-around leave holes; mark them.
      for (const char*& frame : frames) {
        if (frame == nullptr) frame = "?";
      }
      frames.push_back(span.name);
      std::string stack;
      for (std::size_t i = 0; i < frames.size(); ++i) {
        if (i) stack += ';';
        stack += frames[i];
      }
      self_by_stack[stack] += span.self_ns;
    }
  }
  for (const auto& [stack, self_ns] : self_by_stack) {
    out << stack << ' ' << self_ns << '\n';
  }
}

u64 trace_span_count() {
  u64 total = 0;
  for (const auto& ring : ring_snapshot()) {
    total += ring->count.load(std::memory_order_acquire);
  }
  return total;
}

u64 trace_dropped_count() {
  u64 dropped = 0;
  for (const auto& ring : ring_snapshot()) {
    const u64 n = ring->count.load(std::memory_order_acquire);
    if (n > kRingCapacity) dropped += n - kRingCapacity;
  }
  return dropped;
}

void clear_trace() {
  for (const auto& ring : ring_snapshot()) {
    ring->count.store(0, std::memory_order_release);
  }
}

}  // namespace prcost::obs
