// Tests for the observability subsystem (src/obs): concurrent counter
// exactness, histogram bucket boundaries, span nesting / Chrome-trace JSON
// well-formedness (parsed back with a minimal JSON parser), and the
// disabled no-op paths.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sched/scheduler.hpp"
#include "util/parallel.hpp"

namespace prcost {
namespace {

// --- minimal JSON parser ---------------------------------------------------
// Validates syntax and collects every (key, string-value) pair so tests can
// assert which span names appear. Numbers/bools/null are validated but not
// retained.
class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  bool parse() {
    skip_ws();
    if (!parse_value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

  const std::vector<std::pair<std::string, std::string>>& string_members()
      const {
    return members_;
  }

 private:
  bool parse_value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        std::string s;
        return parse_string(s);
      }
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return parse_number();
    }
  }

  bool parse_object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (peek() == '"') {
        std::string value;
        if (!parse_string(value)) return false;
        members_.emplace_back(std::move(key), std::move(value));
      } else if (!parse_value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool parse_array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool parse_string(std::string& out) {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      out += text_[pos_++];
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
  std::vector<std::pair<std::string, std::string>> members_;
};

std::vector<std::string> span_names(const JsonParser& parser) {
  std::vector<std::string> names;
  for (const auto& [key, value] : parser.string_members()) {
    if (key == "name") names.push_back(value);
  }
  return names;
}

u64 count_of(const std::vector<std::string>& names, std::string_view want) {
  u64 n = 0;
  for (const auto& name : names) {
    if (name == want) ++n;
  }
  return n;
}

// --- metrics ---------------------------------------------------------------

TEST(ObsMetrics, ConcurrentCounterSumsExactly) {
  obs::set_metrics_enabled(true);
  obs::Counter& counter = obs::registry().counter("test.concurrent");
  counter.reset();
  constexpr int kThreads = 8;
  constexpr u64 kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (u64 i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  obs::set_metrics_enabled(false);
}

TEST(ObsMetrics, CounterMacroBatchesDeltas) {
  obs::set_metrics_enabled(true);
  obs::registry().counter("test.macro_batch").reset();
  PRCOST_COUNT_N("test.macro_batch", 5);
  PRCOST_COUNT("test.macro_batch");
  EXPECT_EQ(obs::registry().counter("test.macro_batch").value(), 6u);
  obs::set_metrics_enabled(false);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  obs::set_metrics_enabled(true);
  obs::Histogram& hist =
      obs::registry().histogram("test.hist", {10.0, 100.0, 1000.0});
  hist.reset();
  // "le" buckets: upper bounds are inclusive.
  hist.record(5);     // -> le10
  hist.record(10);    // -> le10 (boundary inclusive)
  hist.record(10.5);  // -> le100
  hist.record(100);   // -> le100
  hist.record(1000);  // -> le1000
  hist.record(1001);  // -> overflow
  const auto buckets = hist.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(hist.count(), 6u);
  EXPECT_DOUBLE_EQ(hist.sum(), 5 + 10 + 10.5 + 100 + 1000 + 1001);
  obs::set_metrics_enabled(false);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  obs::set_metrics_enabled(true);
  obs::Gauge& gauge = obs::registry().gauge("test.gauge");
  gauge.set(2.5);
  gauge.add(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
  obs::set_metrics_enabled(false);
}

TEST(ObsMetrics, DisabledRegistryIsNoOp) {
  obs::set_metrics_enabled(false);
  obs::Counter& counter = obs::registry().counter("test.disabled");
  counter.reset();
  counter.add(7);
  PRCOST_COUNT_N("test.disabled", 7);
  EXPECT_EQ(counter.value(), 0u);
  obs::Histogram& hist = obs::registry().histogram("test.disabled_hist", {1.0});
  hist.reset();
  hist.record(0.5);
  EXPECT_EQ(hist.count(), 0u);
}

TEST(ObsMetrics, JsonExportParses) {
  obs::set_metrics_enabled(true);
  obs::registry().counter("test.json_counter").reset();
  PRCOST_COUNT_N("test.json_counter", 3);
  PRCOST_HIST("test.json_hist", 42, 10.0, 100.0);
  obs::set_metrics_enabled(false);
  JsonParser parser{obs::registry().to_json()};
  EXPECT_TRUE(parser.parse());
}

TEST(ObsMetrics, IcapWritesCountBookedSwitchesNotPricings) {
  // Three PRMs take turns on one slot, so each of the 30 tasks books a
  // switch while each PRM is priced only once per media: the ICAP
  // counters follow the switches.
  const std::vector<PrmInfo> prms = {{"a", PrmRequirements{}, 100'000},
                                     {"b", PrmRequirements{}, 200'000},
                                     {"c", PrmRequirements{}, 300'000}};
  std::vector<sched::Task> tasks;
  for (u32 i = 0; i < 30; ++i) {
    tasks.push_back(sched::Task{"t" + std::to_string(i), i % 3,
                                0.01 * static_cast<double>(i), 1e-3, 0, 0});
  }
  sched::SchedulerConfig config;
  config.slot_count = 1;
  obs::set_metrics_enabled(true);
  obs::registry().counter("reconfig.icap_writes").reset();
  obs::registry().counter("reconfig.icap_bytes").reset();
  const sched::Report report = sched::run(prms, tasks, config);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(report.reconfig_count, 30u);
  EXPECT_EQ(obs::registry().counter("reconfig.icap_writes").value(),
            report.reconfig_count);
  EXPECT_EQ(obs::registry().counter("reconfig.icap_bytes").value(),
            report.reconfig_bytes);
}

// --- quantiles -------------------------------------------------------------

TEST(ObsQuantile, InterpolatesExactlyOnUniformData) {
  // 1..100 uniformly into {10, 50, 100}: the linear interpolation inside
  // each bucket reconstructs the underlying uniform distribution exactly.
  obs::Histogram hist{{10.0, 50.0, 100.0}};
  for (int v = 1; v <= 100; ++v) hist.record_unchecked(v);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 100.0);
}

TEST(ObsQuantile, FirstBucketLowerEdgeIsZero) {
  // 4 samples all in (..,10]: p50 ranks 2 of 4, interpolated from a lower
  // edge of min(0, bound) = 0, so the estimate is 10 * 2/4.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile({10.0}, {4, 0}, 0.5), 5.0);
}

TEST(ObsQuantile, EmptyHistogramIsNaN) {
  obs::Histogram hist{{10.0}};
  EXPECT_TRUE(std::isnan(hist.quantile(0.5)));
  EXPECT_TRUE(std::isnan(obs::histogram_quantile({10.0}, {0, 0}, 0.99)));
}

TEST(ObsQuantile, OverflowBucketClampsToLastBound) {
  // Every sample in the +Inf bucket: the estimate can only say ">= last
  // finite bound", so it clamps there instead of inventing an upper edge.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile({10.0, 100.0}, {0, 0, 7}, 0.99),
                   100.0);
}

// --- OpenMetrics exposition ------------------------------------------------

TEST(ObsOpenMetrics, EscapesLabelValues) {
  EXPECT_EQ(obs::openmetrics_escape_label("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd");
  EXPECT_EQ(obs::openmetrics_escape_label("plain"), "plain");
}

TEST(ObsOpenMetrics, SanitizesNames) {
  EXPECT_EQ(obs::openmetrics_name("plan_cache.hits"),
            "prcost_plan_cache_hits");
  EXPECT_EQ(obs::openmetrics_name("a-b c"), "prcost_a_b_c");
}

TEST(ObsOpenMetrics, ExpositionHasFamiliesSamplesAndEof) {
  obs::set_metrics_enabled(true);
  obs::registry().counter("test.om_counter").reset();
  PRCOST_COUNT_N("test.om_counter", 3);
  PRCOST_HIST("test.om_hist", 42, 10.0, 100.0);
  obs::set_metrics_enabled(false);
  const std::string text = obs::registry().to_openmetrics();
  EXPECT_NE(text.find("# TYPE prcost_test_om_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("prcost_test_om_counter_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prcost_test_om_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("prcost_test_om_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("prcost_test_om_hist_count"), std::string::npos);
  EXPECT_TRUE(text.ends_with("# EOF\n")) << text;
}

// --- snapshots -------------------------------------------------------------

TEST(ObsSnapshot, DiffSubtractsCountsAndKeepsGaugeAfterValue) {
  obs::set_metrics_enabled(true);
  obs::registry().counter("test.diff_counter").reset();
  PRCOST_COUNT_N("test.diff_counter", 2);
  PRCOST_GAUGE_SET("test.diff_gauge", 1.0);
  PRCOST_HIST("test.diff_hist", 5, 10.0, 100.0);
  const obs::Snapshot before = obs::Snapshot::capture();
  PRCOST_COUNT_N("test.diff_counter", 5);
  PRCOST_GAUGE_SET("test.diff_gauge", 7.5);
  PRCOST_HIST("test.diff_hist", 50, 10.0, 100.0);
  PRCOST_HIST("test.diff_hist", 500, 10.0, 100.0);
  const obs::Snapshot after = obs::Snapshot::capture();
  obs::set_metrics_enabled(false);

  const obs::Snapshot diff = obs::snapshot_diff(before, after);
  EXPECT_EQ(diff.counter("test.diff_counter"), 5u);
  const obs::MetricSnapshot* gauge = diff.find("test.diff_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value, 7.5);  // gauges keep the `after` value
  const obs::MetricSnapshot* hist = diff.find("test.diff_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2u);  // interval samples only
  ASSERT_EQ(hist->buckets.size(), 3u);
  EXPECT_EQ(hist->buckets[0], 0u);
  EXPECT_EQ(hist->buckets[1], 1u);  // the 50
  EXPECT_EQ(hist->buckets[2], 1u);  // the 500 (overflow)
  EXPECT_EQ(diff.counter("test.never_registered"), 0u);
}

// --- request-scoped stats --------------------------------------------------

TEST(ObsRequestStats, NestedScopeCapturesItsOwnEvents) {
  obs::RequestStats outer;
  ASSERT_EQ(obs::RequestStats::current(), &outer);
  PRCOST_REQUEST_EVENT(kPlanCacheHit);
  {
    obs::RequestStats inner;
    ASSERT_EQ(obs::RequestStats::current(), &inner);
    PRCOST_REQUEST_EVENT(kPlanCacheHit);
    PRCOST_REQUEST_EVENT(kRetry);
    const obs::RequestStatsSummary s = inner.summary();
    EXPECT_EQ(s.plan_cache_hits, 1u);
    EXPECT_EQ(s.retries, 1u);
  }
  // Inner destruction restored the outer scope; its events stayed inner.
  ASSERT_EQ(obs::RequestStats::current(), &outer);
  PRCOST_REQUEST_EVENT(kBitstreamCacheMiss);
  const obs::RequestStatsSummary s = outer.summary();
  EXPECT_EQ(s.plan_cache_hits, 1u);
  EXPECT_EQ(s.bitstream_cache_misses, 1u);
  EXPECT_EQ(s.retries, 0u);
}

TEST(ObsRequestStats, NoScopeMeansEventsVanish) {
  ASSERT_EQ(obs::RequestStats::current(), nullptr);
  PRCOST_REQUEST_EVENT(kPlanCacheHit);  // must be a safe no-op
  EXPECT_FALSE(obs::request_tracking_active());
}

TEST(ObsRequestStats, PropagatesThroughParallelForWorkers) {
  obs::RequestStats stats;
  std::atomic<u64> attributed{0};
  parallel_for(64, [&](std::size_t) {
    if (obs::RequestStats::current() == &stats) {
      attributed.fetch_add(1, std::memory_order_relaxed);
    }
    PRCOST_REQUEST_EVENT(kBitstreamCacheHit);
  });
  // Every worker (pool thread or submitter) saw the submitting scope.
  EXPECT_EQ(attributed.load(), 64u);
  EXPECT_EQ(stats.summary().bitstream_cache_hits, 64u);
  EXPECT_EQ(obs::RequestStats::current(), &stats);
}

TEST(ObsRequestStats, CapturesPhasesWithoutGlobalTracing) {
  obs::clear_trace();
  obs::set_tracing(false);
  obs::RequestStats stats;
  {
    PRCOST_TRACE_SPAN("request_only_phase");
    {
      PRCOST_TRACE_SPAN("request_only_child");
    }
  }
  const obs::RequestStatsSummary s = stats.summary();
  ASSERT_EQ(s.phases.size(), 2u);
  // Sorted by self time descending; both labels present exactly once.
  u64 seen = 0;
  for (const auto& phase : s.phases) {
    EXPECT_EQ(phase.count, 1u);
    EXPECT_LE(phase.self_ns, phase.total_ns);
    EXPECT_LE(phase.max_ns, phase.total_ns);
    if (phase.name == "request_only_phase" ||
        phase.name == "request_only_child") {
      ++seen;
    }
  }
  EXPECT_EQ(seen, 2u);
  // The global ring stayed untouched: spans fed the scope, not the trace.
  EXPECT_EQ(obs::trace_span_count(), 0u);
}

TEST(ObsRequestStats, WallClockAdvances) {
  obs::RequestStats stats;
  const u64 first = stats.summary().wall_ns;
  const u64 second = stats.summary().wall_ns;
  EXPECT_GE(second, first);
}

#if !defined(PRCOST_NO_ALLOC_HOOKS)
TEST(ObsRequestStats, CountsHeapAllocations) {
  obs::RequestStats stats;
  const u64 before = stats.summary().allocations;
  auto* leak_free = new std::vector<int>(1024);
  delete leak_free;
  EXPECT_GT(stats.summary().allocations, before);
}
#endif

// --- tracing ---------------------------------------------------------------

TEST(ObsTrace, SpanNestingProducesWellFormedChromeJson) {
  obs::clear_trace();
  obs::set_tracing(true);
  {
    PRCOST_TRACE_SPAN("outer");
    for (int i = 0; i < 2; ++i) {
      PRCOST_TRACE_SPAN("inner");
    }
  }
  obs::set_tracing(false);

  const std::string json = obs::chrome_trace_json();
  JsonParser parser{json};
  ASSERT_TRUE(parser.parse()) << json;
  const auto names = span_names(parser);
  EXPECT_EQ(count_of(names, "outer"), 1u);
  EXPECT_EQ(count_of(names, "inner"), 2u);

  // Nesting: outer's self time excludes the two inner spans.
  for (const auto& row : obs::trace_summary()) {
    if (row.name == "outer") {
      EXPECT_EQ(row.count, 1u);
      EXPECT_LE(row.self_ns, row.total_ns);
    }
  }
  const auto spans = obs::trace_spans();
  u64 inner_total = 0, outer_total = 0, outer_self = 0;
  for (const auto& span : spans) {
    if (std::string_view{span.name} == "inner") {
      inner_total += span.dur_ns;
      EXPECT_EQ(span.depth, 1u);
    }
    if (std::string_view{span.name} == "outer") {
      outer_total = span.dur_ns;
      outer_self = span.self_ns;
      EXPECT_EQ(span.depth, 0u);
    }
  }
  EXPECT_LE(outer_self + inner_total, outer_total + 1);  // +1: ns rounding
  obs::clear_trace();
}

TEST(ObsTrace, DisabledSpanRecordsNothing) {
  obs::clear_trace();
  obs::set_tracing(false);
  {
    PRCOST_TRACE_SPAN("never_recorded");
  }
  EXPECT_EQ(obs::trace_span_count(), 0u);
}

TEST(ObsTrace, MultiThreadSpansLandInDistinctTracks) {
  obs::clear_trace();
  obs::set_tracing(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      PRCOST_TRACE_SPAN("worker");
    });
  }
  for (auto& t : threads) t.join();
  obs::set_tracing(false);
  JsonParser parser{obs::chrome_trace_json()};
  ASSERT_TRUE(parser.parse());
  EXPECT_EQ(count_of(span_names(parser), "worker"), 4u);
  obs::clear_trace();
}

TEST(ObsTrace, FoldedStacksJoinAncestryWithSemicolons) {
  obs::clear_trace();
  obs::set_tracing(true);
  {
    PRCOST_TRACE_SPAN("fold_outer");
    {
      PRCOST_TRACE_SPAN("fold_inner");
    }
    {
      PRCOST_TRACE_SPAN("fold_inner");
    }
  }
  obs::set_tracing(false);
  const std::string folded = obs::folded_stacks();
  // One line per distinct stack, "frames... self_ns", root alone and the
  // two inner occurrences merged into one aggregated line.
  EXPECT_NE(folded.find("fold_outer "), std::string::npos) << folded;
  EXPECT_NE(folded.find("fold_outer;fold_inner "), std::string::npos)
      << folded;
  EXPECT_EQ(folded.find("fold_inner;"), std::string::npos) << folded;
  obs::clear_trace();
}

TEST(ObsTrace, SummaryTableRenders) {
  obs::clear_trace();
  obs::set_tracing(true);
  {
    PRCOST_TRACE_SPAN("summary_span");
  }
  obs::set_tracing(false);
  const TextTable table = obs::trace_summary_table();
  EXPECT_GE(table.row_count(), 1u);
  EXPECT_NE(table.to_ascii().find("summary_span"), std::string::npos);
  obs::clear_trace();
}

}  // namespace
}  // namespace prcost
