// Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.
//
// Cost model: observability is off by default, and a disabled
// instrumentation site costs exactly one relaxed atomic load (the enabled
// flag) — the registry lookup behind each macro only runs once a site is
// actually hit while enabled. When enabled, the hot path is a lock-free
// relaxed atomic add; the registry mutex is taken only at first
// registration of a name and when snapshotting.
//
// Compiling with -DPRCOST_NO_OBS turns every PRCOST_* macro into a no-op,
// the hard floor for zero-overhead builds.
//
// Metric naming convention: "<subsystem>.<event>", lower_snake, e.g.
// "prr_search.candidates_rejected" or "sim.reconfig_bytes".
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/ints.hpp"

namespace prcost::obs {

/// Global metrics switch. Relaxed load: instrumentation sites check this
/// before touching the registry.
bool metrics_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(u64 delta = 1) noexcept {
    if (metrics_enabled()) add_unchecked(delta);
  }
  /// Caller already checked metrics_enabled() (the macros do).
  void add_unchecked(u64 delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  u64 value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

/// Last-written point-in-time value.
class Gauge {
 public:
  void set(double v) noexcept {
    if (metrics_enabled()) set_unchecked(v);
  }
  void set_unchecked(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with prometheus-style "le" (inclusive upper
/// bound) buckets plus one overflow bucket. Bucket boundaries are fixed at
/// registration; recording is a lock-free relaxed add.
class Histogram {
 public:
  /// `bounds` must be strictly ascending; throws ContractError otherwise.
  explicit Histogram(std::vector<double> bounds);

  void record(double v) noexcept {
    if (metrics_enabled()) record_unchecked(v);
  }
  void record_unchecked(double v) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// One count per bound, plus a trailing overflow bucket.
  std::vector<u64> bucket_counts() const;
  u64 count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<u64>> buckets_;  // bounds_.size() + 1, fixed size
  std::atomic<u64> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one metric, for export.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  u64 count = 0;                ///< counter value / histogram sample count
  double value = 0.0;           ///< gauge value / histogram sample sum
  std::vector<double> bounds;   ///< histogram only
  std::vector<u64> buckets;     ///< histogram only (bounds + overflow)
};

/// Process-wide registry. Metric objects have stable addresses for the
/// lifetime of the process, so call sites may cache references.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Returns the existing histogram if `name` was registered before; the
  /// first registration fixes the bucket bounds.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Sorted-by-name copy of every registered metric.
  std::vector<MetricSnapshot> snapshot() const;

  /// "name value" lines, aligned, histograms expanded per bucket.
  std::string to_text() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;

  /// OpenMetrics / Prometheus text exposition: sanitized `prcost_`-prefixed
  /// names, `# HELP`/`# TYPE` per family, `_total` counter samples,
  /// cumulative `_bucket{le="..."}` histogram series, `# EOF` terminator.
  std::string to_openmetrics() const;

  /// Zero every metric (registrations survive). Intended for tests.
  void reset();

 private:
  Registry() = default;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Shorthand for Registry::instance().
inline Registry& registry() { return Registry::instance(); }

/// OpenMetrics label-value escaping: backslash, double quote, and newline
/// become \\, \", and \n.
std::string openmetrics_escape_label(std::string_view value);

/// Sanitize a dotted internal metric name into a legal exposition name:
/// [a-zA-Z0-9_:] pass through, everything else becomes '_', and the
/// result is prefixed with "prcost_".
std::string openmetrics_name(std::string_view name);

}  // namespace prcost::obs

#if defined(PRCOST_NO_OBS)

#define PRCOST_COUNT(name) ((void)0)
#define PRCOST_COUNT_N(name, delta) ((void)(delta))
#define PRCOST_GAUGE_SET(name, v) ((void)(v))
#define PRCOST_HIST(name, v, ...) ((void)(v))

#else

/// Count one event. Disabled cost: one relaxed atomic load.
#define PRCOST_COUNT(name) PRCOST_COUNT_N(name, 1)

/// Count `delta` events at once (batch local tallies from hot loops).
#define PRCOST_COUNT_N(name, delta)                                          \
  do {                                                                       \
    if (::prcost::obs::metrics_enabled()) {                                  \
      static ::prcost::obs::Counter& prcost_obs_counter_ =                   \
          ::prcost::obs::registry().counter(name);                           \
      prcost_obs_counter_.add_unchecked(static_cast<::prcost::u64>(delta));  \
    }                                                                        \
  } while (0)

/// Set a gauge to `v`.
#define PRCOST_GAUGE_SET(name, v)                                            \
  do {                                                                       \
    if (::prcost::obs::metrics_enabled()) {                                  \
      static ::prcost::obs::Gauge& prcost_obs_gauge_ =                       \
          ::prcost::obs::registry().gauge(name);                             \
      prcost_obs_gauge_.set_unchecked(static_cast<double>(v));               \
    }                                                                        \
  } while (0)

/// Record `v` into a histogram with upper bounds `...` (fixed at first hit).
#define PRCOST_HIST(name, v, ...)                                            \
  do {                                                                       \
    if (::prcost::obs::metrics_enabled()) {                                  \
      static ::prcost::obs::Histogram& prcost_obs_hist_ =                    \
          ::prcost::obs::registry().histogram(name,                          \
                                              std::vector<double>{           \
                                                  __VA_ARGS__});             \
      prcost_obs_hist_.record_unchecked(static_cast<double>(v));             \
    }                                                                        \
  } while (0)

#endif  // PRCOST_NO_OBS
