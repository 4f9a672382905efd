#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/error.hpp"

namespace prcost::obs {
namespace {

std::atomic<bool> g_metrics_enabled{false};

/// JSON string escaping for metric names (we only emit names we control,
/// but stay safe on quotes/backslashes/control characters).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) noexcept {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw ContractError{"Histogram: bounds must be strictly ascending"};
  }
}

void Histogram::record_unchecked(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<u64> Histogram::bucket_counts() const {
  std::vector<u64> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) out.push_back(b.load(std::memory_order_relaxed));
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  // Intentionally leaked: exporters may run during static destruction
  // (e.g. the bench PRCOST_TRACE env hook), after a function-local static
  // registry would already be gone.
  static Registry* registry = new Registry;
  return *registry;
}

Counter& Registry::counter(std::string_view name) {
  const std::scoped_lock lock{mutex_};
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string{name}, std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::scoped_lock lock{mutex_};
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string{name}, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  const std::scoped_lock lock{mutex_};
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string{name},
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  const std::scoped_lock lock{mutex_};
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = MetricKind::kCounter;
    snap.count = counter->value();
    out.push_back(std::move(snap));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = MetricKind::kGauge;
    snap.value = gauge->value();
    out.push_back(std::move(snap));
  }
  for (const auto& [name, hist] : histograms_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = MetricKind::kHistogram;
    snap.count = hist->count();
    snap.value = hist->sum();
    snap.bounds = hist->bounds();
    snap.buckets = hist->bucket_counts();
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::string Registry::to_text() const {
  const auto snaps = snapshot();
  std::size_t width = 0;
  for (const auto& s : snaps) width = std::max(width, s.name.size());
  std::ostringstream os;
  for (const auto& s : snaps) {
    os << s.name << std::string(width - s.name.size() + 2, ' ');
    switch (s.kind) {
      case MetricKind::kCounter: os << s.count; break;
      case MetricKind::kGauge: os << format_double(s.value); break;
      case MetricKind::kHistogram:
        os << "count=" << s.count << " sum=" << format_double(s.value)
           << " buckets=[";
        for (std::size_t b = 0; b < s.buckets.size(); ++b) {
          if (b) os << ' ';
          if (b < s.bounds.size()) {
            os << "le" << format_double(s.bounds[b]) << ':' << s.buckets[b];
          } else {
            os << "inf:" << s.buckets[b];
          }
        }
        os << ']';
        break;
    }
    os << '\n';
  }
  return os.str();
}

std::string Registry::to_json() const {
  const auto snaps = snapshot();
  std::ostringstream os;
  os << '{';
  const auto emit_kind = [&](MetricKind kind, const char* key) {
    os << '"' << key << "\":{";
    bool first = true;
    for (const auto& s : snaps) {
      if (s.kind != kind) continue;
      if (!first) os << ',';
      first = false;
      os << '"' << json_escape(s.name) << "\":";
      switch (kind) {
        case MetricKind::kCounter: os << s.count; break;
        case MetricKind::kGauge: os << format_double(s.value); break;
        case MetricKind::kHistogram: {
          os << "{\"count\":" << s.count << ",\"sum\":"
             << format_double(s.value) << ",\"bounds\":[";
          for (std::size_t b = 0; b < s.bounds.size(); ++b) {
            if (b) os << ',';
            os << format_double(s.bounds[b]);
          }
          os << "],\"buckets\":[";
          for (std::size_t b = 0; b < s.buckets.size(); ++b) {
            if (b) os << ',';
            os << s.buckets[b];
          }
          os << "]}";
          break;
        }
      }
    }
    os << '}';
  };
  emit_kind(MetricKind::kCounter, "counters");
  os << ',';
  emit_kind(MetricKind::kGauge, "gauges");
  os << ',';
  emit_kind(MetricKind::kHistogram, "histograms");
  os << '}';
  return os.str();
}

std::string Registry::to_openmetrics() const {
  std::ostringstream os;
  for (const MetricSnapshot& s : snapshot()) {
    const std::string name = openmetrics_name(s.name);
    // HELP carries the internal dotted name so an exposition consumer can
    // map series back to instrumentation sites.
    os << "# HELP " << name << " internal metric "
       << openmetrics_escape_label(s.name) << '\n';
    switch (s.kind) {
      case MetricKind::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << "_total " << s.count << '\n';
        break;
      case MetricKind::kGauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << ' ' << format_double(s.value) << '\n';
        break;
      case MetricKind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        u64 cum = 0;  // exposition buckets are cumulative
        for (std::size_t b = 0; b < s.buckets.size(); ++b) {
          cum += s.buckets[b];
          os << name << "_bucket{le=\"";
          if (b < s.bounds.size()) {
            os << openmetrics_escape_label(format_double(s.bounds[b]));
          } else {
            os << "+Inf";
          }
          os << "\"} " << cum << '\n';
        }
        os << name << "_sum " << format_double(s.value) << '\n';
        os << name << "_count " << s.count << '\n';
        break;
      }
    }
  }
  os << "# EOF\n";
  return os.str();
}

void Registry::reset() {
  const std::scoped_lock lock{mutex_};
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
}

std::string openmetrics_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string openmetrics_name(std::string_view name) {
  std::string out = "prcost_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += legal ? c : '_';
  }
  return out;
}

}  // namespace prcost::obs
