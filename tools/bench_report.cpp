// bench_report: the continuous perf-regression harness.
//
// Ingests the JSON emitted by the perf_* benches (from files via --in, or
// by running the bench itself via --run), flattens every numeric leaf into
// a "<bench>.<path>" metric, stamps the set with timestamp / git SHA /
// compiler / host, appends one JSONL entry to a trajectory file, and
// compares each metric against its latest earlier value in that file
// (whichever bench row carried it last). Only keys whose name implies a
// direction are compared:
//
//   higher is better:  contains "per_sec", contains "speedup"
//   lower  is better:  ends with "_ns" or "_ms", contains "seconds_per"
//
// A metric beyond --tolerance (default 0.25 = 25%) in the bad direction is
// a regression; with --check the process exits 3 so CI can gate on it
// (--report-only downgrades that to 0 while still printing the report).
//
//   bench_report [--in name=path.json]... [--run name=command]...
//                [--trajectory FILE] [--tolerance F] [--label STR]
//                [--check] [--report-only] [--no-append]
//
// Exit codes: 0 ok, 1 error, 2 usage, 3 regression detected (--check).
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "util/ints.hpp"
#include "util/json.hpp"

namespace {

using namespace prcost;

struct Metric {
  std::string key;
  double value = 0;
};

// Depth-first flatten of numeric leaves: {"cache":{"hits":3}} under bench
// name "dse" becomes {"dse.cache.hits", 3}. Arrays flatten by index.
void flatten(const Json& j, const std::string& prefix,
             std::vector<Metric>& out) {
  if (j.is_number()) {
    out.push_back(Metric{prefix, j.as_double()});
  } else if (j.is_object()) {
    for (const auto& [key, value] : j.as_object()) {
      flatten(value, prefix + "." + key, out);
    }
  } else if (j.is_array()) {
    const auto& items = j.as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      flatten(items[i], prefix + "." + std::to_string(i), out);
    }
  }
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// +1 higher-better, -1 lower-better, 0 not a comparable metric (counts,
// sizes, and configuration echoes carry no regression signal).
int direction(const std::string& key) {
  // "speedup" is matched anywhere, not just as a suffix: the benches emit
  // "speedup_vs_bit_serial" / "speedup_vs_sliced", which a suffix match
  // silently skipped.
  if (key.find("per_sec") != std::string::npos ||
      key.find("speedup") != std::string::npos) {
    return 1;
  }
  if (ends_with(key, "_ns") || ends_with(key, "_ms") ||
      key.find("seconds_per") != std::string::npos) {
    return -1;
  }
  return 0;
}

// Capture a command's stdout; null when the command fails. Used both for
// --run benches and for asking git the current SHA.
std::optional<std::string> capture(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::string output;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    output.append(buffer, n);
  }
  if (pclose(pipe) != 0) return std::nullopt;
  return output;
}

std::string git_sha() {
  if (const char* env = std::getenv("PRCOST_GIT_SHA")) return env;
  if (auto out = capture("git rev-parse --short HEAD 2>/dev/null")) {
    while (!out->empty() && (out->back() == '\n' || out->back() == '\r')) {
      out->pop_back();
    }
    if (!out->empty()) return *out;
  }
  return "unknown";
}

std::string timestamp_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buffer;
}

std::string hostname() {
  char buffer[256] = {};
  if (gethostname(buffer, sizeof buffer - 1) != 0) return "unknown";
  return buffer;
}

std::string compiler_version() {
#if defined(__clang__)
  return std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
  return std::string{"gcc "} + __VERSION__;
#else
  return "unknown";
#endif
}

// The latest earlier value of every metric: each trajectory line
// overrides the keys it carries, so a bench's row is compared with that
// bench's previous row even when rows of other benches were appended in
// between. Null when no line has a metrics object. A malformed line
// (truncated write, merge artifact) is skipped with a warning rather than
// wedging --check.
std::optional<std::map<std::string, double>> previous_metrics(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  std::optional<std::map<std::string, double>> latest;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    Json entry;
    try {
      entry = Json::parse(lines[i]);
    } catch (const std::exception& e) {
      std::cerr << "warning: ignoring malformed "
                << (i + 1 == lines.size() ? std::string{"last entry"}
                                          : "entry " + std::to_string(i + 1))
                << " in " << path << " (" << e.what() << ")\n";
      continue;
    }
    const Json* metrics = entry.find("metrics");
    if (metrics == nullptr || !metrics->is_object()) continue;
    if (!latest) latest.emplace();
    for (const auto& [key, value] : metrics->as_object()) {
      if (value.is_number()) (*latest)[key] = value.as_double();
    }
  }
  return latest;
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --in NAME=PATH     ingest a bench JSON file under metric prefix"
         " NAME\n"
      << "  --run NAME=CMD     run CMD, parse its stdout as bench JSON\n"
      << "  --trajectory FILE  JSONL history file (default"
         " BENCH_trajectory.jsonl)\n"
      << "  --tolerance F      allowed fractional change (default 0.25)\n"
      << "  --label STR        free-form label stamped into the entry\n"
      << "  --check            exit 3 when any metric regressed\n"
      << "  --report-only      with --check: report regressions, exit 0\n"
      << "  --no-append        compare only; do not extend the trajectory\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::pair<std::string, std::string>> inputs;  // name -> path
  std::vector<std::pair<std::string, std::string>> runs;    // name -> cmd
  std::string trajectory = "BENCH_trajectory.jsonl";
  std::string label;
  double tolerance = 0.25;
  bool check = false;
  bool report_only = false;
  bool append = true;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string{argv[++i]};
    };
    const auto split_name = [](const std::string& v)
        -> std::optional<std::pair<std::string, std::string>> {
      const auto eq = v.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == v.size()) {
        return std::nullopt;
      }
      return std::pair{v.substr(0, eq), v.substr(eq + 1)};
    };
    if (flag == "--in" || flag == "--run") {
      const auto v = value();
      const auto pair = v ? split_name(*v) : std::nullopt;
      if (!pair) {
        std::cerr << flag << " needs NAME=VALUE\n";
        return usage(argv[0]);
      }
      (flag == "--in" ? inputs : runs).push_back(*pair);
    } else if (flag == "--trajectory") {
      const auto v = value();
      if (!v) return usage(argv[0]);
      trajectory = *v;
    } else if (flag == "--tolerance") {
      const auto v = value();
      if (!v) return usage(argv[0]);
      tolerance = std::stod(*v);
    } else if (flag == "--label") {
      const auto v = value();
      if (!v) return usage(argv[0]);
      label = *v;
    } else if (flag == "--check") {
      check = true;
    } else if (flag == "--report-only") {
      report_only = true;
    } else if (flag == "--no-append") {
      append = false;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return usage(argv[0]);
    }
  }
  if (inputs.empty() && runs.empty()) {
    std::cerr << "need at least one --in or --run\n";
    return usage(argv[0]);
  }

  std::vector<Metric> metrics;
  try {
    for (const auto& [name, path] : inputs) {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "error: cannot read " << path << "\n";
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      flatten(Json::parse(text.str()), name, metrics);
    }
    for (const auto& [name, command] : runs) {
      const auto output = capture(command);
      if (!output) {
        std::cerr << "error: command failed: " << command << "\n";
        return 1;
      }
      flatten(Json::parse(*output), name, metrics);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (metrics.empty()) {
    std::cerr << "error: no numeric metrics found in the inputs\n";
    return 1;
  }

  // ----------------------------------------------- compare vs previous --
  const auto previous = previous_metrics(trajectory);

  int regressions = 0;
  int compared = 0;
  for (const auto& metric : metrics) {
    const int dir = direction(metric.key);
    if (dir == 0 || !previous) continue;
    const auto prev = previous->find(metric.key);
    if (prev == previous->end()) continue;
    const double before = prev->second;
    if (before <= 0) continue;
    ++compared;
    const double change = (metric.value - before) / before;
    const bool regressed = dir > 0 ? change < -tolerance : change > tolerance;
    if (regressed) {
      ++regressions;
      std::printf("REGRESSION %-44s %12.4g -> %-12.4g (%+.1f%%, %s better)\n",
                  metric.key.c_str(), before, metric.value, change * 100,
                  dir > 0 ? "higher" : "lower");
    } else {
      std::printf("ok         %-44s %12.4g -> %-12.4g (%+.1f%%)\n",
                  metric.key.c_str(), before, metric.value, change * 100);
    }
  }
  if (!previous) {
    std::printf("no previous entry in %s; baseline only\n",
                trajectory.c_str());
  } else {
    std::printf("%d metric(s) compared, %d regression(s), tolerance %.0f%%\n",
                compared, regressions, tolerance * 100);
  }

  // ------------------------------------------------------------ append --
  if (append) {
    Json entry = Json::object();
    entry.set("ts", timestamp_utc());
    entry.set("git_sha", git_sha());
    entry.set("compiler", compiler_version());
    entry.set("host", hostname());
    if (!label.empty()) entry.set("label", label);
    Json flat = Json::object();
    for (const auto& metric : metrics) flat.set(metric.key, metric.value);
    entry.set("metrics", std::move(flat));
    std::ofstream out(trajectory, std::ios::app);
    if (!out) {
      std::cerr << "error: cannot append to " << trajectory << "\n";
      return 1;
    }
    out << entry.dump() << "\n";
    std::printf("appended entry to %s\n", trajectory.c_str());
  }

  if (check && regressions > 0 && !report_only) return 3;
  return 0;
}
