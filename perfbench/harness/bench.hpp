// Shared types of the prcost benchmark harness.
//
// The harness generates one workload's request lines from a seed, runs
// them closed-loop through the prcost libraries (in-process through
// api::dispatch_line, or over a Unix socket to an in-process
// serve::Server), checks every answer, and reports end-to-end metrics
// (untraced run) or per-layer metrics (traced run). See perfbench/NOTES.md.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "util/ints.hpp"
#include "util/json.hpp"

namespace prbench {

using prcost::Json;
using prcost::u32;
using prcost::u64;

inline u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One distinct request line and what a correct answer looks like.
struct Request {
  std::string op;      ///< "plan", "bitstream", "schedule", ...
  std::string line;    ///< the JSONL request
  std::string expect;  ///< "" = a result envelope; else the error code
  u64 tasks = 0;       ///< requested tasks (schedule/faults)
};

/// A generated workload: distinct lines plus the order they are issued in.
struct Workload {
  std::string name;
  std::vector<Request> distinct;
  /// Indices into `distinct`, issued in this order. Continuous workloads
  /// cycle through it; cold-round workloads issue it once per round.
  std::vector<u32> sequence;
  /// Clear the plan and bitstream caches before every round, so each
  /// round sees cold caches (design_cold).
  bool cold_rounds = false;
  /// Requests travel over a serve::Server socket; the server and its
  /// clients then run on one vCPU.
  bool socket = false;
  u32 callers = 4;      ///< closed-loop caller threads / connections
  /// Files written at set-up (path, contents).
  std::vector<std::pair<std::string, std::string>> files;
};

/// Build the named workload for `seed`; `toy` shrinks it to a few dozen
/// requests for the self-check. Files land under `work_dir`. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, u64 seed, bool toy,
                       const std::string& work_dir);

/// Write the workload's input files (part of set-up).
void write_files(const Workload& workload);

// ------------------------------------------------------------ checking --

/// Checks every answer. The first answer to each distinct line gets the
/// full semantic check and is kept; every later answer to the same line,
/// from any caller, path (socket or in-process) or pass (untraced or
/// traced), must equal it byte for byte.
class Checker {
 public:
  explicit Checker(const Workload& workload);

  /// True when `answer` is correct for distinct line `index`.
  bool check(u32 index, const std::string& answer);

  /// First answers, by distinct index ("" when never answered).
  std::vector<std::string> first_answers() const;
  u64 failures() const;
  /// Sum over checked plan/bitstream answers of |generated - model| bytes.
  u64 model_mismatch_bytes() const;

 private:
  struct Slot {
    std::mutex mu;
    bool answered = false;
    bool ok = false;
    std::string answer;
  };
  bool full_check(const Request& request, const std::string& answer);
  void fail(const Request& request, const std::string& why);

  const Workload* workload_;
  std::vector<std::unique_ptr<Slot>> slots_;
  mutable std::mutex mu_;
  u64 failures_ = 0;
  u64 mismatch_bytes_ = 0;
  u32 reported_ = 0;
};

/// Simulated-time totals over the workload's distinct answers: schedule
/// (reconfiguration seconds, tasks, misses and the other counts), faults
/// (tasks, transfers, retries) and optimize (proposals, accepted).
struct ModelTotals {
  double reconfig_s = 0;
  u64 tasks = 0;
  u64 deadline_misses = 0;
  u64 reconfigs = 0;
  u64 reuse_hits = 0;
  u64 prefetches = 0;
  u64 cpu_fallbacks = 0;
  u64 faults_tasks = 0;
  u64 transfers = 0;
  u64 retries = 0;
  u64 proposals = 0;
  u64 accepted = 0;
};
ModelTotals model_totals(const Workload& workload,
                         const std::vector<std::string>& answers);

/// The envelope with its result's "stats" member removed (moved into
/// `stats_out`): what the same request answers with stats collection off.
Json strip_stats(const Json& envelope, Json* stats_out);

// ------------------------------------------------------------- running --

/// Closed-loop pass limits: run until `seconds` elapsed and at least
/// `min_requests` were issued, or exactly `exact` requests when non-zero.
struct PassLimit {
  double seconds = 0;
  u64 min_requests = 0;
  u64 exact = 0;
};

/// Windows a timed pass is cut into (see `windowed` in main.cpp).
constexpr u32 kWindows = 10;

/// Histogram of latencies in ns: exact below 1024 ns, then 512 buckets
/// per power of two (0.2 % wide) up to 2^32 ns, where samples saturate.
/// Its size is fixed, so recording a sample allocates nothing and the
/// memory a pass holds does not grow with the number of requests served.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(u64 ns);
  void merge(const LatencyHistogram& other);
  u64 count() const { return count_; }
  u64 sum_ns() const { return sum_ns_; }
  /// Nearest-rank percentile (q in [0, 1]) in ns, interpolated linearly
  /// across the bucket that holds the rank; 0 when empty.
  double percentile(double q) const;

 private:
  std::vector<u32> counts_;
  u64 count_ = 0;
  u64 sum_ns_ = 0;
};

/// One pass's accounting. Caller-side latencies (issue to holding the
/// whole answer) are kept per window of pass time, whose clock skips the
/// gaps between cold rounds. A pass with a time limit has kWindows windows
/// of limit.seconds / kWindows (the last one runs to the end of the pass);
/// any other pass has one.
struct PassResult {
  u64 sent = 0;
  u64 succeeded = 0;
  u64 failed = 0;
  double wall_s = 0;
  double window_s = 0;
  std::vector<LatencyHistogram> latency;  ///< per window
  std::vector<u64> succeeded_in;          ///< per window

  LatencyHistogram all_latencies() const;  ///< every window's, merged
};

/// Sends the request at `position` of the pass (the line is
/// workload.distinct[order[position % order.size()]]) from caller
/// `caller` and returns the answer line.
using Issue = std::function<std::string(u32 caller, u64 position)>;

/// Run `order` closed-loop from `callers` threads, checking every answer.
/// Cold-round workloads issue `order` in whole rounds and clear the plan
/// and bitstream caches before each round (outside the timed wall).
PassResult run_pass(const Workload& workload, const std::vector<u32>& order,
                    Checker& checker, u32 callers, const Issue& issue,
                    const PassLimit& limit);

// ------------------------------------------------------------- tracing --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// In-memory span recorder for the traced run. Each caller thread owns a
/// span list (name, start, end, parent span, request id); the lists are
/// exported as Chrome trace-event JSON when the run ends. Spans nest per
/// thread; past `keep` spans a thread's spans are still timed but no
/// longer stored.
class SpanLog {
 public:
  static constexpr std::size_t kNotKept = ~std::size_t{0};

  SpanLog(u32 threads, std::size_t keep);
  /// Open a span on caller `thread`; returns its handle (kNotKept when the
  /// thread's list is full).
  std::size_t open(u32 thread, const char* name, u64 request);
  /// Close the thread's innermost open span; returns its duration in ns.
  u64 close(u32 thread);
  /// Engine phases (the answer's stats.phases) attached to a kept span.
  void attach(u32 thread, std::size_t handle, Json phases);
  /// Chrome trace-event JSON ({"traceEvents":[...]}, "X" events).
  std::string chrome_json() const;

 private:
  struct Span {
    const char* name = nullptr;
    u64 start_ns = 0;
    u64 end_ns = 0;
    u64 request = 0;
    std::size_t parent = kNotKept;
  };
  struct Open {
    u64 start_ns = 0;
    std::size_t handle = kNotKept;
  };
  struct Thread {
    std::vector<Span> spans;
    std::vector<Open> stack;
    std::map<std::size_t, Json> phases;  ///< by span handle
  };
  std::vector<Thread> threads_;
  std::size_t keep_;
};

/// The traced in-process path: Json::parse, api::dispatch_request on an
/// Engine that collects request stats, Json::dump, each in a span, with
/// the engine's phases folded into per-layer totals.
class TracedDispatch {
 public:
  TracedDispatch(const Workload& workload, const std::vector<u32>& order,
                 const prcost::api::Engine& stats_engine, u32 callers);
  std::string operator()(u32 caller, u64 position);

  /// Per-layer metrics of everything dispatched so far. `wall_s` is the
  /// traced pass's wall time (for the self-time coverage); `untraced_ns`
  /// is the summed latency of the same requests through
  /// api::dispatch_line + dump on an engine without stats (the reference
  /// for the tracing overhead).
  void add_metrics(std::vector<Metric>& out, double wall_s,
                   u64 untraced_ns) const;
  const SpanLog& log() const { return log_; }

 private:
  struct Phase {
    u64 count = 0;
    u64 total_ns = 0;
  };
  struct Acc {
    std::map<std::string, LatencyHistogram> dispatch_ns;  ///< per op
    std::map<std::string, Phase> phases;
    std::map<std::string, u64> layer_self_ns;
    u64 requests = 0;
    u64 parse_ns = 0;
    u64 dump_ns = 0;
    u64 answer_bytes = 0;
    u64 generated_words = 0;
    u64 generate_ns = 0;
    u64 faults_sim_ns = 0;
    u64 faults_tasks = 0;
    u64 sched_run_ns = 0;
    u64 sched_tasks = 0;
    u64 explore_points = 0;
    u64 explore_ns = 0;
    u64 traced_ns = 0;  ///< parse + dispatch + dump, with tracing on
  };
  void fold(Acc& acc, const Request& request, const Json& result,
            const Json& stats, u64 dispatch_ns, u64 parse_ns);

  const Workload* workload_;
  const std::vector<u32>* order_;
  const prcost::api::Engine* engine_;
  SpanLog log_;
  std::vector<Acc> accs_;
  u32 callers_;
};

/// Probes that time a module's public function on the workload's own
/// inputs, for work no request-level span isolates.
double probe_floorplan_us(const Workload& workload);
double probe_crc_gbps(const Workload& workload);
double probe_arrivals_us_per_task(const Workload& workload);

}  // namespace prbench
