// Engine: the library-first facade over the whole evaluation path.
//
// One Engine owns the process-wide machinery every request needs - the
// device catalog, the PRR plan cache, the persistent parallel_for worker
// pool, and the observability registry - and exposes each paper workflow
// as a typed request -> typed response call. The CLI commands and the
// JSONL batch and serve front-ends (all through the op table, api/ops.hpp),
// and embedding consumers (partitioners, schedulers, services) all go through
// the same nine calls, so device lookup, synthesis-report loading, and
// error mapping live in exactly one place. The process-wide plan cache is
// switched with set_plan_cache_enabled; constructing an Engine leaves it as
// set. The bitstream cache is always on.
//
// Failures are reported through the structured taxonomy in
// util/error.hpp: UsageError for malformed requests, NotFoundError for
// unknown devices/PRMs, IoError for unreadable files, InfeasibleError
// when no PRR fits, ParseError for malformed file/JSON content.
#pragma once

#include <cstddef>

#include "api/requests.hpp"
#include "device/device_db.hpp"
#include "obs/metrics.hpp"

namespace prcost::api {

class Engine {
 public:
  struct Options {
    /// Default worker count for explore/rank and batch dispatch when the
    /// request leaves its own `workers` at 0 (0 = one per hardware thread).
    std::size_t workers = 0;
    /// Fault-environment defaults for faults() requests that leave the
    /// corresponding optional unset. fault_rate 0 (the default) keeps
    /// every other workflow byte-identical to a fault-free build.
    double fault_rate = 0.0;
    double stall_rate = 0.0;
    u64 fault_seed = 0x5EED;
    u32 max_retries = 3;
    /// Collect request-scoped telemetry (obs::RequestStats) around every
    /// engine call and attach it as the response's optional `stats` block.
    /// Off by default: responses (and their serialization) are then
    /// byte-identical to builds without the feature.
    bool collect_stats = false;
    /// Directory for persistent warm-start snapshots of the plan and
    /// bitstream caches (empty = feature off). Construction loads any
    /// snapshots found there; missing or corrupt snapshots cold-start
    /// cleanly (results are identical either way - the snapshots only
    /// pre-warm memoization). save_caches() writes them back.
    std::string cache_dir;
  };

  Engine();  ///< default Options
  explicit Engine(const Options& options);

  const Options& options() const noexcept { return options_; }

  /// The device catalog this engine evaluates against.
  const DeviceDb& devices() const noexcept { return DeviceDb::instance(); }

  /// The metrics registry populated by the instrumented hot paths.
  obs::Registry& metrics() const noexcept { return obs::registry(); }

  /// Synthesize a PRM and return the Table I report.
  SynthResponse synth(const SynthRequest& request) const;

  /// Size a PRR for one PRM on one device (Fig. 1 flow), with optional
  /// full-flow cross-checks; throws InfeasibleError when nothing fits.
  PlanResponse plan(const PlanRequest& request) const;

  /// Plan + generate the concrete partial bitstream words.
  BitstreamResponse bitstream(const BitstreamRequest& request) const;

  /// Evaluate every partitioning of the PRMs on one device.
  ExploreResponse explore(const ExploreRequest& request) const;

  /// Rank the whole catalog for a PRM set.
  RankResponse rank(const RankRequest& request) const;

  /// Multitask simulation under deterministic fault injection: CRC-verified
  /// transfers with bounded retry, graceful degradation on permanent
  /// failure. Throws FaultError when `strict` and any task was dropped.
  FaultsResponse faults(const FaultsRequest& request) const;

  /// Joint partition-schedule-floorplan optimization (src/opt): greedy
  /// baseline vs simulated annealing over swap/relocate/resize/compact
  /// moves, every candidate costed through the bitstream, reconfiguration
  /// and fault-retry models. Throws UsageError when neither `prms` nor
  /// `prm_count` describes a fleet.
  OptimizeResponse optimize(const OptimizeRequest& request) const;

  /// Online event-driven scheduling (src/sched): place the requested PRR
  /// slots with the floorplanner, then run the priority ready-queue
  /// runtime over a synthetic or replayed arrival stream, pricing every
  /// reconfiguration through the controller + fault-retry models, with
  /// arrival-rate-triggered bitstream prefetch into the process-wide
  /// bitstream cache and CPU fallback for deadline-infeasible placements.
  /// Throws InfeasibleError when no slot fits on the fabric.
  ScheduleResponse schedule(const ScheduleRequest& request) const;

  /// The catalog, summarized row-per-device.
  DevicesResponse list_devices() const;

  /// Write the plan + bitstream cache snapshots into options().cache_dir
  /// (created if absent). No-op when cache_dir is empty. Throws IoError
  /// when the directory or files cannot be written.
  void save_caches() const;

 private:
  void load_caches() const;

  const Device& resolve_device(const std::string& name) const;
  std::size_t effective_workers(std::size_t requested) const;

  Options options_;
};

}  // namespace prcost::api
