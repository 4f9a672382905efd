// Typed request/response layer of the library-first engine API.
//
// Each op in the op table (api/ops.hpp) is a plain struct in and a plain
// struct out, with request-from-JSON and response-to-JSON alongside, so
// the CLI, a batch stream, a serve connection, and an embedding
// partitioner/scheduler share one evaluation path. Every request default
// is written once, in the struct's member initializer: from-JSON
// overwrites only the members a request carries. Every response holds the
// domain result it reports (a SynthesisReport, PrrPlan, ParResult, event
// core Report, OptimizeResult, the catalog's Devices...) plus the few
// request echoes the wire carries; to_json and the CLI renderers read
// that result directly. The wire schema is documented in README.md
// ("Batch mode & the JSONL API").
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "dse/device_select.hpp"
#include "dse/explorer.hpp"
#include "multitask/simulator.hpp"
#include "netlist/netlist.hpp"
#include "obs/request_stats.hpp"
#include "opt/optimizer.hpp"
#include "par/par.hpp"
#include "sched/scheduler.hpp"
#include "synth/report.hpp"
#include "util/json.hpp"

namespace prcost::api {

/// Where a request's PRM comes from. Exactly one member is set; validate()
/// enforces that and throws UsageError otherwise.
struct PrmSource {
  std::string prm;           ///< built-in generator name ("fir", "mips"...)
  std::string netlist_path;  ///< .net file to load and synthesize
  std::string report_path;   ///< .srp synthesis report (no netlist => no PAR)

  void validate() const;     ///< throws UsageError unless exactly one is set
};

/// Construct a built-in PRM netlist by name; throws NotFoundError listing
/// the known names. The single source of truth for the generator catalog.
Netlist make_builtin_prm(const std::string& name);

/// Built-in PRM names, in canonical (usage-banner) order.
const std::vector<std::string>& builtin_prm_names();

/// "area" | "height" | "bitstream" -> objective; throws UsageError.
SearchObjective parse_objective(const std::string& name);

// ---------------------------------------------------------------- synth --

struct SynthRequest {
  PrmSource source;
  Family family = Family::kVirtex5;
};

struct SynthResponse {
  SynthesisReport report;
  /// Request-scoped telemetry; set only when Engine::Options::collect_stats
  /// (every response carries this optional; serialized last, so stats-off
  /// output is byte-identical to builds that predate it).
  std::optional<obs::RequestStatsSummary> stats;
};

// ----------------------------------------------------------------- plan --

struct PlanRequest {
  std::string device;        ///< part name (shorthands accepted)
  PrmSource source;
  SearchObjective objective = SearchObjective::kMinArea;
  bool shaped = false;       ///< also evaluate the L-shaped alternative
  /// Run the full-flow cross-checks (PAR when a netlist is available, and
  /// always a generated bitstream compared byte-wise against the model).
  bool cross_check = true;
};

/// L-shaped alternative summary (only when PlanRequest::shaped).
struct ShapedAlternative {
  bool beats_rectangle = false;
  u64 cells = 0;
  u64 bitstream_bytes = 0;
  u64 cells_saved = 0;       ///< vs the rectangular plan (0 when not better)
};

struct PlanResponse {
  std::string device;        ///< canonical part name
  PrrPlan plan;
  /// PAR cross-check (only when the netlist was synthesized here).
  std::optional<ParResult> par;
  std::optional<u64> generated_bytes;  ///< set when cross_check ran
  std::optional<ShapedAlternative> shaped;
  std::optional<obs::RequestStatsSummary> stats;  ///< see SynthResponse

  bool generated_matches_model() const {
    return generated_bytes && *generated_bytes == plan.bitstream.total_bytes;
  }
};

// ------------------------------------------------------------ bitstream --

struct BitstreamRequest {
  std::string device;
  PrmSource source;
};

struct BitstreamResponse {
  std::string device;
  Family family = Family::kVirtex5;
  PrrPlan plan;
  /// The generated partial bitstream. Shared with the process-wide
  /// bitstream cache when it is enabled (a warm response is a refcount
  /// bump, not a copy); always non-null after a successful request.
  std::shared_ptr<const std::vector<u32>> words;
  u64 total_bytes = 0;       ///< words serialized at traits.bytes_word
  std::optional<obs::RequestStatsSummary> stats;  ///< see SynthResponse
};

// -------------------------------------------------------------- explore --

struct ExploreRequest {
  std::string device;
  std::vector<std::string> prms;  ///< built-in PRM names (>= 2)
  std::size_t workers = 0;        ///< 0 = engine default
  u32 max_groups = 0;             ///< cap PRR count (0 = #PRMs)
  u32 tasks = 100;                ///< workload size (CLI default)
  u64 seed = 42;                  ///< workload seed
  /// Generate the bitstream of every distinct Pareto-front PRR plan (in
  /// parallel, through the bitstream cache) and compare each generated
  /// size against the Eq. (18) model prediction.
  bool cross_check = false;
};

/// Bitstream cross-check summary (only when ExploreRequest::cross_check).
struct ExploreBitstreamCheck {
  u64 plans_checked = 0;  ///< distinct Pareto-front PRR plans generated
  bool all_match = true;  ///< every generated size == model prediction
};

struct ExploreResponse {
  std::string device;
  std::vector<std::string> prms;
  std::vector<DesignPoint> points;
  std::size_t pareto_count = 0;
  std::optional<ExploreBitstreamCheck> bitstream_check;
  std::optional<obs::RequestStatsSummary> stats;  ///< see SynthResponse
};

// ----------------------------------------------------------------- rank --

struct RankRequest {
  std::vector<std::string> prms;  ///< built-in PRM names (>= 1)
  std::size_t workers = 0;
  u32 tasks = 100;
  u64 seed = 42;
};

struct RankResponse {
  std::vector<DeviceChoice> choices;  ///< sorted as rank_devices returns
  std::optional<obs::RequestStatsSummary> stats;  ///< see SynthResponse
};

// --------------------------------------------------------------- faults --

/// Fault-injection run over the multitask simulator: size one PRR per
/// built-in PRM, run the seeded workload with a deterministic
/// FaultInjector on every context switch, and report the degradation and
/// retry accounting. Optional fields fall back to Engine::Options.
struct FaultsRequest {
  std::string device;
  std::vector<std::string> prms;  ///< built-in PRM names (>= 1)
  u32 prr_count = 2;
  u32 tasks = 100;                ///< workload size
  u64 seed = 42;                  ///< workload seed
  std::optional<double> fault_rate;   ///< unset = engine default
  std::optional<double> stall_rate;   ///< unset = engine default
  std::optional<u64> fault_seed;      ///< unset = engine default
  std::optional<u32> max_retries;     ///< unset = engine default
  std::string media = "ddr";
  std::string recovery = "drop";      ///< "drop" | "reschedule"
  /// Fail the whole request (FaultError) when any task is dropped.
  bool strict = false;
};

struct FaultsResponse {
  std::string device;
  double fault_rate = 0;     ///< effective (post-default) rate
  u64 fault_seed = 0;        ///< effective injector seed
  u32 max_retries = 0;       ///< effective retry budget
  u64 injected_faults = 0;   ///< corrupted attempts drawn by the injector
  u64 injected_stalls = 0;
  SimResult report;          ///< the simulator's run under the injector
  std::optional<obs::RequestStatsSummary> stats;  ///< see SynthResponse

  /// Mean effective seconds per successful reconfiguration, including
  /// retry, backoff, and wasted-attempt time (0 when none succeeded).
  double effective_reconfig_s() const {
    return report.reconfig_count != 0
               ? report.total_reconfig_s /
                     static_cast<double>(report.reconfig_count)
               : 0.0;
  }
};

// ------------------------------------------------------------- optimize --

/// Joint partition-schedule-floorplan optimization (src/opt): group the
/// PRM fleet into shared PRRs, place them on the occupancy grid, and
/// anneal swap/relocate/resize/compact moves against the greedy baseline,
/// costing every move through the bitstream (Eq. 18-23), reconfiguration,
/// and fault-retry models. Either list built-in PRMs or set `prm_count`
/// for a deterministic synthetic fleet at bench scale.
struct OptimizeRequest {
  std::string device;
  std::vector<std::string> prms;  ///< built-in names; empty => synthetic
  u32 prm_count = 0;              ///< synthetic fleet size (prms empty)
  u32 groups = 0;                 ///< shared PRRs (0 = auto)
  u64 seed = 1;                   ///< fleet + annealer seed
  u32 rounds = 48;                ///< annealing rounds
  u32 proposals_per_round = 8;    ///< speculative proposals per round
  std::string media = "ddr";      ///< bitstream storage media
  std::optional<double> fault_rate;  ///< unset = engine default
  std::optional<u32> max_retries;    ///< unset = engine default
  std::size_t workers = 0;        ///< parallel evaluation width
};

struct OptimizeResponse {
  std::string device;
  u32 prm_count = 0;
  u32 group_count = 0;
  u64 seed = 0;
  /// Greedy baseline (index-order placement, no moves) and the annealed
  /// layout, with the move accounting.
  opt::OptimizeResult result;
  /// Every placed plan's generated bitstream (through the bitstream
  /// cache) matched its Eq. 18 model size.
  bool bitstream_verified = false;
  std::optional<obs::RequestStatsSummary> stats;  ///< see SynthResponse
};

// ------------------------------------------------------------- schedule --

/// Online-scheduler run (src/sched): place `slots` shared PRR slots with
/// the floorplanner, then drive the event-driven runtime over a synthetic
/// arrival process or a replayed JSONL trace, pricing every placement
/// through the controller + fault-retry models. Optional fields fall back
/// to Engine::Options.
struct ScheduleRequest {
  std::string device;
  std::vector<std::string> prms;  ///< built-in PRM names (>= 1)
  u32 slots = 2;                  ///< PRR slots (floorplanner-placed)
  std::string policy = "fcfs";    ///< "fcfs" | "priority" | "edf"
  /// Arrival source: "poisson" | "bursty" | "trace" (replay `trace`).
  std::string workload = "poisson";
  std::string trace;              ///< JSONL trace text (workload "trace")
  u32 tasks = 100;                ///< synthetic workload size
  u64 seed = 42;                  ///< synthetic workload seed
  double mean_interarrival_s = 2.0e-3;
  double mean_exec_s = 5.0e-3;
  /// Relative deadline factor for synthetic tasks (0 = no deadlines).
  double deadline_factor = 0.0;
  std::string media = "flash";    ///< cold media (bitstream store)
  std::string warm_media = "ddr"; ///< media after a prefetch staged it
  /// Prefetch when a PRM's EWMA arrival-rate estimate reaches this (Hz);
  /// 0 disables prefetch.
  double prefetch_rate_hz = 0.0;
  std::optional<double> fault_rate;  ///< unset = engine default
  std::optional<u32> max_retries;    ///< unset = engine default
  u32 cpu_workers = 2;            ///< CPU-fallback pool (0 = no fallback)
  double cpu_slowdown = 8.0;      ///< software/hardware exec-time ratio
  bool detail = false;            ///< include per-task outcomes
};

struct ScheduleResponse {
  std::string device;
  sched::Policy policy = sched::Policy::kFcfs;
  u32 slot_count = 0;        ///< slots actually placed on the fabric
  u32 prm_count = 0;
  double fault_rate = 0;     ///< effective (post-default) rate
  bool detail = false;       ///< serialize the per-task outcomes
  /// The arrival stream the run used; report.tasks[i] is tasks[i]'s outcome.
  std::vector<sched::Task> tasks;
  sched::Report report;
  std::optional<obs::RequestStatsSummary> stats;  ///< see SynthResponse
};

// -------------------------------------------------------------- devices --

struct DevicesResponse {
  /// The process-wide catalog (DeviceDb::instance(), which outlives every
  /// response), in catalog order.
  std::span<const Device> devices;
  std::optional<obs::RequestStatsSummary> stats;  ///< see SynthResponse
};

// --------------------------------------------------- JSON (de)serialization

SynthRequest synth_request_from_json(const Json& j);
PlanRequest plan_request_from_json(const Json& j);
BitstreamRequest bitstream_request_from_json(const Json& j);
ExploreRequest explore_request_from_json(const Json& j);
RankRequest rank_request_from_json(const Json& j);
FaultsRequest faults_request_from_json(const Json& j);
OptimizeRequest optimize_request_from_json(const Json& j);
ScheduleRequest schedule_request_from_json(const Json& j);

/// Stats block serialization (the "stats" member on every response):
/// {"wall_ms":..,"cache":{"plan_hits":..,"plan_misses":..,
///  "bitstream_hits":..,"bitstream_misses":..},"retries":..,
///  "allocations":..,"phases":[{"name":..,"count":..,"total_ms":..,
///  "self_ms":..,"max_ms":..},...]}.
Json to_json(const obs::RequestStatsSummary& s);

Json to_json(const SynthResponse& r);
Json to_json(const PlanResponse& r);
Json to_json(const BitstreamResponse& r);
Json to_json(const ExploreResponse& r);
Json to_json(const RankResponse& r);
Json to_json(const DevicesResponse& r);
Json to_json(const FaultsResponse& r);
Json to_json(const OptimizeResponse& r);
Json to_json(const ScheduleResponse& r);

}  // namespace prcost::api
