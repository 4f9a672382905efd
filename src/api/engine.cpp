#include "api/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <sstream>
#include <tuple>
#include <utility>

#include "api/deadline.hpp"
#include "bitstream/bitstream_cache.hpp"
#include "cost/floorplan.hpp"
#include "cost/plan_cache.hpp"
#include "cost/shaped_prr.hpp"
#include "multitask/simulator.hpp"
#include "multitask/workload.hpp"
#include "sched/generators.hpp"
#include "sched/scheduler.hpp"
#include "netlist/serialize.hpp"
#include "obs/obs.hpp"
#include "opt/optimizer.hpp"
#include "par/par.hpp"
#include "reconfig/faults.hpp"
#include "synth/synthesizer.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace prcost::api {
namespace {

std::string slurp(const std::string& path, const char* what) {
  std::ifstream in{path};
  if (!in) throw IoError{std::string{"cannot open "} + what + " file"};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Read and parse a user's netlist file under one span, so the read shows
/// as a phase of its request.
Netlist read_netlist(const std::string& path) {
  PRCOST_TRACE_SPAN("netlist_read");
  return netlist_from_text(slurp(path, "netlist"));
}

/// Model input plus, when we synthesized it ourselves, the mapped netlist
/// (used by plan's PAR cross-check).
struct PlanInput {
  PrmRequirements req;
  std::optional<SynthesisResult> synth;
};

/// Process-wide memo of built-in PRM synthesis requirements. Synthesis of
/// a named generator is a pure function of (name, family), yet every
/// plan/bitstream/explore request used to re-run it — tens of thousands of
/// heap allocations per request even when the plan cache already had the
/// answer. The warm lookup is a shared-lock linear scan over a handful of
/// entries comparing string content; it allocates nothing, which the
/// zero-alloc request test depends on.
PrmRequirements builtin_requirements(const std::string& name, Family family) {
  struct Entry {
    Family family;
    std::string name;
    PrmRequirements req;
  };
  static std::shared_mutex mu;
  static std::vector<Entry> entries;
  {
    const std::shared_lock lock{mu};
    for (const Entry& entry : entries) {
      if (entry.family == family && entry.name == name) return entry.req;
    }
  }
  // Miss: synthesize outside any lock (throws NotFoundError for unknown
  // names before anything is cached), then publish. Duplicated concurrent
  // misses insert duplicate-but-identical entries; the scan still returns
  // the right requirements.
  const SynthesisResult result =
      synthesize(make_builtin_prm(name), SynthOptions{family});
  const PrmRequirements req = PrmRequirements::from_report(result.report);
  const std::unique_lock lock{mu};
  entries.push_back(Entry{family, name, req});
  return req;
}

/// `need_synth`: the caller wants the mapped netlist (plan --cross-check
/// runs PAR on it); otherwise builtin sources resolve through the
/// requirements memo and skip synthesis entirely on the warm path.
PlanInput load_plan_input(const PrmSource& source, Family family,
                          bool need_synth = false) {
  source.validate();
  if (!source.netlist_path.empty()) {
    SynthesisResult result =
        synthesize(read_netlist(source.netlist_path), SynthOptions{family});
    PrmRequirements req = PrmRequirements::from_report(result.report);
    return PlanInput{req, std::move(result)};
  }
  if (!source.report_path.empty()) {
    return PlanInput{PrmRequirements::from_report(
                         parse_report(slurp(source.report_path, "report"))),
                     std::nullopt};
  }
  if (!need_synth) {
    return PlanInput{builtin_requirements(source.prm, family), std::nullopt};
  }
  SynthesisResult result =
      synthesize(make_builtin_prm(source.prm), SynthOptions{family});
  PrmRequirements req = PrmRequirements::from_report(result.report);
  return PlanInput{req, std::move(result)};
}

/// Resolve each named built-in PRM for `family` into a PrmInfo table
/// (through the requirements memo: one synthesis per distinct name ever).
std::vector<PrmInfo> synthesize_prms(const std::vector<std::string>& names,
                                     Family family) {
  std::vector<PrmInfo> prms;
  prms.reserve(names.size());
  for (const std::string& name : names) {
    prms.push_back(PrmInfo{name, builtin_requirements(name, family), 0});
  }
  return prms;
}

/// The seeded synthetic workload explore, rank and faults run: `tasks`
/// tasks over `prm_count` PRMs.
std::vector<HwTask> seeded_workload(u32 tasks, std::size_t prm_count,
                                    u64 seed) {
  WorkloadParams wp;
  wp.count = tasks;
  wp.prm_count = narrow<u32>(prm_count);
  wp.seed = seed;
  return make_workload(wp);
}

/// Size each PRM's own smallest PRR on `device` and price the PRM at that
/// plan's Eq. 18-23 bitstream bytes; returns the plans in PRM order.
/// Throws InfeasibleError naming the first PRM that fits nowhere.
std::vector<PrrPlan> price_prms(std::vector<PrmInfo>& prms,
                                const Device& device) {
  std::vector<PrrPlan> plans;
  plans.reserve(prms.size());
  for (PrmInfo& prm : prms) {
    const auto plan = find_prr(prm.req, device.fabric);
    if (!plan) {
      throw InfeasibleError{"no feasible PRR for '" + prm.name + "' on " +
                            device.name};
    }
    prm.bitstream_bytes = plan->bitstream.total_bytes;
    plans.push_back(*plan);
  }
  return plans;
}

/// A schedule request's arrival stream over `prm_count` PRMs: the replayed
/// trace, or the seeded Poisson or bursty generator. Throws UsageError on
/// an unknown workload, a trace workload without trace text, or a trace
/// task naming a PRM index past `prm_count`.
std::vector<sched::Task> arrival_stream(const ScheduleRequest& request,
                                        std::size_t prm_count) {
  if (request.workload == "trace") {
    if (request.trace.empty()) {
      throw UsageError{"schedule workload 'trace' needs trace text"};
    }
    std::vector<sched::Task> tasks = sched::parse_trace(request.trace);
    for (const sched::Task& task : tasks) {
      if (task.prm >= prm_count) {
        throw UsageError{"trace task '" + task.name +
                         "' references unknown PRM index " +
                         std::to_string(task.prm)};
      }
    }
    return tasks;
  }
  if (request.workload != "poisson" && request.workload != "bursty") {
    throw UsageError{"unknown workload '" + request.workload +
                     "' (known: poisson bursty trace)"};
  }
  sched::ArrivalParams params;
  params.count = request.tasks;
  params.prm_count = narrow<u32>(prm_count);
  params.mean_interarrival_s = request.mean_interarrival_s;
  params.mean_exec_s = request.mean_exec_s;
  params.deadline_factor = request.deadline_factor;
  params.seed = request.seed;
  return request.workload == "poisson" ? sched::make_poisson(params)
                                       : sched::make_bursty(params);
}

/// Byte size of `plan`'s generated partial bitstream, through the
/// process-wide bitstream cache.
u64 generated_bytes(const PrrPlan& plan, const Fabric& fabric) {
  return generate_bitstream_cached(plan, fabric.family())->size() *
         fabric.traits().bytes_word;
}

}  // namespace

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(const Options& options) : options_(options) {
  if (!options_.cache_dir.empty()) load_caches();
}

void Engine::load_caches() const {
  // Warm-start is best-effort by contract: a snapshot only pre-warms
  // memoization, so a missing, unreadable, or corrupt file degrades to
  // the ordinary cold start instead of failing the Engine.
  const std::filesystem::path dir{options_.cache_dir};
  const auto load = [](const char* name, auto loader, const std::string& path) {
    std::error_code ignored;
    if (!std::filesystem::exists(path, ignored)) return;
    try {
      loader(path);
    } catch (const Error& error) {
      PRCOST_COUNT("snapshot.load_failures");
      log_warn(name, " snapshot ignored: ", error.what());
    }
  };
  load("plan cache", plan_cache_load, (dir / "plan_cache.snap").string());
  load("bitstream cache", bitstream_cache_load,
       (dir / "bitstream_cache.snap").string());
}

void Engine::save_caches() const {
  if (options_.cache_dir.empty()) return;
  const std::filesystem::path dir{options_.cache_dir};
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) {
    throw IoError{"cannot create cache dir '" + dir.string() +
                  "': " + error.message()};
  }
  plan_cache_save((dir / "plan_cache.snap").string());
  bitstream_cache_save((dir / "bitstream_cache.snap").string());
}

const Device& Engine::resolve_device(const std::string& name) const {
  if (name.empty()) throw UsageError{"request needs a device"};
  return devices().get(name);
}

std::size_t Engine::effective_workers(std::size_t requested) const {
  return requested != 0 ? requested : options_.workers;
}

SynthResponse Engine::synth(const SynthRequest& request) const {
  const obs::RequestScope scope{options_.collect_stats};
  if (request.source.prm.empty() && request.source.netlist_path.empty()) {
    throw UsageError{"synth needs a PRM"};
  }
  request.source.validate();
  const Netlist design =
      request.source.prm.empty()
          ? read_netlist(request.source.netlist_path)
          : make_builtin_prm(request.source.prm);
  SynthResponse response;
  response.report = synthesize(design, SynthOptions{request.family}).report;
  response.stats = scope.finish();
  return response;
}

PlanResponse Engine::plan(const PlanRequest& request) const {
  const obs::RequestScope scope{options_.collect_stats};
  const Device& device = resolve_device(request.device);
  PlanInput input = load_plan_input(request.source, device.fabric.family(),
                                    /*need_synth=*/request.cross_check);

  check_deadline("plan.input");
  SearchOptions options;
  options.objective = request.objective;
  const auto plan = find_prr(input.req, device.fabric, options);
  if (!plan) throw InfeasibleError{"no feasible PRR on " + device.name};
  check_deadline("plan.search");

  PlanResponse response;
  response.device = device.name;
  response.plan = *plan;

  if (request.cross_check) {
    // Full-flow cross-checks: place & route into the chosen PRR (when the
    // netlist came from our own synthesis) and a generated bitstream whose
    // byte size must match the model prediction.
    if (input.synth) {
      response.par = place_and_route(std::move(input.synth->netlist), *plan,
                                     device.fabric, ParOptions{});
    }
    response.generated_bytes = generated_bytes(*plan, device.fabric);
  }

  if (request.shaped) {
    const auto shaped = find_l_shaped_prr(input.req, device.fabric);
    ShapedAlternative alt;
    if (shaped && shaped->shape.size() < plan->organization.size()) {
      alt.beats_rectangle = true;
      alt.cells = shaped->shape.size();
      alt.bitstream_bytes = shaped->bitstream.total_bytes;
      alt.cells_saved = plan->organization.size() - shaped->shape.size();
    }
    response.shaped = alt;
  }
  response.stats = scope.finish();
  return response;
}

BitstreamResponse Engine::bitstream(const BitstreamRequest& request) const {
  const obs::RequestScope scope{options_.collect_stats};
  const Device& device = resolve_device(request.device);
  const PrmRequirements req =
      load_plan_input(request.source, device.fabric.family()).req;
  check_deadline("bitstream.input");
  const auto plan = find_prr(req, device.fabric);
  if (!plan) throw InfeasibleError{"no feasible PRR on " + device.name};
  check_deadline("bitstream.search");

  BitstreamResponse response;
  response.device = device.name;
  response.family = device.fabric.family();
  response.plan = *plan;
  // Shared view of the cached words: a warm hit is a refcount bump, not a
  // vector copy.
  response.words = generate_bitstream_cached(*plan, response.family);
  response.total_bytes = static_cast<u64>(response.words->size()) *
                         device.fabric.traits().bytes_word;
  response.stats = scope.finish();
  return response;
}

ExploreResponse Engine::explore(const ExploreRequest& request) const {
  const obs::RequestScope scope{options_.collect_stats};
  if (request.prms.size() < 2) {
    throw UsageError{"explore needs at least two PRMs"};
  }
  const Device& device = resolve_device(request.device);
  const std::vector<PrmInfo> prms =
      synthesize_prms(request.prms, device.fabric.family());
  check_deadline("explore.synth");

  ExploreOptions options;
  options.workers = effective_workers(request.workers);
  options.max_groups = request.max_groups;

  ExploreResponse response;
  response.device = device.name;
  response.prms = request.prms;
  response.points = prcost::explore(
      prms, device.fabric,
      seeded_workload(request.tasks, prms.size(), request.seed), options);
  const std::vector<DesignPoint> front = pareto_front(response.points);
  response.pareto_count = front.size();
  check_deadline("explore.sweep");

  if (request.cross_check) {
    // Generate the bitstream of every distinct Pareto-front PRR plan (the
    // plans a designer would act on) and compare each generated size
    // against the Eq. (18) prediction. Independent generations fan out
    // over the worker pool and land in the process-wide bitstream cache.
    ScratchScope scratch;
    using PlanKey = std::tuple<u32, u32, u32, u32, u32, u32>;
    std::set<PlanKey, std::less<PlanKey>, ArenaAllocator<PlanKey>> seen{
        ArenaAllocator<PlanKey>{scratch.arena()}};
    std::vector<const PrrPlan*, ArenaAllocator<const PrrPlan*>> plans{
        ArenaAllocator<const PrrPlan*>{scratch.arena()}};
    for (const DesignPoint& point : front) {
      for (const PrrPlan& plan : point.prr_plans) {
        const auto key = std::make_tuple(
            plan.organization.h, plan.organization.columns.clb_cols,
            plan.organization.columns.dsp_cols,
            plan.organization.columns.bram_cols, plan.window.first_col,
            plan.first_row);
        if (seen.insert(key).second) plans.push_back(&plan);
      }
    }
    std::vector<unsigned char> match(plans.size(), 0);
    parallel_for(
        plans.size(),
        [&](std::size_t i) {
          const u64 words =
              generate_bitstream_cached(*plans[i], device.fabric.family())
                  ->size();
          match[i] = words == plans[i]->bitstream.total_words ? 1 : 0;
        },
        options.workers);
    ExploreBitstreamCheck check;
    check.plans_checked = plans.size();
    for (const unsigned char ok : match) {
      check.all_match = check.all_match && ok != 0;
    }
    response.bitstream_check = check;
  }
  response.stats = scope.finish();
  return response;
}

RankResponse Engine::rank(const RankRequest& request) const {
  const obs::RequestScope scope{options_.collect_stats};
  if (request.prms.empty()) throw UsageError{"rank needs at least one PRM"};
  // Requirements are family-specific; synthesize per candidate family is
  // overkill for a ranking - use Virtex-5 as the canonical mapper.
  const std::vector<PrmInfo> prms =
      synthesize_prms(request.prms, Family::kVirtex5);
  check_deadline("rank.synth");

  DeviceSelectOptions options;
  options.workers = effective_workers(request.workers);
  RankResponse response;
  response.choices = rank_devices(
      prms, seeded_workload(request.tasks, prms.size(), request.seed),
      options);
  response.stats = scope.finish();
  return response;
}

FaultsResponse Engine::faults(const FaultsRequest& request) const {
  const obs::RequestScope scope{options_.collect_stats};
  if (request.prms.empty()) throw UsageError{"faults needs at least one PRM"};
  const Device& device = resolve_device(request.device);
  std::vector<PrmInfo> prms =
      synthesize_prms(request.prms, device.fabric.family());
  price_prms(prms, device);
  check_deadline("faults.plan");

  FaultProfile profile;
  profile.fault_rate = request.fault_rate.value_or(options_.fault_rate);
  profile.stall_rate = request.stall_rate.value_or(options_.stall_rate);
  profile.seed = request.fault_seed.value_or(options_.fault_seed);
  FaultInjector injector{profile};

  SimConfig config;
  config.prr_count = request.prr_count;
  config.media = parse_media(request.media);
  config.retry.max_retries =
      request.max_retries.value_or(options_.max_retries);
  if (request.recovery == "drop") {
    config.recovery = FaultRecovery::kDrop;
  } else if (request.recovery == "reschedule") {
    config.recovery = FaultRecovery::kReschedule;
  } else {
    throw UsageError{"unknown recovery '" + request.recovery +
                     "' (known: drop reschedule)"};
  }
  // Only attach the injector when the profile can actually fire; the
  // fault-free request then takes the exact pre-fault simulation path.
  if (profile.active()) config.faults = &injector;

  FaultsResponse response;
  response.report = simulate(
      prms, seeded_workload(request.tasks, prms.size(), request.seed), config);
  if (request.strict && response.report.dropped_tasks > 0) {
    throw FaultError{"faults: " +
                     std::to_string(response.report.dropped_tasks) +
                     " task(s) dropped after exhausted retries"};
  }
  response.device = device.name;
  response.fault_rate = profile.fault_rate;
  response.fault_seed = profile.seed;
  response.max_retries = config.retry.max_retries;
  response.injected_faults = injector.corrupted();
  response.injected_stalls = injector.stalls();
  response.stats = scope.finish();
  return response;
}

ScheduleResponse Engine::schedule(const ScheduleRequest& request) const {
  const obs::RequestScope scope{options_.collect_stats};
  if (request.prms.empty()) {
    throw UsageError{"schedule needs at least one PRM"};
  }
  if (request.slots == 0) {
    throw UsageError{"schedule needs at least one slot"};
  }
  const Device& device = resolve_device(request.device);
  const Family family = device.fabric.family();
  std::vector<PrmInfo> prms = synthesize_prms(request.prms, family);

  // Per-PRM plans: the Eq. 18-23 bitstream size prices every candidate
  // reconfiguration, and the prefetch hook generates exactly these plans
  // into the process-wide bitstream cache.
  const std::vector<PrrPlan> plans = price_prms(prms, device);

  // Pluggable slots: every slot must host any PRM, so each is sized by
  // the element-wise maximum requirement (the paper's shared-PRR rule)
  // and placed by the occupancy-aware floorplanner until the fabric runs
  // out of room.
  PrmRequirements merged;
  for (const PrmInfo& prm : prms) merged.merge(prm.req);
  if (!find_prr(merged, device.fabric)) {
    throw InfeasibleError{"no shared PRR slot fits every PRM on " +
                          device.name};
  }
  Floorplanner floorplanner{device.fabric};
  u32 placed = 0;
  for (u32 s = 0; s < request.slots; ++s) {
    if (!floorplanner.place("slot" + std::to_string(s), merged)) break;
    ++placed;
  }
  if (placed == 0) {
    throw InfeasibleError{"no PRR slot placeable on " + device.name};
  }
  check_deadline("schedule.plan");

  ScheduleResponse response;
  response.tasks = arrival_stream(request, prms.size());
  sched::SchedulerConfig config;
  config.slot_count = placed;
  config.policy = sched::parse_policy(request.policy);
  config.cold_media = parse_media(request.media);
  config.warm_media = parse_media(request.warm_media);
  config.fault_rate = request.fault_rate.value_or(options_.fault_rate);
  config.retry.max_retries =
      request.max_retries.value_or(options_.max_retries);
  config.prefetch_rate_hz = request.prefetch_rate_hz;
  config.cpu_workers = request.cpu_workers;
  config.cpu_slowdown = request.cpu_slowdown;
  config.prefetch_hook = [&plans, family](u32 prm) {
    generate_bitstream_cached(plans[prm], family);
  };
  response.report = sched::run(prms, response.tasks, config);
  check_deadline("schedule.run");

  response.device = device.name;
  response.policy = config.policy;
  response.slot_count = placed;
  response.prm_count = narrow<u32>(prms.size());
  response.fault_rate = config.fault_rate;
  response.detail = request.detail;
  response.stats = scope.finish();
  return response;
}

OptimizeResponse Engine::optimize(const OptimizeRequest& request) const {
  const obs::RequestScope scope{options_.collect_stats};
  if (request.prms.empty() && request.prm_count == 0) {
    throw UsageError{"optimize needs PRMs or a prm_count fleet size"};
  }
  const Device& device = resolve_device(request.device);

  opt::OptInstance instance;
  if (!request.prms.empty()) {
    // Explicit built-in PRMs: one group per PRM unless the request groups
    // them, two tasks per PRM (deterministic from the seed).
    instance.device = &device;
    instance.prms = synthesize_prms(request.prms, device.fabric.family());
    const u32 count = narrow<u32>(instance.prms.size());
    instance.group_count =
        request.groups != 0 ? std::min(request.groups, count) : count;
    instance.group_of.reserve(count);
    for (u32 i = 0; i < count; ++i) {
      instance.group_of.push_back(i % instance.group_count);
    }
    Rng rng{request.seed};
    for (u32 t = 0; t < count * 2; ++t) {
      HwTask task;
      task.name = "t" + std::to_string(t);
      task.prm = t % count;
      task.exec_s = rng.exponential(5.0e-3);
      instance.tasks.push_back(std::move(task));
    }
  } else {
    instance = opt::make_prm_fleet(device, request.prm_count, request.groups,
                                   request.seed);
  }

  check_deadline("optimize.fleet");
  opt::OptimizeOptions options;
  options.seed = request.seed;
  options.rounds = request.rounds;
  options.proposals_per_round = request.proposals_per_round;
  options.media = parse_media(request.media);
  options.fault_rate = request.fault_rate.value_or(options_.fault_rate);
  options.max_retries = request.max_retries.value_or(options_.max_retries);
  options.workers = effective_workers(request.workers);

  OptimizeResponse response;
  response.result = opt::JointOptimizer{instance, options}.run();
  response.device = device.name;
  response.prm_count = narrow<u32>(instance.prms.size());
  response.group_count = instance.group_count;
  response.seed = request.seed;
  // Cross-check every placed plan's Eq. 18 size against a generated
  // bitstream (served through the process-wide bitstream cache).
  response.bitstream_verified = std::all_of(
      response.result.placements.begin(), response.result.placements.end(),
      [&](const PlacedPrr& placed) {
        return generated_bytes(placed.plan, device.fabric) ==
               placed.plan.bitstream.total_bytes;
      });
  response.stats = scope.finish();
  return response;
}

DevicesResponse Engine::list_devices() const {
  const obs::RequestScope scope{options_.collect_stats};
  DevicesResponse response;
  response.devices = devices().all();
  response.stats = scope.finish();
  return response;
}

}  // namespace prcost::api
