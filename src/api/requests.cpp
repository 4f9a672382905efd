#include "api/requests.hpp"

#include <string_view>
#include <type_traits>

#include "netlist/generators.hpp"
#include "util/error.hpp"

namespace prcost::api {
namespace {

/// One built-in PRM: its catalog name and its generator.
struct BuiltinPrm {
  std::string_view name;
  Netlist (*make)();
};

/// The generator catalog, in canonical (usage-banner) order.
constexpr BuiltinPrm kBuiltinPrms[] = {
    {"fir", [] { return make_fir(); }},
    {"mips", [] { return make_mips5(); }},
    {"sdram", [] { return make_sdram_ctrl(); }},
    {"aes", [] { return make_aes_round(); }},
    {"crc32", [] { return make_crc32(); }},
    {"uart", [] { return make_uart(); }},
    {"matmul", [] { return make_matmul(); }},
    {"sobel", [] { return make_sobel(); }},
    {"fft", [] { return make_fft_stage(); }},
};

/// Overwrite `field` with the request member `key` when it is present, so
/// each default lives only in the request struct's initializer.
template <typename T>
void read(const Json& j, std::string_view key, T& field) {
  const Json* member = j.find(key);
  if (member == nullptr) return;
  if constexpr (std::is_same_v<T, std::string>) {
    field = member->as_string();
  } else if constexpr (std::is_same_v<T, bool>) {
    field = member->as_bool();
  } else if constexpr (std::is_floating_point_v<T>) {
    field = member->as_double();
  } else if constexpr (std::is_integral_v<T>) {
    field = narrow<T>(member->as_u64());
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    field.clear();
    for (const Json& item : member->as_array()) {
      field.push_back(item.as_string());
    }
  } else {  // std::optional of a scalar: set only when present
    typename T::value_type value{};
    read(j, key, value);
    field = value;
  }
}

void read_source(const Json& j, PrmSource& source) {
  read(j, "prm", source.prm);
  read(j, "netlist", source.netlist_path);
  read(j, "report", source.report_path);
}

Json prms_to_json(const std::vector<std::string>& prms) {
  Json array = Json::array();
  for (const std::string& name : prms) array.push_back(name);
  return array;
}

Json organization_to_json(const PrrOrganization& org) {
  Json j = Json::object();
  j.set("h", org.h)
      .set("clb_cols", org.columns.clb_cols)
      .set("dsp_cols", org.columns.dsp_cols)
      .set("bram_cols", org.columns.bram_cols)
      .set("width", org.width())
      .set("size", org.size());
  return j;
}

Json plan_to_json(const PrrPlan& plan) {
  Json j = Json::object();
  j.set("organization", organization_to_json(plan.organization));
  Json window = Json::object();
  window.set("first_col", plan.window.first_col)
      .set("width", plan.window.width);
  j.set("window", std::move(window));
  j.set("first_row", plan.first_row);
  Json ru = Json::object();
  ru.set("clb", plan.ru.clb)
      .set("ff", plan.ru.ff)
      .set("lut", plan.ru.lut)
      .set("dsp", plan.ru.dsp)
      .set("bram", plan.ru.bram);
  j.set("utilization", std::move(ru));
  Json bs = Json::object();
  bs.set("total_words", plan.bitstream.total_words)
      .set("total_bytes", plan.bitstream.total_bytes)
      .set("config_frames_per_row", plan.bitstream.config_frames_per_row);
  j.set("bitstream", std::move(bs));
  return j;
}

Json report_to_json(const SynthesisReport& report) {
  Json j = Json::object();
  j.set("module", report.module_name)
      .set("family", std::string{family_name(report.family)})
      .set("lut_ff_pairs", report.lut_ff_pairs)
      .set("slice_luts", report.slice_luts)
      .set("slice_ffs", report.slice_ffs)
      .set("dsps", report.dsps)
      .set("brams", report.brams)
      .set("bonded_iobs", report.bonded_iobs);
  return j;
}

}  // namespace

void PrmSource::validate() const {
  const int set_count = (prm.empty() ? 0 : 1) + (netlist_path.empty() ? 0 : 1) +
                        (report_path.empty() ? 0 : 1);
  if (set_count == 0) throw UsageError{"need a PRM or --report file"};
  if (set_count > 1) {
    throw UsageError{"give exactly one of a PRM name, --netlist, --report"};
  }
}

Netlist make_builtin_prm(const std::string& name) {
  for (const BuiltinPrm& prm : kBuiltinPrms) {
    if (prm.name == name) return prm.make();
  }
  std::string known;
  for (const BuiltinPrm& prm : kBuiltinPrms) {
    if (!known.empty()) known += ' ';
    known += prm.name;
  }
  throw NotFoundError{"unknown PRM '" + name + "' (known: " + known + ")"};
}

const std::vector<std::string>& builtin_prm_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const BuiltinPrm& prm : kBuiltinPrms) out.emplace_back(prm.name);
    return out;
  }();
  return names;
}

SearchObjective parse_objective(const std::string& name) {
  if (name == "area") return SearchObjective::kMinArea;
  if (name == "height") return SearchObjective::kFirstFeasible;
  if (name == "bitstream") return SearchObjective::kMinBitstream;
  throw UsageError{"unknown objective '" + name + "'"};
}

SynthRequest synth_request_from_json(const Json& j) {
  SynthRequest request;
  read_source(j, request.source);
  if (const Json* family = j.find("family")) {
    request.family = parse_family(family->as_string());
  }
  return request;
}

PlanRequest plan_request_from_json(const Json& j) {
  PlanRequest request;
  read(j, "device", request.device);
  read_source(j, request.source);
  if (const Json* objective = j.find("objective")) {
    request.objective = parse_objective(objective->as_string());
  }
  read(j, "shaped", request.shaped);
  read(j, "cross_check", request.cross_check);
  return request;
}

BitstreamRequest bitstream_request_from_json(const Json& j) {
  BitstreamRequest request;
  read(j, "device", request.device);
  read_source(j, request.source);
  return request;
}

ExploreRequest explore_request_from_json(const Json& j) {
  ExploreRequest request;
  read(j, "device", request.device);
  read(j, "prms", request.prms);
  read(j, "workers", request.workers);
  read(j, "max_groups", request.max_groups);
  read(j, "tasks", request.tasks);
  read(j, "seed", request.seed);
  read(j, "cross_check", request.cross_check);
  return request;
}

RankRequest rank_request_from_json(const Json& j) {
  RankRequest request;
  read(j, "prms", request.prms);
  read(j, "workers", request.workers);
  read(j, "tasks", request.tasks);
  read(j, "seed", request.seed);
  return request;
}

FaultsRequest faults_request_from_json(const Json& j) {
  FaultsRequest request;
  read(j, "device", request.device);
  read(j, "prms", request.prms);
  read(j, "prr_count", request.prr_count);
  read(j, "tasks", request.tasks);
  read(j, "seed", request.seed);
  read(j, "fault_rate", request.fault_rate);
  read(j, "stall_rate", request.stall_rate);
  read(j, "fault_seed", request.fault_seed);
  read(j, "max_retries", request.max_retries);
  read(j, "media", request.media);
  read(j, "recovery", request.recovery);
  read(j, "strict", request.strict);
  return request;
}

OptimizeRequest optimize_request_from_json(const Json& j) {
  OptimizeRequest request;
  read(j, "device", request.device);
  read(j, "prms", request.prms);
  read(j, "prm_count", request.prm_count);
  read(j, "groups", request.groups);
  read(j, "seed", request.seed);
  read(j, "rounds", request.rounds);
  read(j, "proposals_per_round", request.proposals_per_round);
  read(j, "media", request.media);
  read(j, "fault_rate", request.fault_rate);
  read(j, "max_retries", request.max_retries);
  read(j, "workers", request.workers);
  return request;
}

ScheduleRequest schedule_request_from_json(const Json& j) {
  ScheduleRequest request;
  read(j, "device", request.device);
  read(j, "prms", request.prms);
  read(j, "slots", request.slots);
  read(j, "policy", request.policy);
  read(j, "workload", request.workload);
  read(j, "trace", request.trace);
  read(j, "tasks", request.tasks);
  read(j, "seed", request.seed);
  read(j, "mean_interarrival_s", request.mean_interarrival_s);
  read(j, "mean_exec_s", request.mean_exec_s);
  read(j, "deadline_factor", request.deadline_factor);
  read(j, "media", request.media);
  read(j, "warm_media", request.warm_media);
  read(j, "prefetch_rate_hz", request.prefetch_rate_hz);
  read(j, "fault_rate", request.fault_rate);
  read(j, "max_retries", request.max_retries);
  read(j, "cpu_workers", request.cpu_workers);
  read(j, "cpu_slowdown", request.cpu_slowdown);
  read(j, "detail", request.detail);
  return request;
}

Json to_json(const obs::RequestStatsSummary& s) {
  const auto ms = [](u64 ns) { return static_cast<double>(ns) / 1e6; };
  Json j = Json::object();
  j.set("wall_ms", ms(s.wall_ns));
  Json cache = Json::object();
  cache.set("plan_hits", s.plan_cache_hits)
      .set("plan_misses", s.plan_cache_misses)
      .set("bitstream_hits", s.bitstream_cache_hits)
      .set("bitstream_misses", s.bitstream_cache_misses);
  j.set("cache", std::move(cache));
  j.set("retries", s.retries);
  j.set("allocations", s.allocations);
  Json phases = Json::array();
  for (const obs::RequestPhase& phase : s.phases) {
    Json p = Json::object();
    p.set("name", phase.name)
        .set("count", phase.count)
        .set("total_ms", ms(phase.total_ns))
        .set("self_ms", ms(phase.self_ns))
        .set("max_ms", ms(phase.max_ns));
    phases.push_back(std::move(p));
  }
  j.set("phases", std::move(phases));
  return j;
}

namespace {

/// Append the optional stats block. Always the LAST member set on a
/// response object: stats-off serialization must stay byte-identical to
/// output that predates the stats feature.
void set_stats(Json& j, const std::optional<obs::RequestStatsSummary>& s) {
  if (s) j.set("stats", to_json(*s));
}

}  // namespace

Json to_json(const SynthResponse& r) {
  Json j = Json::object();
  j.set("report", report_to_json(r.report));
  set_stats(j, r.stats);
  return j;
}

Json to_json(const PlanResponse& r) {
  Json j = Json::object();
  j.set("device", r.device);
  j.set("plan", plan_to_json(r.plan));
  if (r.par) {
    Json par = Json::object();
    par.set("routed", r.par->routed);
    if (r.par->routed) {
      const PlaceResult& placement = r.par->placement;
      par.set("placed_cells", placement.placed_cells)
          .set("hpwl_initial", placement.hpwl_initial)
          .set("hpwl_final", placement.hpwl_final)
          .set("critical_path_ns", placement.critical_path_ns);
    } else {
      par.set("failure_reason", r.par->failure_reason);
    }
    j.set("par", std::move(par));
  }
  if (r.generated_bytes) {
    j.set("generated_bytes", *r.generated_bytes);
    j.set("model_match", r.generated_matches_model());
  }
  if (r.shaped) {
    Json shaped = Json::object();
    shaped.set("beats_rectangle", r.shaped->beats_rectangle)
        .set("cells", r.shaped->cells)
        .set("bitstream_bytes", r.shaped->bitstream_bytes)
        .set("cells_saved", r.shaped->cells_saved);
    j.set("shaped", std::move(shaped));
  }
  set_stats(j, r.stats);
  return j;
}

Json to_json(const BitstreamResponse& r) {
  Json j = Json::object();
  j.set("device", r.device)
      .set("family", std::string{family_name(r.family)})
      .set("plan", plan_to_json(r.plan))
      .set("words", static_cast<u64>(r.words ? r.words->size() : 0))
      .set("total_bytes", r.total_bytes);
  set_stats(j, r.stats);
  return j;
}

Json to_json(const ExploreResponse& r) {
  Json j = Json::object();
  j.set("device", r.device);
  j.set("prms", prms_to_json(r.prms));
  Json points = Json::array();
  for (const DesignPoint& point : r.points) {
    Json p = Json::object();
    Json partition = Json::array();
    for (const auto& group : point.partition) {
      Json names = Json::array();
      for (const u32 prm : group) names.push_back(r.prms[prm]);
      partition.push_back(std::move(names));
    }
    p.set("partition", std::move(partition));
    p.set("feasible", point.feasible);
    if (point.feasible) {
      p.set("total_prr_area", point.total_prr_area)
          .set("total_bitstream_bytes", point.total_bitstream_bytes)
          .set("makespan_s", point.makespan_s)
          .set("total_reconfig_s", point.total_reconfig_s);
    } else {
      p.set("reason", point.infeasible_reason);
    }
    points.push_back(std::move(p));
  }
  j.set("points", std::move(points));
  j.set("pareto_count", static_cast<u64>(r.pareto_count));
  if (r.bitstream_check) {
    Json check = Json::object();
    check.set("plans_checked", r.bitstream_check->plans_checked)
        .set("all_match", r.bitstream_check->all_match);
    j.set("bitstream_check", std::move(check));
  }
  set_stats(j, r.stats);
  return j;
}

Json to_json(const RankResponse& r) {
  Json j = Json::object();
  Json choices = Json::array();
  for (const DeviceChoice& choice : r.choices) {
    Json c = Json::object();
    c.set("device", choice.device).set("feasible", choice.feasible);
    if (choice.feasible) {
      c.set("total_prr_cells", choice.total_prr_cells)
          .set("fabric_fraction", choice.fabric_fraction)
          .set("total_bitstream_bytes", choice.total_bitstream_bytes)
          .set("makespan_s", choice.makespan_s);
    } else {
      c.set("reason", choice.reason);
    }
    choices.push_back(std::move(c));
  }
  j.set("choices", std::move(choices));
  set_stats(j, r.stats);
  return j;
}

Json to_json(const FaultsResponse& r) {
  const SimResult& sim = r.report;
  Json j = Json::object();
  j.set("device", r.device)
      .set("fault_rate", r.fault_rate)
      .set("fault_seed", r.fault_seed)
      .set("max_retries", r.max_retries)
      .set("makespan_s", sim.makespan_s)
      .set("reconfig_count", sim.reconfig_count)
      .set("total_reconfig_s", sim.total_reconfig_s)
      .set("failed_reconfigs", sim.failed_reconfigs)
      .set("dropped_tasks", sim.dropped_tasks)
      .set("rescheduled_tasks", sim.rescheduled_tasks)
      .set("retry_attempts", sim.retry_attempts)
      .set("total_retry_backoff_s", sim.total_retry_backoff_s)
      .set("total_fault_wasted_s", sim.total_fault_wasted_s)
      .set("total_penalty_s", sim.total_penalty_s)
      .set("injected_faults", r.injected_faults)
      .set("injected_stalls", r.injected_stalls)
      .set("effective_reconfig_s", r.effective_reconfig_s());
  set_stats(j, r.stats);
  return j;
}

Json to_json(const DevicesResponse& r) {
  Json j = Json::object();
  Json devices = Json::array();
  for (const Device& dev : r.devices) {
    const Fabric& fabric = dev.fabric;
    Json d = Json::object();
    d.set("name", dev.name)
        .set("family", family_name(fabric.family()))
        .set("rows", fabric.rows())
        .set("clb_cols", fabric.column_count(ColumnType::kClb))
        .set("dsp_cols", fabric.column_count(ColumnType::kDsp))
        .set("bram_cols", fabric.column_count(ColumnType::kBram))
        .set("clbs", fabric.total_resources(ColumnType::kClb))
        .set("dsps", fabric.total_resources(ColumnType::kDsp))
        .set("bram36s", fabric.total_resources(ColumnType::kBram));
    devices.push_back(std::move(d));
  }
  j.set("devices", std::move(devices));
  set_stats(j, r.stats);
  return j;
}

Json to_json(const OptimizeResponse& r) {
  using opt::MoveKind;
  const opt::OptimizeResult& result = r.result;
  Json j = Json::object();
  j.set("device", r.device)
      .set("prm_count", r.prm_count)
      .set("group_count", r.group_count)
      .set("seed", r.seed)
      .set("greedy_rejected_prms", result.greedy.rejected_prms)
      .set("greedy_rejection_rate", result.greedy_rejection_rate(r.prm_count))
      .set("greedy_makespan_s", result.greedy.makespan_s)
      .set("greedy_fragmentation", result.greedy_frag.fragmentation)
      .set("greedy_cost", result.greedy.cost)
      .set("greedy_placed_groups", result.greedy.placed_groups)
      .set("anneal_rejected_prms", result.best.rejected_prms)
      .set("anneal_rejection_rate", result.best_rejection_rate(r.prm_count))
      .set("anneal_makespan_s", result.best.makespan_s)
      .set("anneal_fragmentation", result.best_frag.fragmentation)
      .set("anneal_cost", result.best.cost)
      .set("anneal_placed_groups", result.best.placed_groups)
      .set("anneal_relocation_s", result.best.relocation_s)
      .set("proposals", result.proposals)
      .set("accepted", result.accepted)
      .set("accepted_swap", result.accepted_of(MoveKind::kSwap))
      .set("accepted_relocate", result.accepted_of(MoveKind::kRelocate))
      .set("accepted_resize", result.accepted_of(MoveKind::kResize))
      .set("accepted_compact", result.accepted_of(MoveKind::kCompact))
      .set("cost_verified", result.cost_verified)
      .set("bitstream_verified", r.bitstream_verified);
  set_stats(j, r.stats);
  return j;
}

Json to_json(const ScheduleResponse& r) {
  const sched::Report& report = r.report;
  Json j = Json::object();
  j.set("device", r.device)
      .set("policy", sched::policy_name(r.policy))
      .set("slot_count", r.slot_count)
      .set("prm_count", r.prm_count)
      .set("task_count", static_cast<u64>(r.tasks.size()))
      .set("fault_rate", r.fault_rate)
      .set("makespan_s", report.makespan_s)
      .set("throughput_per_s", report.throughput_per_s)
      .set("reuse_hits", report.reuse_hits)
      .set("reconfig_count", report.reconfig_count)
      .set("total_reconfig_s", report.total_reconfig_s)
      .set("reconfig_seconds_per_task", report.reconfig_seconds_per_task)
      .set("deadline_misses", report.deadline_misses)
      .set("cpu_fallbacks", report.cpu_fallbacks)
      .set("prefetches_issued", report.prefetches_issued)
      .set("prefetched_reconfigs", report.prefetched_reconfigs)
      .set("mean_wait_s", report.mean_wait_s)
      .set("mean_turnaround_s", report.mean_turnaround_s);
  if (r.detail && !r.tasks.empty()) {
    Json tasks = Json::array();
    for (std::size_t i = 0; i < r.tasks.size(); ++i) {
      const sched::TaskOutcome& t = report.tasks[i];
      Json o = Json::object();
      o.set("name", r.tasks[i].name)
          .set("prm", r.tasks[i].prm)
          .set("slot", t.slot)
          .set("cpu_fallback", t.cpu_fallback)
          .set("reconfigured", t.reconfigured)
          .set("prefetched", t.prefetched)
          .set("deadline_miss", t.deadline_miss)
          .set("reconfig_s", t.reconfig_s)
          .set("start_s", t.start_s)
          .set("finish_s", t.finish_s)
          .set("wait_s", t.wait_s);
      tasks.push_back(std::move(o));
    }
    j.set("tasks", std::move(tasks));
  }
  set_stats(j, r.stats);
  return j;
}

}  // namespace prcost::api
