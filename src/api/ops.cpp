#include "api/ops.hpp"

#include <fstream>
#include <optional>
#include <ostream>

#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "sched/generators.hpp"
#include "synth/report.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace prcost::api {
namespace {

// ------------------------------------------------------- Engine calls --

/// An op's request-from-JSON -> Engine call, shared by the wire and the
/// CLI.
template <auto FromJson, auto Call>
auto call(const Engine& engine, const Json& request) {
  return (engine.*Call)(FromJson(request));
}

DevicesResponse list_devices(const Engine& engine, const Json&) {
  return engine.list_devices();
}

/// Health probe: answers without touching the evaluation path, so a serve
/// health check stays cheap even under load.
Json ping(const Engine&, const Json&) {
  Json result = Json::object();
  result.set("pong", true);
  return result;
}

/// Live OpenMetrics scrape of the process-wide registry (the serve
/// observability endpoint; also usable from batch for a final dump).
Json metrics(const Engine& engine, const Json&) {
  Json result = Json::object();
  result.set("openmetrics", engine.metrics().to_openmetrics());
  return result;
}

// ----------------------------------------------------------- renderers --
// Typed response -> the CLI's text; return the exit code. The request is
// passed for the CLI-only members ("out", "dump_trace") that no Engine
// call reads.

/// The --stats block, printed after a command's own output.
void print_stats(std::ostream& out,
                 const std::optional<obs::RequestStatsSummary>& s) {
  if (!s) return;
  const auto ms = [](u64 ns) {
    return format_fixed(static_cast<double>(ns) / 1e6, 3);
  };
  out << "\n=== request stats ===\n"
      << "wall " << ms(s->wall_ns) << " ms, plan cache " << s->plan_cache_hits
      << "/" << s->plan_cache_misses << " hit/miss, bitstream cache "
      << s->bitstream_cache_hits << "/" << s->bitstream_cache_misses
      << " hit/miss, retries " << s->retries << ", allocations "
      << s->allocations << '\n';
  if (s->phases.empty()) return;
  TextTable table{{"phase", "count", "self (ms)", "total (ms)", "max (ms)"}};
  for (const obs::RequestPhase& phase : s->phases) {
    table.add_row({phase.name, std::to_string(phase.count), ms(phase.self_ns),
                   ms(phase.total_ns), ms(phase.max_ns)});
  }
  out << table.to_ascii();
}

int render_devices(const DevicesResponse& response, const Json&,
                   std::ostream& out) {
  TextTable table{{"device", "family", "rows", "CLB cols", "DSP cols",
                   "BRAM cols", "CLBs", "DSPs", "BRAM36s"}};
  for (const Device& dev : response.devices) {
    const Fabric& fabric = dev.fabric;
    table.add_row(
        {dev.name, std::string{family_name(fabric.family())},
         std::to_string(fabric.rows()),
         std::to_string(fabric.column_count(ColumnType::kClb)),
         std::to_string(fabric.column_count(ColumnType::kDsp)),
         std::to_string(fabric.column_count(ColumnType::kBram)),
         std::to_string(fabric.total_resources(ColumnType::kClb)),
         std::to_string(fabric.total_resources(ColumnType::kDsp)),
         std::to_string(fabric.total_resources(ColumnType::kBram))});
  }
  out << table.to_ascii();
  return 0;
}

int render_synth(const SynthResponse& response, const Json& request,
                 std::ostream& out) {
  const std::string text = report_to_text(response.report);
  if (const Json* path = request.find("out")) {
    std::ofstream file{path->as_string()};
    file << text;
    if (!file.flush()) {
      throw IoError{"cannot write output file '" + path->as_string() + "'"};
    }
    out << "wrote " << path->as_string() << '\n';
  } else {
    out << text;
  }
  return 0;
}

int render_plan(const PlanResponse& response, const Json&, std::ostream& out) {
  const PrrPlan& plan = response.plan;
  TextTable table{{"quantity", "value"}};
  table.add_row({"H x W", std::to_string(plan.organization.h) + " x " +
                              std::to_string(plan.organization.width())});
  table.add_row({"W_CLB / W_DSP / W_BRAM",
                 std::to_string(plan.organization.columns.clb_cols) + " / " +
                     std::to_string(plan.organization.columns.dsp_cols) +
                     " / " +
                     std::to_string(plan.organization.columns.bram_cols)});
  table.add_row({"PRR size (cells)", std::to_string(plan.organization.size())});
  table.add_row({"window first column", std::to_string(plan.window.first_col)});
  table.add_row(
      {"RU CLB/FF/LUT/DSP/BRAM", format_fixed(plan.ru.clb, 0) + "% / " +
                                     format_fixed(plan.ru.ff, 0) + "% / " +
                                     format_fixed(plan.ru.lut, 0) + "% / " +
                                     format_fixed(plan.ru.dsp, 0) + "% / " +
                                     format_fixed(plan.ru.bram, 0) + "%"});
  table.add_row({"partial bitstream",
                 std::to_string(plan.bitstream.total_bytes) + " bytes"});
  if (response.par) {
    const PlaceResult& placement = response.par->placement;
    if (response.par->routed) {
      table.add_row(
          {"PAR placed cells", std::to_string(placement.placed_cells)});
      table.add_row({"PAR HPWL (initial -> final)",
                     std::to_string(placement.hpwl_initial) + " -> " +
                         std::to_string(placement.hpwl_final)});
      table.add_row({"PAR critical path",
                     format_fixed(placement.critical_path_ns, 2) + " ns"});
    } else {
      table.add_row({"PAR", "failed: " + response.par->failure_reason});
    }
  }
  table.add_row({"generated bitstream",
                 std::to_string(*response.generated_bytes) + " bytes (" +
                     (response.generated_matches_model() ? "matches model"
                                                         : "MODEL MISMATCH") +
                     ")"});
  out << table.to_ascii();
  if (response.shaped) {
    if (response.shaped->beats_rectangle) {
      out << "\nL-shaped alternative: " << response.shaped->cells << " cells, "
          << response.shaped->bitstream_bytes << " bytes (saves "
          << response.shaped->cells_saved << " cells)\n";
    } else {
      out << "\nno L-shaped alternative beats the rectangle\n";
    }
  }
  return 0;
}

int render_bitstream(const BitstreamResponse& response, const Json& request,
                     std::ostream& out) {
  out << disassemble(*response.words, response.family);
  if (const Json* path = request.find("out")) {
    const auto bytes = to_bytes(*response.words, response.family);
    std::ofstream file{path->as_string(), std::ios::binary};
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    if (!file.flush()) {
      throw IoError{"cannot write output file '" + path->as_string() + "'"};
    }
    out << "wrote " << bytes.size() << " bytes to " << path->as_string()
        << '\n';
  }
  return 0;
}

int render_explore(const ExploreResponse& response, const Json&,
                   std::ostream& out) {
  TextTable table{{"partitioning", "area", "makespan (ms)", "feasible"}};
  for (const DesignPoint& point : response.points) {
    std::string partition;
    for (const auto& group : point.partition) {
      partition += "{";
      for (std::size_t i = 0; i < group.size(); ++i) {
        if (i) partition += ",";
        partition += response.prms[group[i]];
      }
      partition += "}";
    }
    table.add_row(
        {partition, std::to_string(point.total_prr_area),
         point.feasible ? format_fixed(point.makespan_s * 1e3, 2) : "-",
         point.feasible ? "yes" : point.infeasible_reason});
  }
  out << table.to_ascii();
  out << "pareto-optimal: " << response.pareto_count << " of "
      << response.points.size() << " partitionings\n";
  if (!response.bitstream_check) return 0;
  out << "bitstream cross-check: " << response.bitstream_check->plans_checked
      << " distinct PRR plans generated, "
      << (response.bitstream_check->all_match ? "all match the model"
                                              : "MODEL MISMATCH")
      << "\n";
  return response.bitstream_check->all_match ? 0 : 1;
}

int render_rank(const RankResponse& response, const Json&, std::ostream& out) {
  TextTable table{{"rank", "device", "feasible", "fabric used",
                   "bitstream total", "makespan (ms)"}};
  int rank = 1;
  for (const DeviceChoice& choice : response.choices) {
    table.add_row(
        {std::to_string(rank++), choice.device,
         choice.feasible ? "yes" : choice.reason,
         choice.feasible ? format_fixed(choice.fabric_fraction * 100, 1) + "%"
                         : "-",
         choice.feasible
             ? format_bytes(static_cast<double>(choice.total_bitstream_bytes))
             : "-",
         choice.feasible ? format_fixed(choice.makespan_s * 1e3, 2) : "-"});
  }
  out << table.to_ascii();
  return 0;
}

int render_faults(const FaultsResponse& response, const Json&,
                  std::ostream& out) {
  const auto ms = [](double s, int digits) {
    return format_fixed(s * 1e3, digits) + " ms";
  };
  const SimResult& sim = response.report;
  TextTable table{{"quantity", "value"}};
  table.add_row({"fault rate", format_fixed(response.fault_rate, 4)});
  table.add_row({"fault seed", std::to_string(response.fault_seed)});
  table.add_row({"max retries", std::to_string(response.max_retries)});
  table.add_row({"makespan", ms(sim.makespan_s, 2)});
  table.add_row({"reconfigurations", std::to_string(sim.reconfig_count)});
  table.add_row(
      {"effective reconfig time", ms(response.effective_reconfig_s(), 3)});
  table.add_row({"retry attempts", std::to_string(sim.retry_attempts)});
  table.add_row({"retry backoff", ms(sim.total_retry_backoff_s, 3)});
  table.add_row({"wasted ICAP time", ms(sim.total_fault_wasted_s, 3)});
  table.add_row({"injected faults / stalls",
                 std::to_string(response.injected_faults) + " / " +
                     std::to_string(response.injected_stalls)});
  table.add_row({"failed reconfigs", std::to_string(sim.failed_reconfigs)});
  table.add_row({"rescheduled tasks", std::to_string(sim.rescheduled_tasks)});
  table.add_row({"dropped tasks", std::to_string(sim.dropped_tasks)});
  table.add_row({"drop penalty", ms(sim.total_penalty_s, 3)});
  out << table.to_ascii();
  return 0;
}

int render_optimize(const OptimizeResponse& response, const Json&,
                    std::ostream& out) {
  const opt::OptimizeResult& result = response.result;
  const auto pct = [](double x) { return format_fixed(x * 100.0, 1) + "%"; };
  const auto ms = [](double s) { return format_fixed(s * 1e3, 2) + " ms"; };
  const auto of_groups = [&](u64 placed) {
    return std::to_string(placed) + " / " +
           std::to_string(response.group_count);
  };
  TextTable table{{"quantity", "greedy", "annealed"}};
  table.add_row({"placed PRRs", of_groups(result.greedy.placed_groups),
                 of_groups(result.best.placed_groups)});
  table.add_row({"rejected PRMs", std::to_string(result.greedy.rejected_prms),
                 std::to_string(result.best.rejected_prms)});
  table.add_row({"rejection rate",
                 pct(result.greedy_rejection_rate(response.prm_count)),
                 pct(result.best_rejection_rate(response.prm_count))});
  table.add_row({"makespan", ms(result.greedy.makespan_s),
                 ms(result.best.makespan_s)});
  table.add_row({"fragmentation", pct(result.greedy_frag.fragmentation),
                 pct(result.best_frag.fragmentation)});
  table.add_row({"cost", format_fixed(result.greedy.cost, 3),
                 format_fixed(result.best.cost, 3)});
  out << table.to_ascii();
  out << "fleet: " << response.prm_count << " PRMs in " << response.group_count
      << " shared PRRs (seed " << response.seed << ")\n"
      << "moves: " << result.accepted << " accepted of " << result.proposals
      << " proposed (swap " << result.accepted_of(opt::MoveKind::kSwap)
      << ", relocate " << result.accepted_of(opt::MoveKind::kRelocate)
      << ", resize " << result.accepted_of(opt::MoveKind::kResize)
      << ", compact " << result.accepted_of(opt::MoveKind::kCompact)
      << "), relocation ICAP time "
      << format_fixed(result.best.relocation_s * 1e3, 3) << " ms\n"
      << "cost re-evaluation: "
      << (result.cost_verified ? "matches" : "MISMATCH")
      << ", bitstream model: "
      << (response.bitstream_verified ? "matches generated" : "MISMATCH")
      << '\n';
  return result.cost_verified && response.bitstream_verified ? 0 : 1;
}

/// `--dump-trace FILE` (the "dump_trace" member) writes the arrival
/// stream the run used before the table.
int render_schedule(const ScheduleResponse& response, const Json& request,
                    std::ostream& out) {
  if (const Json* dump = request.find("dump_trace")) {
    const std::string& path = dump->as_string();
    std::ofstream file{path};
    file << sched::dump_trace(response.tasks);
    if (!file.flush()) throw IoError{"cannot write trace file '" + path + "'"};
    out << "wrote " << response.tasks.size() << " tasks to " << path << '\n';
  }
  const sched::Report& report = response.report;
  const auto ms = [](double s) { return format_fixed(s * 1e3, 3) + " ms"; };
  TextTable table{{"quantity", "value"}};
  table.add_row({"policy", std::string{sched::policy_name(response.policy)}});
  table.add_row({"PRR slots", std::to_string(response.slot_count)});
  table.add_row({"tasks", std::to_string(response.tasks.size())});
  table.add_row({"makespan", format_fixed(report.makespan_s * 1e3, 2) + " ms"});
  table.add_row(
      {"throughput", format_fixed(report.throughput_per_s, 1) + " tasks/s"});
  table.add_row({"reconfigurations", std::to_string(report.reconfig_count)});
  table.add_row({"slot reuse hits", std::to_string(report.reuse_hits)});
  table.add_row({"reconfig time / task", ms(report.reconfig_seconds_per_task)});
  table.add_row({"prefetches issued", std::to_string(report.prefetches_issued)});
  table.add_row({"warm (prefetched) reconfigs",
                 std::to_string(report.prefetched_reconfigs)});
  table.add_row({"deadline misses", std::to_string(report.deadline_misses)});
  table.add_row({"CPU fallbacks", std::to_string(report.cpu_fallbacks)});
  table.add_row({"mean wait", ms(report.mean_wait_s)});
  table.add_row({"mean turnaround", ms(report.mean_turnaround_s)});
  out << table.to_ascii();
  return 0;
}

// ---------------------------------------------------------------- glue --

template <auto Evaluate>
Json wire(const Engine& engine, const Json& request) {
  return to_json(Evaluate(engine, request));
}

/// `kVerdict`: an InfeasibleError is the command's answer, printed on
/// `out` with exit code 1, instead of a failure.
template <auto Evaluate, auto Render, bool kVerdict = false>
int text(const Engine& engine, const Json& request, std::ostream& out) {
  try {
    const auto response = Evaluate(engine, request);
    const int rc = Render(response, request, out);
    print_stats(out, response.stats);
    return rc;
  } catch (const InfeasibleError& error) {
    if (!kVerdict) throw;
    out << error.what() << '\n';
    return 1;
  }
}

/// A table row: `Evaluate` is the op's one request-from-JSON -> Engine
/// call, which the wire serializes and the CLI prints with `Render`.
template <auto Evaluate, auto Render, bool kVerdict = false>
constexpr Op op(std::string_view name, Positionals positionals,
                std::span<const CliFlag> flags) {
  return {name, wire<Evaluate>, text<Evaluate, Render, kVerdict>, positionals,
          flags};
}

constexpr bool kInfeasibleIsVerdict = true;

/// The CLI's schedule request: `--trace FILE` replays the file whatever
/// the workload says.
ScheduleResponse cli_schedule(const Engine& engine, const Json& json) {
  ScheduleRequest request = schedule_request_from_json(json);
  if (json.find("trace") != nullptr) request.workload = "trace";
  return engine.schedule(request);
}

// ---------------------------------------------------------- flag specs --

constexpr CliFlag kDevice{"device", "device"};
constexpr CliFlag kNetlist{"netlist", "netlist", FlagKind::kPrmSource};
constexpr CliFlag kReport{"report", "report", FlagKind::kPrmSource};
constexpr CliFlag kOut{"out", "out"};
constexpr CliFlag kWorkers{"workers", "workers", FlagKind::kU64};
constexpr CliFlag kTasks{"tasks", "tasks", FlagKind::kU64};
constexpr CliFlag kSeed{"seed", "seed", FlagKind::kU64};
constexpr CliFlag kMedia{"media", "media"};

constexpr CliFlag kSynthFlags[] = {{"family", "family"}, kOut};
constexpr CliFlag kPlanFlags[] = {kDevice,
                                  kNetlist,
                                  kReport,
                                  {"objective", "objective"},
                                  {"shaped", "shaped", FlagKind::kBool}};
constexpr CliFlag kBitstreamFlags[] = {kDevice, kNetlist, kReport, kOut};
constexpr CliFlag kExploreFlags[] = {
    kDevice, kWorkers, {"cross-check", "cross_check", FlagKind::kBool}};
constexpr CliFlag kRankFlags[] = {kWorkers};
// Fault environment flags (--fault-rate, --max-retries...) are global:
// they set Engine::Options, whose values apply where a request leaves
// them unset.
constexpr CliFlag kFaultsFlags[] = {kDevice,
                                    {"prrs", "prr_count", FlagKind::kU64},
                                    kTasks,
                                    kSeed,
                                    kMedia,
                                    {"recovery", "recovery"},
                                    {"strict", "strict", FlagKind::kBool}};
constexpr CliFlag kOptimizeFlags[] = {
    kDevice,
    {"prm-count", "prm_count", FlagKind::kU64},
    {"groups", "groups", FlagKind::kU64},
    kSeed,
    {"rounds", "rounds", FlagKind::kU64},
    {"proposals", "proposals_per_round", FlagKind::kU64},
    kMedia,
    kWorkers};
constexpr CliFlag kScheduleFlags[] = {
    kDevice,
    {"slots", "slots", FlagKind::kU64},
    {"policy", "policy"},
    {"workload", "workload"},
    {"trace", "trace", FlagKind::kFileText},
    kTasks,
    kSeed,
    {"interarrival", "mean_interarrival_s", FlagKind::kDouble},
    {"exec", "mean_exec_s", FlagKind::kDouble},
    {"deadline-factor", "deadline_factor", FlagKind::kDouble},
    kMedia,
    {"warm-media", "warm_media"},
    {"prefetch-rate", "prefetch_rate_hz", FlagKind::kDouble},
    {"cpu-workers", "cpu_workers", FlagKind::kU64},
    {"cpu-slowdown", "cpu_slowdown", FlagKind::kDouble},
    {"dump-trace", "dump_trace"}};

// ---------------------------------------------------------------- table --

constexpr Op kOps[] = {
    op<list_devices, render_devices>("devices", Positionals::kNone, {}),
    op<call<synth_request_from_json, &Engine::synth>, render_synth>(
        "synth", Positionals::kPrm, kSynthFlags),
    op<call<plan_request_from_json, &Engine::plan>, render_plan,
       kInfeasibleIsVerdict>("plan", Positionals::kPrm, kPlanFlags),
    op<call<bitstream_request_from_json, &Engine::bitstream>, render_bitstream,
       kInfeasibleIsVerdict>("bitstream", Positionals::kPrm, kBitstreamFlags),
    op<call<explore_request_from_json, &Engine::explore>, render_explore>(
        "explore", Positionals::kPrms, kExploreFlags),
    op<call<rank_request_from_json, &Engine::rank>, render_rank>(
        "rank", Positionals::kPrms, kRankFlags),
    op<call<faults_request_from_json, &Engine::faults>, render_faults>(
        "faults", Positionals::kPrms, kFaultsFlags),
    op<call<optimize_request_from_json, &Engine::optimize>, render_optimize>(
        "optimize", Positionals::kPrms, kOptimizeFlags),
    // The CLI's schedule lets --trace pick the workload around the same
    // Engine call.
    {"schedule", wire<call<schedule_request_from_json, &Engine::schedule>>,
     text<cli_schedule, render_schedule>, Positionals::kPrms, kScheduleFlags},
    {"ping", ping, nullptr, Positionals::kNone, {}},
    {"metrics", metrics, nullptr, Positionals::kNone, {}},
};

}  // namespace

std::span<const Op> ops() { return kOps; }

const Op* find_op(std::string_view name) {
  for (const Op& entry : kOps) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::string op_names() {
  std::string names;
  for (const Op& entry : kOps) {
    if (!names.empty()) names += ' ';
    names += entry.name;
  }
  return names;
}

}  // namespace prcost::api
