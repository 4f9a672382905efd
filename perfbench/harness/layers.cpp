// Traced-run attribution: harness spans around the public calls, the
// Engine's request-stats phases folded into layers, and probes for work
// no request-level span isolates.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>

#include "api/batch.hpp"
#include "api/requests.hpp"
#include "bench.hpp"
#include "bitstream/bitstream_cache.hpp"
#include "bitstream/crc.hpp"
#include "cost/floorplan.hpp"
#include "cost/plan_cache.hpp"
#include "device/device_db.hpp"
#include "sched/generators.hpp"
#include "synth/report.hpp"
#include "synth/synthesizer.hpp"

namespace prbench {
namespace {

u64 ms_to_ns(double ms) { return static_cast<u64>(std::llround(ms * 1e6)); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// The module a span label of the instrumented library belongs to.
std::string layer_of(std::string_view phase) {
  if (starts_with(phase, "synthesis")) return "synth";
  if (starts_with(phase, "prr_")) return "cost";
  if (starts_with(phase, "par") || starts_with(phase, "placement")) {
    return "par";
  }
  if (starts_with(phase, "bitstream_gen")) return "bitstream";
  if (starts_with(phase, "dse_") || starts_with(phase, "device_select")) {
    return "dse";
  }
  if (starts_with(phase, "sched_")) return "sched";
  if (starts_with(phase, "multitask_") || starts_with(phase, "preemptive_")) {
    return "multitask";
  }
  if (starts_with(phase, "opt.")) return "opt";
  return "api";
}

/// (device, requirements) pairs the workload's requests resolve to:
/// built-in PRMs, .srp report tuples, and every schedule/faults PRM.
std::vector<std::pair<std::string, prcost::PrmRequirements>> requirements(
    const Workload& workload) {
  std::vector<std::pair<std::string, std::string>> keys;  // device, source
  for (const Request& request : workload.distinct) {
    if (!request.expect.empty()) continue;
    const Json line = Json::parse(request.line);
    const Json* device = line.find("device");
    if (device == nullptr) continue;
    if (const Json* prm = line.find("prm")) {
      keys.emplace_back(device->as_string(), "prm:" + prm->as_string());
    } else if (const Json* report = line.find("report")) {
      keys.emplace_back(device->as_string(), "srp:" + report->as_string());
    } else if (const Json* prms = line.find("prms")) {
      for (const Json& name : prms->as_array()) {
        keys.emplace_back(device->as_string(), "prm:" + name.as_string());
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::pair<std::string, prcost::PrmRequirements>> out;
  for (const auto& [device, source] : keys) {
    const prcost::Device& d = prcost::DeviceDb::instance().get(device);
    prcost::SynthesisReport report;
    if (starts_with(source, "prm:")) {
      report = prcost::synthesize(
                   prcost::api::make_builtin_prm(source.substr(4)),
                   prcost::SynthOptions{d.fabric.family()})
                   .report;
    } else {
      std::ifstream in{source.substr(4)};
      std::stringstream text;
      text << in.rdbuf();
      report = prcost::parse_report(text.str());
    }
    out.emplace_back(device, prcost::PrmRequirements::from_report(report));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- SpanLog

SpanLog::SpanLog(u32 threads, std::size_t keep)
    : threads_(threads), keep_(keep) {}

std::size_t SpanLog::open(u32 thread, const char* name, u64 request) {
  Thread& t = threads_[thread];
  const u64 start = now_ns();
  std::size_t handle = kNotKept;
  if (t.spans.size() < keep_) {
    const std::size_t parent = t.stack.empty() ? kNotKept
                                               : t.stack.back().handle;
    t.spans.push_back(Span{name, start, 0, request, parent});
    handle = t.spans.size() - 1;
  }
  t.stack.push_back(Open{start, handle});
  return handle;
}

u64 SpanLog::close(u32 thread) {
  Thread& t = threads_[thread];
  const Open open = t.stack.back();
  t.stack.pop_back();
  const u64 end = now_ns();
  if (open.handle != kNotKept) t.spans[open.handle].end_ns = end;
  return end - open.start_ns;
}

void SpanLog::attach(u32 thread, std::size_t handle, Json phases) {
  if (handle != kNotKept) threads_[thread].phases[handle] = std::move(phases);
}

std::string SpanLog::chrome_json() const {
  u64 origin = ~u64{0};
  for (const Thread& t : threads_) {
    if (!t.spans.empty()) origin = std::min(origin, t.spans.front().start_ns);
  }
  Json events = Json::array();
  for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
    const Thread& t = threads_[tid];
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& span = t.spans[i];
      Json args = Json::object();
      args.set("request", span.request);
      if (span.parent != kNotKept) {
        args.set("parent", static_cast<u64>(span.parent));
      }
      const auto phases = t.phases.find(i);
      if (phases != t.phases.end()) args.set("engine_phases", phases->second);
      Json event = Json::object();
      event.set("name", span.name)
          .set("ph", "X")
          .set("pid", static_cast<u64>(1))
          .set("tid", static_cast<u64>(tid))
          .set("ts", static_cast<double>(span.start_ns - origin) * 1e-3)
          .set("dur", static_cast<double>(span.end_ns - span.start_ns) * 1e-3)
          .set("args", std::move(args));
      events.push_back(std::move(event));
    }
  }
  Json trace = Json::object();
  trace.set("traceEvents", std::move(events));
  return trace.dump();
}

// -------------------------------------------------------- TracedDispatch

/// Spans kept per caller for the exported trace (about 1000 requests);
/// later requests are timed and folded into the totals the same way.
constexpr std::size_t kSpansPerCaller = 4000;

TracedDispatch::TracedDispatch(const Workload& workload,
                               const std::vector<u32>& order,
                               const prcost::api::Engine& stats_engine,
                               u32 callers)
    : workload_(&workload),
      order_(&order),
      engine_(&stats_engine),
      log_(callers, kSpansPerCaller),
      accs_(callers),
      callers_(callers) {}

std::string TracedDispatch::operator()(u32 caller, u64 position) {
  const Request& request =
      workload_->distinct[(*order_)[position % order_->size()]];
  Acc& acc = accs_[caller];

  const u64 start = now_ns();
  const std::size_t dispatch = log_.open(caller, "api.dispatch_line", position);
  log_.open(caller, "util.json_parse", position);
  const Json line = Json::parse(request.line);
  const u64 parse_ns = log_.close(caller);
  const Json envelope = prcost::api::dispatch_request(*engine_, line);
  const u64 dispatch_ns = log_.close(caller);

  log_.open(caller, "harness.strip_stats", position);
  Json stats;
  const Json clean = strip_stats(envelope, &stats);
  const u64 strip_ns = log_.close(caller);
  log_.open(caller, "util.json_dump", position);
  std::string answer = clean.dump();
  acc.dump_ns += log_.close(caller);
  acc.answer_bytes += answer.size();
  // Parse, dispatch and dump with tracing on; stripping the stats back out
  // is the harness's own work and does not count.
  acc.traced_ns += now_ns() - start - strip_ns;

  const Json* result = clean.find("result");
  fold(acc, request, result != nullptr ? *result : Json{}, stats, dispatch_ns,
       parse_ns);
  if (!stats.is_null()) {
    if (const Json* phases = stats.find("phases")) {
      log_.attach(caller, dispatch, *phases);
    }
  }
  return answer;
}

void TracedDispatch::fold(Acc& acc, const Request& request, const Json& result,
                          const Json& stats, u64 dispatch_ns, u64 parse_ns) {
  ++acc.requests;
  acc.parse_ns += parse_ns;
  acc.dispatch_ns[request.op].add(dispatch_ns);
  u64 engine_self_ns = 0;
  u64 generate_ns = 0;
  u64 sim_ns = 0;
  u64 sched_ns = 0;
  u64 explore_ns = 0;
  if (!stats.is_null()) {
    for (const Json& phase : stats.find("phases")->as_array()) {
      const std::string& name = phase.find("name")->as_string();
      const u64 total_ns = ms_to_ns(phase.find("total_ms")->as_double());
      const u64 self_ns = ms_to_ns(phase.find("self_ms")->as_double());
      Phase& agg = acc.phases[name];
      agg.count += phase.find("count")->as_u64();
      agg.total_ns += total_ns;
      acc.layer_self_ns[layer_of(name)] += self_ns;
      engine_self_ns += self_ns;
      if (starts_with(name, "bitstream_gen")) generate_ns += total_ns;
      if (layer_of(name) == "multitask") sim_ns += total_ns;
      if (name == "sched_run") sched_ns += total_ns;
      if (name == "dse_explore") explore_ns += total_ns;
    }
  }
  const u64 api_ns = dispatch_ns - std::min(dispatch_ns, parse_ns);
  acc.layer_self_ns["api"] += api_ns - std::min(api_ns, engine_self_ns);
  acc.layer_self_ns["util"] += parse_ns;
  if (result.is_null()) return;
  const Json* cache = stats.is_null() ? nullptr : stats.find("cache");
  const bool generated =
      cache != nullptr && cache->find("bitstream_misses")->as_u64() > 0;
  if (generated && (request.op == "plan" || request.op == "bitstream")) {
    acc.generated_words += result.find("plan")
                               ->find("bitstream")
                               ->find("total_words")
                               ->as_u64();
    acc.generate_ns += generate_ns;
  }
  if (request.op == "faults") {
    acc.faults_sim_ns += sim_ns;
    acc.faults_tasks += request.tasks;
  }
  if (request.op == "schedule") {
    acc.sched_run_ns += sched_ns;
    acc.sched_tasks += result.find("task_count")->as_u64();
  }
  if (request.op == "explore") {
    acc.explore_points += result.find("points")->as_array().size();
    acc.explore_ns += explore_ns;
  }
}

void TracedDispatch::add_metrics(std::vector<Metric>& out, double wall_s,
                                 u64 untraced_ns) const {
  Acc all;
  for (const Acc& acc : accs_) {
    for (const auto& [op, latencies] : acc.dispatch_ns) {
      all.dispatch_ns[op].merge(latencies);
    }
    for (const auto& [name, phase] : acc.phases) {
      all.phases[name].count += phase.count;
      all.phases[name].total_ns += phase.total_ns;
    }
    for (const auto& [layer, ns] : acc.layer_self_ns) {
      all.layer_self_ns[layer] += ns;
    }
    all.requests += acc.requests;
    all.parse_ns += acc.parse_ns;
    all.dump_ns += acc.dump_ns;
    all.answer_bytes += acc.answer_bytes;
    all.generated_words += acc.generated_words;
    all.generate_ns += acc.generate_ns;
    all.faults_sim_ns += acc.faults_sim_ns;
    all.faults_tasks += acc.faults_tasks;
    all.sched_run_ns += acc.sched_run_ns;
    all.sched_tasks += acc.sched_tasks;
    all.explore_points += acc.explore_points;
    all.explore_ns += acc.explore_ns;
    all.traced_ns += acc.traced_ns;
  }
  all.layer_self_ns["util"] += all.dump_ns;

  for (const char* op :
       {"plan", "bitstream", "schedule", "explore", "optimize", "faults"}) {
    const auto it = all.dispatch_ns.find(op);
    out.push_back({std::string{"api.dispatch_us_p50."} + op,
                   it == all.dispatch_ns.end()
                       ? 0.0
                       : it->second.percentile(0.5) * 1e-3,
                   "us"});
  }
  const auto n = static_cast<double>(all.requests);
  out.push_back({"util.json_parse_us",
                 ratio(static_cast<double>(all.parse_ns) * 1e-3, n), "us"});
  out.push_back({"util.json_dump_us",
                 ratio(static_cast<double>(all.dump_ns) * 1e-3, n), "us"});
  out.push_back({"util.json_resp_bytes",
                 ratio(static_cast<double>(all.answer_bytes), n), "bytes"});

  const auto phase = [&](const char* name) {
    const auto it = all.phases.find(name);
    return it == all.phases.end() ? Phase{} : it->second;
  };
  const Phase synth = phase("synthesis");
  out.push_back({"synth.calls", static_cast<double>(synth.count), "count"});
  out.push_back({"synth.ms_per_call",
                 ratio(static_cast<double>(synth.total_ns) * 1e-6,
                       static_cast<double>(synth.count)),
                 "ms"});
  const Phase search = phase("prr_search");
  out.push_back(
      {"cost.find_prr_calls", static_cast<double>(search.count), "count"});
  out.push_back({"cost.find_prr_us",
                 ratio(static_cast<double>(search.total_ns) * 1e-3,
                       static_cast<double>(search.count)),
                 "us"});
  const Phase par = phase("par");
  out.push_back({"par.calls", static_cast<double>(par.count), "count"});
  out.push_back({"par.ms_per_call",
                 ratio(static_cast<double>(par.total_ns) * 1e-6,
                       static_cast<double>(par.count)),
                 "ms"});
  u64 self_total = 0;
  for (const auto& [layer, ns] : all.layer_self_ns) self_total += ns;
  const auto layer_self = [&](const char* layer) {
    const auto it = all.layer_self_ns.find(layer);
    return static_cast<double>(it == all.layer_self_ns.end() ? 0 : it->second);
  };
  out.push_back({"bitstream.words_generated",
                 static_cast<double>(all.generated_words), "count"});
  out.push_back({"bitstream.generate_us_per_kword",
                 ratio(static_cast<double>(all.generate_ns) * 1e-3,
                       static_cast<double>(all.generated_words) * 1e-3),
                 "us"});
  const Phase explore = phase("dse_explore");
  out.push_back({"dse.explore_ms_per_call",
                 ratio(static_cast<double>(explore.total_ns) * 1e-6,
                       static_cast<double>(explore.count)),
                 "ms"});
  out.push_back({"dse.points_per_s",
                 ratio(static_cast<double>(all.explore_points),
                       static_cast<double>(all.explore_ns) * 1e-9),
                 "1/s"});
  out.push_back({"sched.run_us_per_task",
                 ratio(static_cast<double>(all.sched_run_ns) * 1e-3,
                       static_cast<double>(all.sched_tasks)),
                 "us"});
  out.push_back({"multitask.simulate_us_per_task",
                 ratio(static_cast<double>(all.faults_sim_ns) * 1e-3,
                       static_cast<double>(all.faults_tasks)),
                 "us"});
  const Phase evaluate = phase("opt.evaluate");
  out.push_back({"opt.evaluate_us",
                 ratio(static_cast<double>(evaluate.total_ns) * 1e-3,
                       static_cast<double>(evaluate.count)),
                 "us"});
  // Self time of every product layer over the callers' traced wall time.
  const double product_self = static_cast<double>(self_total);
  out.push_back({"obs.self_coverage",
                 ratio(product_self * 1e-9,
                       wall_s * static_cast<double>(callers_)),
                 "frac"});
  out.push_back({"obs.trace_overhead_frac",
                 ratio(static_cast<double>(all.traced_ns),
                       static_cast<double>(untraced_ns)) -
                     1.0,
                 "frac"});
  for (const char* layer : {"api", "util", "synth", "cost", "par",
                            "bitstream", "dse", "sched", "multitask", "opt"}) {
    out.push_back({std::string{layer} + ".self_share",
                   ratio(layer_self(layer), product_self), "frac"});
  }
}

// ----------------------------------------------------------------- probes

double probe_floorplan_us(const Workload& workload) {
  const auto reqs = requirements(workload);
  u64 total_ns = 0;
  u64 calls = 0;
  std::string device;
  std::optional<prcost::Floorplanner> planner;
  for (const auto& [name, req] : reqs) {
    const prcost::Fabric& fabric =
        prcost::DeviceDb::instance().get(name).fabric;
    if (name != device) {
      device = name;
      planner.emplace(fabric);
    }
    const u64 start = now_ns();
    const bool placed = planner->place("p" + std::to_string(calls), req)
                            .has_value();
    total_ns += now_ns() - start;
    ++calls;
    if (!placed) planner.emplace(fabric);  // fabric full: start over
  }
  return ratio(static_cast<double>(total_ns) * 1e-3,
               static_cast<double>(calls));
}

/// Keeps the probe's CRC result observable, so the loop is not elided.
volatile u32 crc_sink = 0;

double probe_crc_gbps(const Workload& workload) {
  std::vector<std::shared_ptr<const std::vector<u32>>> streams;
  for (const auto& [name, req] : requirements(workload)) {
    const prcost::Fabric& fabric =
        prcost::DeviceDb::instance().get(name).fabric;
    const auto plan = prcost::find_prr_cached(req, fabric, {});
    if (plan) {
      streams.push_back(
          prcost::generate_bitstream_cached(*plan, fabric.family()));
    }
    if (streams.size() >= 32) break;
  }
  u64 bytes = 0;
  u32 state = 0;
  const u64 start = now_ns();
  while (now_ns() - start < 50'000'000) {
    for (const auto& words : streams) {
      state = prcost::config_crc_advance(prcost::active_crc_impl(), state,
                                         prcost::ConfigReg::kFdri, *words);
      bytes += words->size() * sizeof(u32);
    }
    if (streams.empty()) break;
  }
  const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
  crc_sink = state;
  return ratio(static_cast<double>(bytes) * 1e-9, seconds);
}

double probe_arrivals_us_per_task(const Workload& workload) {
  u64 total_ns = 0;
  u64 tasks = 0;
  for (const Request& request : workload.distinct) {
    if (request.op != "schedule") continue;
    const Json line = Json::parse(request.line);
    const std::string kind = line.find("workload")->as_string();
    if (kind == "trace") continue;
    prcost::sched::ArrivalParams params;
    params.count = static_cast<u32>(line.find("tasks")->as_u64());
    params.prm_count = static_cast<u32>(line.find("prms")->as_array().size());
    params.deadline_factor = line.find("deadline_factor")->as_double();
    params.seed = line.find("seed")->as_u64();
    const u64 start = now_ns();
    const auto generated = kind == "poisson"
                               ? prcost::sched::make_poisson(params)
                               : prcost::sched::make_bursty(params);
    total_ns += now_ns() - start;
    tasks += generated.size();
  }
  return ratio(static_cast<double>(total_ns) * 1e-3,
               static_cast<double>(tasks));
}

}  // namespace prbench
