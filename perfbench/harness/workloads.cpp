// Seeded request generators for the three benchmark workloads.
#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "api/requests.hpp"
#include "bench.hpp"
#include "netlist/generators.hpp"
#include "netlist/serialize.hpp"
#include "sched/generators.hpp"
#include "synth/report.hpp"
#include "util/rng.hpp"

namespace prbench {
namespace {

using prcost::Rng;

const std::vector<std::string>& devices() {
  static const std::vector<std::string> names{
      "xc5vlx110t", "xc6vlx75t",  "xc4vlx60", "xc5vlx50t",
      "xc6vlx240t", "xc7k325t",   "xc6slx45"};
  return names;
}

/// Built-in PRMs that fit no PRR on a device: matmul fits only the
/// xc6vlx75t and the xc7k325t, fft only the xc6vlx75t and the xc6slx45.
bool builtin_infeasible(const std::string& device, const std::string& prm) {
  if (prm == "matmul") return device != "xc6vlx75t" && device != "xc7k325t";
  if (prm == "fft") return device != "xc6vlx75t" && device != "xc6slx45";
  return false;
}

Json names_json(const std::vector<std::string>& names) {
  Json array = Json::array();
  for (const std::string& name : names) array.push_back(name);
  return array;
}

void shuffle(Rng& rng, std::vector<u32>& items) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

u32 add(Workload& w, std::string op, Json request, std::string expect = {},
        u64 tasks = 0) {
  request.set("id", static_cast<u64>(w.distinct.size()));
  w.distinct.push_back(
      Request{std::move(op), request.dump(), std::move(expect), tasks});
  return static_cast<u32>(w.distinct.size() - 1);
}

/// Fixed schedule scenarios: device, PRM set and slot count. The seed
/// only draws each request's arrival stream, so the workload's make-up
/// (and its simulated totals, up to sampling noise) is the same for every
/// seed.
struct Scenario {
  const char* device;
  std::vector<std::string> prms;
  u32 slots;
};
const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> table{
      {"xc7k325t", {"fir", "sdram", "uart"}, 2},
      {"xc6vlx75t", {"fir", "sdram", "uart", "crc32"}, 2},
      {"xc7k325t", {"fir", "sdram", "uart", "crc32", "aes"}, 3},
      {"xc6vlx75t", {"sdram", "uart", "crc32", "aes"}, 3}};
  return table;
}

/// Schedule request `variant` of the grid scenario x policy x arrival
/// shape x prefetch on/off, with deadlines and CPU fallback, over a seeded
/// arrival stream. The mean inter-arrival time keeps the slots about 70 %
/// busy (5 ms tasks): near saturation the backlog, and with it the cost of
/// a run, swings with the seed (up to 2.7x between streams of one
/// scenario), while bursts still miss deadlines at 70 %.
Json schedule_request(Rng& rng, u32 tasks, u32 variant) {
  static const std::vector<std::string> policies{"fcfs", "priority", "edf"};
  const Scenario& scenario = scenarios()[variant % scenarios().size()];
  Json j = Json::object();
  j.set("op", "schedule")
      .set("device", scenario.device)
      .set("prms", names_json(scenario.prms))
      .set("slots", scenario.slots)
      .set("policy", policies[variant % 3])
      .set("workload", (variant / 3) % 2 == 0 ? "poisson" : "bursty")
      .set("tasks", tasks)
      .set("seed", rng.below(1u << 30))
      .set("mean_interarrival_s", 8.0e-3 / scenario.slots)
      .set("deadline_factor", 3.0 + static_cast<double>(variant % 4))
      .set("prefetch_rate_hz", variant % 2 == 0 ? 200.0 : 0.0)
      .set("cpu_workers", static_cast<u64>(2));
  return j;
}

// ------------------------------------------------------- serve_lookup --

Workload serve_lookup(u64 seed, bool toy) {
  Rng rng{seed ^ 0x5E7E100CULL};
  Workload w;
  w.name = "serve_lookup";
  w.socket = true;
  w.callers = 4;
  std::vector<u32> lookups;
  for (const std::string& device : devices()) {
    for (const std::string& prm : prcost::api::builtin_prm_names()) {
      const std::string expect =
          builtin_infeasible(device, prm) ? "infeasible" : "";
      Json plan = Json::object();
      plan.set("op", "plan").set("device", device).set("prm", prm);
      plan.set("cross_check", false);
      lookups.push_back(add(w, "plan", std::move(plan), expect));
      Json bits = Json::object();
      bits.set("op", "bitstream").set("device", device).set("prm", prm);
      lookups.push_back(add(w, "bitstream", std::move(bits), expect));
    }
  }
  std::vector<u32> schedules;
  const u32 schedule_count = toy ? 6 : 96;
  const u32 schedule_tasks = toy ? 40 : 200;
  for (u32 i = 0; i < schedule_count; ++i) {
    schedules.push_back(add(w, "schedule",
                            schedule_request(rng, schedule_tasks, i), {},
                            schedule_tasks));
  }
  // Each short schedule line once (2.3% of the sequence), the rest
  // cache-hot lookups spread evenly over every key; the seed only shuffles
  // the order.
  const u32 length = toy ? 512 : 4096;
  w.sequence = schedules;
  for (std::size_t i = w.sequence.size(); i < length; ++i) {
    w.sequence.push_back(lookups[i % lookups.size()]);
  }
  shuffle(rng, w.sequence);
  return w;
}

// -------------------------------------------------------- design_cold --

/// Parametric netlists with similar PAR cost across seeds: the seed only
/// nudges each design's size by a step or two.
prcost::Netlist design_netlist(u32 index, Rng& rng) {
  const u32 jitter = static_cast<u32>(rng.below(3));
  switch (index % 6) {
    case 0: {
      prcost::FirParams p;
      p.taps = 10 + jitter;
      p.symmetric_pairs = 2;
      return prcost::make_fir(p);
    }
    case 1:
      return prcost::make_crc32(24 + 4 * jitter);
    case 2: {
      prcost::SdramParams p;
      p.data_width = 16 + 4 * jitter;
      return prcost::make_sdram_ctrl(p);
    }
    case 3:
      return prcost::make_uart(12 + jitter);
    case 4:
      return prcost::make_sobel(128 + 32 * jitter, 8);
    default:
      return prcost::make_fft_stage(32 << jitter, 12);
  }
}

/// Requirement tuple `index` of `count`: LUT, FF and pair counts stratified
/// over their ranges (the seed only jitters within a stratum) and DSP/BRAM
/// counts on a fixed grid, so every seed gets the same size mix. With 1200
/// LUTs or more the PRR window is wide enough to take in the DSP and BRAM
/// columns a tuple asks for on every catalog device.
prcost::SynthesisReport seeded_report(Rng& rng, u32 index, u32 count) {
  const auto stratum = [&](u64 lo, u64 span, u64 slot) {
    return lo + span * slot / count + rng.below(span / count + 1);
  };
  prcost::SynthesisReport r;
  r.module_name = "req" + std::to_string(index);
  r.slice_luts = stratum(1200, 2800, index);
  r.slice_ffs = stratum(100, 2400, (index * 7u) % count);
  // Pairs lie between max(LUT, FF) and LUT + FF; half the smaller count
  // spans the unpaired share, stratified too.
  const u64 unpaired = std::min(r.slice_luts, r.slice_ffs) / 2;
  r.lut_ff_pairs = std::max(r.slice_luts, r.slice_ffs) +
                   unpaired * ((index * 3u) % count) / count;
  r.dsps = index % 9;
  r.brams = (index / 9) % 5;
  return r;
}

Workload design_cold(u64 seed, bool toy, const std::string& dir) {
  Rng rng{seed ^ 0xC01DC01DULL};
  Workload w;
  w.name = "design_cold";
  w.cold_rounds = true;
  w.callers = 4;
  const u32 netlists = toy ? 3 : 12;
  const u32 reports = toy ? 2 : 40;
  const u32 explores = toy ? 1 : 4;
  const u32 schedules = toy ? 1 : 8;
  // Issue order within a round: the expensive classes first (longest
  // processing time first keeps the four callers busy to the round's end),
  // shuffled within each class.
  std::vector<std::vector<u32>> classes(4);
  // One device per design_netlist kind; the FFT stage fits the xc6vlx75t.
  static const std::vector<std::string> plan_devices{
      "xc7k325t", "xc6vlx240t", "xc7k325t",
      "xc6vlx240t", "xc7k325t", "xc6vlx75t"};
  for (u32 i = 0; i < netlists; ++i) {
    const std::string path = dir + "/design" + std::to_string(i) + ".net";
    w.files.emplace_back(path,
                         prcost::netlist_to_text(design_netlist(i, rng)));
    Json j = Json::object();
    j.set("op", "plan")
        .set("device", plan_devices[i % plan_devices.size()])
        .set("netlist", path)
        .set("cross_check", true);
    classes[0].push_back(add(w, "plan", std::move(j)));
  }
  static const std::vector<Scenario> explore_sets{
      {"xc7k325t", {"fir", "sdram", "uart", "crc32"}, 0},
      {"xc6vlx240t", {"sdram", "uart", "crc32", "aes"}, 0},
      {"xc5vlx110t", {"fir", "uart", "crc32", "sobel"}, 0},
      {"xc6vlx75t", {"fir", "sdram", "aes", "sobel"}, 0}};
  for (u32 i = 0; i < explores; ++i) {
    const Scenario& set = explore_sets[i % explore_sets.size()];
    Json j = Json::object();
    j.set("op", "explore")
        .set("device", set.device)
        .set("prms", names_json(set.prms))
        .set("workers", static_cast<u64>(1))
        .set("seed", rng.below(1u << 30))
        .set("cross_check", true);
    classes[1].push_back(add(w, "explore", std::move(j)));
  }
  const u32 schedule_tasks = toy ? 200 : 5000;
  for (u32 i = 0; i < schedules; ++i) {
    classes[2].push_back(add(w, "schedule",
                             schedule_request(rng, schedule_tasks, i), {},
                             schedule_tasks));
  }
  // Each report on every device: 7x as many distinct bitstreams as
  // report files, more than the bitstream cache's 128 entries.
  for (u32 i = 0; i < reports; ++i) {
    const std::string path = dir + "/req" + std::to_string(i) + ".srp";
    w.files.emplace_back(
        path, prcost::report_to_text(seeded_report(rng, i, reports)));
    for (const std::string& device : devices()) {
      Json j = Json::object();
      j.set("op", "bitstream").set("device", device).set("report", path);
      classes[3].push_back(add(w, "bitstream", std::move(j)));
    }
  }
  for (std::vector<u32>& members : classes) {
    shuffle(rng, members);
    w.sequence.insert(w.sequence.end(), members.begin(), members.end());
  }
  return w;
}

// ------------------------------------------------------- sched_stream --

Workload sched_stream(u64 seed, bool toy) {
  Rng rng{seed ^ 0x57EA4ULL};
  Workload w;
  w.name = "sched_stream";
  // Four callers and 2000-task streams: across runs on a shared 4-vCPU
  // host this spread about half as much as two callers with 10000-task
  // streams (see perfbench/NOTES.md).
  w.callers = 4;
  // Many equal-length streams rather than a few long ones: request costs
  // then form one continuum around the median instead of two clusters.
  const u32 tasks = toy ? 500 : 2000;
  const u32 schedules = toy ? 4 : 24;
  for (u32 i = 0; i < schedules; ++i) {
    Json j = schedule_request(rng, tasks, i);
    if (i % 3 == 1) {
      j.set("fault_rate", 0.02).set("max_retries", static_cast<u64>(3));
    }
    add(w, "schedule", std::move(j), {}, tasks);
  }
  // Replayed traces: the arrival stream travels inside the request.
  const u32 trace_tasks = toy ? 100 : 500;
  for (u32 i = 0; i < 2; ++i) {
    Json j = schedule_request(rng, trace_tasks, i);
    prcost::sched::ArrivalParams params;
    params.count = trace_tasks;
    params.prm_count = static_cast<u32>(scenarios()[i].prms.size());
    params.deadline_factor = 4.0;
    params.seed = rng.below(1u << 30);
    j.set("workload", "trace")
        .set("trace", prcost::sched::dump_trace(
                          prcost::sched::make_bursty(params)));
    add(w, "schedule", std::move(j), {}, trace_tasks);
  }
  const u32 fault_tasks = toy ? 200 : 1000;
  static const std::vector<std::vector<std::string>> fault_sets{
      {"fir", "sdram", "uart"},
      {"sdram", "uart", "crc32"},
      {"fir", "crc32", "aes"},
      {"fir", "sdram", "aes"}};
  for (u32 i = 0; i < 4; ++i) {
    Json j = Json::object();
    j.set("op", "faults")
        .set("device", "xc7k325t")
        .set("prms", names_json(fault_sets[i]))
        .set("prr_count", static_cast<u64>(2))
        .set("tasks", fault_tasks)
        .set("seed", rng.below(1u << 30))
        .set("fault_rate", 0.05)
        .set("fault_seed", rng.below(1u << 30))
        .set("max_retries", static_cast<u64>(3))
        .set("recovery", i % 2 == 0 ? "reschedule" : "drop");
    add(w, "faults", std::move(j), {}, fault_tasks);
  }
  // Optimize a fixed built-in fleet; the seed drives only the annealer, so
  // the set of plans (and cached bitstreams) it can reach stays the same.
  static const std::vector<std::string> fleet{"fir",   "sdram", "uart",
                                              "crc32", "aes",   "sobel"};
  for (u32 i = 0; i < 4; ++i) {
    Json j = Json::object();
    j.set("op", "optimize")
        .set("device", i % 2 == 0 ? "xc7k325t" : "xc6vlx240t")
        .set("prms", names_json(fleet))
        .set("seed", rng.below(1u << 30))
        .set("rounds", static_cast<u64>(toy ? 4 : 12))
        .set("proposals_per_round", static_cast<u64>(4))
        .set("workers", static_cast<u64>(1));
    add(w, "optimize", std::move(j));
  }
  for (u32 i = 0; i < w.distinct.size(); ++i) w.sequence.push_back(i);
  shuffle(rng, w.sequence);
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, u64 seed, bool toy,
                       const std::string& work_dir) {
  if (name == "serve_lookup") return serve_lookup(seed, toy);
  if (name == "design_cold") return design_cold(seed, toy, work_dir);
  if (name == "sched_stream") return sched_stream(seed, toy);
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

void write_files(const Workload& workload) {
  for (const auto& [path, contents] : workload.files) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << contents;
    if (!out) throw std::runtime_error{"cannot write " + path};
  }
}

}  // namespace prbench
