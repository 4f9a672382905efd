// prbench: the prcost benchmark harness.
//
//   prbench --workload serve_lookup|design_cold|sched_stream --seed N
//           --seconds S --trace 0|1 [--toy] [--work-dir DIR]
//
// Sets the workload up several times, each from cold process state
// (reporting the median set-up time),
// runs it closed-loop for S seconds with every answer checked, and prints
// one JSON object as the last stdout line: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1 (an untraced pass, then a
// traced pass over exactly the same requests). Exits 0 only when every
// answer passed its check.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

#include "api/batch.hpp"
#include "bench.hpp"
#include "bitstream/bitstream_cache.hpp"
#include "cost/plan_cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace prbench {
namespace {

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  std::string work_dir = ".bench_build/work";
};

/// Everything one set-up builds; torn down before the next repeat.
struct Setup {
  std::unique_ptr<prcost::api::Engine> engine;
  std::unique_ptr<prcost::api::Engine> stats_engine;  ///< traced run only
  Workload workload;
  std::unique_ptr<Checker> checker;
  std::unique_ptr<prcost::serve::Server> server;
  std::atomic<bool> server_failed{false};  ///< run() threw
  std::thread server_thread;
  std::vector<prcost::serve::Client> clients;
  PassResult warmup;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  Issue socket_issue(const std::vector<u32>& order) {
    return [this, &order](u32 caller, u64 position) {
      return clients[caller].request(
          workload.distinct[order[position % order.size()]].line);
    };
  }
  Issue inprocess_issue(const std::vector<u32>& order) const {
    return [this, &order](u32, u64 position) {
      return prcost::api::dispatch_line(
                 *engine,
                 workload.distinct[order[position % order.size()]].line)
          .dump();
    };
  }

  ~Setup() {
    clients.clear();
    if (server) {
      server->stop();
      server_thread.join();
    }
  }
};

/// Restrict this thread, and every thread it starts from now on, to the
/// CPU it is running on.
void pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

std::unique_ptr<Setup> set_up(const Args& args, const std::string& dir) {
  auto s = std::make_unique<Setup>();
  prcost::api::Engine::Options options;
  s->engine = std::make_unique<prcost::api::Engine>(options);
  if (args.trace) {
    options.collect_stats = true;
    s->stats_engine = std::make_unique<prcost::api::Engine>(options);
  }
  s->workload = make_workload(args.workload, args.seed, args.toy, dir);
  write_files(s->workload);
  s->checker = std::make_unique<Checker>(s->workload);
  if (s->workload.socket) {
    // The server's threads and the clients share one vCPU. A request hands
    // off between threads several times; on a shared VM a hand-off to an
    // idle vCPU waits until the host runs that vCPU again, and whenever the
    // host was busy that cut throughput by up to 6x. On one vCPU a
    // hand-off is a context switch.
    pin_to_current_cpu();
    prcost::serve::ServerOptions server_options;
    server_options.unix_path = dir + "/serve.sock";
    s->server = std::make_unique<prcost::serve::Server>(*s->engine,
                                                        server_options);
    s->server->start();
    s->server_thread = std::thread{[setup = s.get()] {
      try {
        setup->server->run();
      } catch (const std::exception& error) {
        std::cerr << "prbench: server loop failed: " << error.what() << "\n";
        setup->server_failed = true;
      }
    }};
    for (u32 i = 0; i < s->workload.callers; ++i) {
      s->clients.push_back(
          prcost::serve::Client::connect_unix(server_options.unix_path));
    }
    // Warm-up: every distinct line once over the socket, fully checked.
    std::vector<u32> every(s->workload.distinct.size());
    std::iota(every.begin(), every.end(), 0u);
    PassLimit limit;
    limit.exact = every.size();
    s->warmup = run_pass(s->workload, every, *s->checker, s->workload.callers,
                         s->socket_issue(every), limit);
  }
  return s;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Json tally(const PassResult& pass) {
  Json j = Json::object();
  j.set("sent", pass.sent)
      .set("succeeded", pass.succeeded)
      .set("failed", pass.failed)
      .set("wall_s", pass.wall_s);
  return j;
}

/// Timing metrics of a timed pass: per window, correct answers per second
/// and the latency p50/p99; each metric is the median over the windows, so
/// a burst of host interference inside one window does not move it.
struct Windowed {
  double throughput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  u64 min_samples = 0;  ///< fewest latency samples behind one window
  std::vector<double> window_rps, window_p50_ms, window_p99_ms;
};

Windowed windowed(const PassResult& pass) {
  Windowed out;
  out.min_samples = ~u64{0};
  const std::size_t windows = pass.latency.size();
  for (std::size_t w = 0; w < windows; ++w) {
    const LatencyHistogram& latencies = pass.latency[w];
    out.min_samples = std::min(out.min_samples, latencies.count());
    const double length_s =
        w + 1 < windows
            ? pass.window_s
            : pass.wall_s - pass.window_s * static_cast<double>(windows - 1);
    if (latencies.count() == 0 || length_s <= 0) continue;
    out.window_rps.push_back(static_cast<double>(pass.succeeded_in[w]) /
                             length_s);
    out.window_p50_ms.push_back(latencies.percentile(0.50) * 1e-6);
    out.window_p99_ms.push_back(latencies.percentile(0.99) * 1e-6);
  }
  out.throughput_rps = median(out.window_rps);
  out.p50_ms = median(out.window_p50_ms);
  out.p99_ms = median(out.window_p99_ms);
  return out;
}

/// Tally plus the sample counts behind the percentiles.
Json timed_tally(const PassResult& pass) {
  Json j = tally(pass);
  const Windowed w = windowed(pass);
  const auto rank99 = static_cast<u64>(
      std::ceil(0.99 * static_cast<double>(w.min_samples)));
  j.set("latency_samples", pass.all_latencies().count())
      .set("windows", static_cast<u64>(pass.latency.size()))
      .set("min_window_samples", w.min_samples)
      .set("min_window_samples_beyond_p99", w.min_samples - rank99);
  const auto array = [](const std::vector<double>& values) {
    Json a = Json::array();
    for (const double v : values) a.push_back(v);
    return a;
  };
  j.set("window_rps", array(w.window_rps))
      .set("window_p50_ms", array(w.window_p50_ms))
      .set("window_p99_ms", array(w.window_p99_ms));
  return j;
}

/// Host CPU time stolen from this VM so far (the "steal" column of
/// /proc/stat, in clock ticks summed over CPUs); 0 where unavailable.
u64 steal_ticks() {
  std::ifstream stat{"/proc/stat"};
  std::string cpu;
  u64 fields[8] = {};
  stat >> cpu;
  for (u64& field : fields) stat >> field;
  return stat ? fields[7] : 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument{flag + " needs a value"};
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--toy") {
      args.toy = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else {
      throw std::invalid_argument{"unknown flag " + flag};
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

std::string work_dir_of(const Args& args, pid_t pid) {
  return args.work_dir + "/" + args.workload + "-" + std::to_string(pid);
}

/// A set-up timed from entering it to the first timed request, in a
/// directory emptied first (overwriting input files in place got slower
/// with every repeat).
std::unique_ptr<Setup> timed_set_up(const Args& args, const std::string& dir,
                                    double& seconds) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const u64 start = now_ns();
  std::unique_ptr<Setup> s = set_up(args, dir);
  seconds = static_cast<double>(now_ns() - start) * 1e-9;
  return s;
}

/// One set-up in a forked child; returns its time in seconds. The parent
/// forks before it touches any prcost state, so the child starts with
/// every process-wide memo cold (plan and bitstream caches, built-in PRM
/// synthesis, fabric window scans), as the process's own first set-up
/// does. Throws when the child's set-up or its warm-up checks fail.
double set_up_in_child(const Args& args) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error{"pipe failed"};
  std::cout.flush();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error{"fork failed"};
  if (pid == 0) {
    ::close(fds[0]);
    double seconds = -1;
    try {
      const std::string dir = work_dir_of(args, ::getpid());
      std::unique_ptr<Setup> s = timed_set_up(args, dir, seconds);
      if (s->checker->failures() != 0 || s->warmup.failed != 0 ||
          s->server_failed) {
        seconds = -1;
      }
      s.reset();
      std::filesystem::remove_all(dir);
    } catch (const std::exception& error) {
      std::cerr << "prbench: set-up failed: " << error.what() << "\n";
      seconds = -1;
    }
    const bool sent = ::write(fds[1], &seconds, sizeof seconds) ==
                      static_cast<ssize_t>(sizeof seconds);
    ::_exit(sent && seconds >= 0 ? 0 : 1);
  }
  ::close(fds[1]);
  double seconds = -1;
  const bool got = ::read(fds[0], &seconds, sizeof seconds) ==
                   static_cast<ssize_t>(sizeof seconds);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error{"set-up in a child process failed"};
  }
  return seconds;
}

int run(const Args& args) {
  const std::string dir = work_dir_of(args, ::getpid());

  // setup_s is the median of several cold set-ups: each of the first
  // repeats runs in a child process of its own, the last one is this
  // process's own set-up, which the timed phase then uses. The repeats are
  // spaced 100 ms apart (off the clock) so that one burst of host
  // interference lands in one repeat, not in all of them. A traced run
  // reports no setup_s and sets up once.
  const u32 repeats = args.trace ? 1 : args.toy ? 2 : 15;
  std::vector<double> setup_s;
  for (u32 r = 0; r + 1 < repeats; ++r) {
    if (r > 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    setup_s.push_back(set_up_in_child(args));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  double own_setup_s = 0;
  std::unique_ptr<Setup> s = timed_set_up(args, dir, own_setup_s);
  setup_s.push_back(own_setup_s);
  const Workload& w = s->workload;
  Checker& checker = *s->checker;
  const Issue primary = w.socket ? s->socket_issue(w.sequence)
                                 : s->inprocess_issue(w.sequence);

  // Timed phase (untraced). A continuous workload covers its whole
  // sequence at least once; a cold-round workload runs whole rounds.
  const auto counters0 = s->server ? s->server->counters()
                                   : prcost::serve::Server::Counters{};
  const auto plan0 = prcost::plan_cache_stats();
  const auto bits0 = prcost::bitstream_cache_stats();
  PassLimit limit;
  limit.seconds = args.trace ? 0.3 * args.seconds : args.seconds;
  limit.min_requests = w.sequence.size();
  const u64 steal0 = steal_ticks();
  PassResult timed =
      run_pass(w, w.sequence, checker, w.callers, primary, limit);
  const u64 steal1 = steal_ticks();
  const auto counters1 = s->server ? s->server->counters()
                                   : prcost::serve::Server::Counters{};
  const auto plan1 = prcost::plan_cache_stats();
  const auto bits1 = prcost::bitstream_cache_stats();

  Json accounting = Json::object();
  accounting.set("workload", w.name).set("seed", args.seed);
  Json setups = Json::array();
  for (const double t : setup_s) setups.push_back(t);
  accounting.set("setup_s", std::move(setups));
  accounting.set("warmup", tally(s->warmup));
  accounting.set("timed", timed_tally(timed));
  // Share of the VM's CPUs the host took away during the timed phase: a
  // run with a high value measured a slower machine.
  accounting.set("host_steal_frac",
                 static_cast<double>(steal1 - steal0) /
                     (static_cast<double>(::sysconf(_SC_CLK_TCK)) *
                      timed.wall_s *
                      static_cast<double>(std::max(
                          1u, std::thread::hardware_concurrency()))));

  u64 failed_elsewhere = s->warmup.failed;
  if (w.socket) {
    // A seeded sample of lines dispatched in-process must answer byte for
    // byte what the socket answered.
    prcost::Rng rng{args.seed ^ 0xB17E5ULL};
    std::vector<u32> sample;
    for (u32 i = 0; i < 64; ++i) {
      sample.push_back(static_cast<u32>(rng.below(w.distinct.size())));
    }
    PassLimit all;
    all.exact = sample.size();
    const PassResult inprocess =
        run_pass(w, sample, checker, 1, s->inprocess_issue(sample), all);
    accounting.set("inprocess_sample", tally(inprocess));
    failed_elsewhere += inprocess.failed;
  }

  const ModelTotals model = model_totals(w, checker.first_answers());
  std::vector<Metric> metrics;
  if (!args.trace) {
    const Windowed w_stats = windowed(timed);
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"throughput_rps", w_stats.throughput_rps, "1/s"});
    metrics.push_back({"p50_ms", w_stats.p50_ms, "ms"});
    metrics.push_back({"p99_ms", w_stats.p99_ms, "ms"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
    metrics.push_back({"success_rate",
                       static_cast<double>(timed.succeeded) /
                           static_cast<double>(std::max<u64>(timed.sent, 1)),
                       "frac"});
    const double tasks = static_cast<double>(std::max<u64>(model.tasks, 1));
    metrics.push_back({"model_reconfig_ms_per_task",
                       model.reconfig_s * 1e3 / tasks, "ms/task"});
    metrics.push_back({"model_deadline_miss_rate",
                       static_cast<double>(model.deadline_misses) / tasks,
                       "frac"});
  } else {
    // The same requests again, in-process: untraced (the reference for
    // the trace overhead and, on the socket workload, the serve overhead),
    // then traced.
    PassLimit same;
    same.exact = timed.sent;
    PassResult inprocess = run_pass(w, w.sequence, checker, w.callers,
                                    s->inprocess_issue(w.sequence), same);
    accounting.set("inprocess", tally(inprocess));
    failed_elsewhere += inprocess.failed;
    double serve_overhead_us = 0;
    if (w.socket) {
      serve_overhead_us = (timed.all_latencies().percentile(0.5) -
                           inprocess.all_latencies().percentile(0.5)) *
                          1e-3;
    }
    TracedDispatch traced{w, w.sequence, *s->stats_engine, w.callers};
    const PassResult traced_pass =
        run_pass(w, w.sequence, checker, w.callers,
                 [&traced](u32 caller, u64 position) {
                   return traced(caller, position);
                 },
                 same);
    accounting.set("traced", tally(traced_pass));
    failed_elsewhere += traced_pass.failed;

    const auto delta = [](u64 after, u64 before) {
      return static_cast<double>(after - before);
    };
    const auto rate = [](double hits, double misses) {
      return hits + misses > 0 ? hits / (hits + misses) : 0.0;
    };
    metrics.push_back({"serve.overhead_us_p50", serve_overhead_us, "us"});
    metrics.push_back({"serve.requests",
                       delta(counters1.requests, counters0.requests), "count"});
    metrics.push_back(
        {"serve.shed", delta(counters1.shed, counters0.shed), "count"});
    metrics.push_back({"serve.expired",
                       delta(counters1.expired, counters0.expired), "count"});
    traced.add_metrics(metrics, traced_pass.wall_s,
                       inprocess.all_latencies().sum_ns());
    metrics.push_back({"cost.floorplan_us", probe_floorplan_us(w), "us"});
    metrics.push_back({"cost.plan_cache_hit_rate",
                       rate(delta(plan1.hits, plan0.hits),
                            delta(plan1.misses, plan0.misses)),
                       "frac"});
    metrics.push_back({"cost.plan_cache_evictions",
                       delta(plan1.evictions, plan0.evictions), "count"});
    metrics.push_back({"bitstream.crc_gbps", probe_crc_gbps(w), "GB/s"});
    metrics.push_back({"bitstream.cache_hit_rate",
                       rate(delta(bits1.hits, bits0.hits),
                            delta(bits1.misses, bits0.misses)),
                       "frac"});
    metrics.push_back({"bitstream.cache_evictions",
                       delta(bits1.evictions, bits0.evictions), "count"});
    metrics.push_back({"bitstream.model_mismatch_bytes",
                       static_cast<double>(checker.model_mismatch_bytes()),
                       "bytes"});
    metrics.push_back({"sched.arrivals_us_per_task",
                       probe_arrivals_us_per_task(w), "us"});
    const auto count = [](u64 v) { return static_cast<double>(v); };
    metrics.push_back({"sched.tasks", count(model.tasks), "count"});
    metrics.push_back({"sched.reconfigs", count(model.reconfigs), "count"});
    metrics.push_back({"sched.reuse_hits", count(model.reuse_hits), "count"});
    metrics.push_back({"sched.prefetches", count(model.prefetches), "count"});
    metrics.push_back(
        {"sched.cpu_fallbacks", count(model.cpu_fallbacks), "count"});
    metrics.push_back(
        {"sched.deadline_misses", count(model.deadline_misses), "count"});
    metrics.push_back({"multitask.tasks", count(model.faults_tasks), "count"});
    metrics.push_back({"reconfig.transfers", count(model.transfers), "count"});
    metrics.push_back({"reconfig.retry_ratio",
                       model.transfers > 0 ? count(model.retries) /
                                                 count(model.transfers)
                                           : 0.0,
                       "frac"});
    metrics.push_back({"opt.proposals", count(model.proposals), "count"});
    metrics.push_back({"opt.accept_rate",
                       model.proposals > 0 ? count(model.accepted) /
                                                 count(model.proposals)
                                           : 0.0,
                       "frac"});

    const std::string trace_path =
        args.work_dir + "/trace-" + w.name + ".json";
    std::ofstream out{trace_path, std::ios::trunc};
    out << traced.log().chrome_json();
    accounting.set("trace_file", trace_path);
  }

  const u64 failures = checker.failures();
  const bool correct = failures == 0 && timed.failed == 0 &&
                       failed_elsewhere == 0 && timed.succeeded > 0 &&
                       !s->server_failed;
  accounting.set("check_failures", failures);
  Json wrapped = Json::object();
  wrapped.set("accounting", std::move(accounting));
  std::cout << wrapped.dump() << "\n";

  Json values = Json::object();
  for (const Metric& m : metrics) {
    Json v = Json::object();
    v.set("value", m.value).set("unit", m.unit);
    values.set(m.name, std::move(v));
  }
  Json result = Json::object();
  result.set("correct", correct)
      .set("attempted", timed.sent)
      .set("failed", timed.failed + failed_elsewhere)
      .set("metrics", std::move(values));
  s.reset();
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace prbench

int main(int argc, char** argv) {
  prbench::Args args;
  try {
    if (!prbench::parse_args(argc, argv, args)) {
      std::cerr << "usage: prbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 [--toy] [--work-dir DIR]\n";
      return 2;
    }
    return prbench::run(args);
  } catch (const std::exception& error) {
    std::cerr << "prbench: " << error.what() << "\n";
    return 2;
  }
}
