// prcost command-line tool. Every op command is a row of the op table
// (src/api/ops.hpp): argv becomes a request Json through the row's flag
// spec, runs the same request-from-JSON -> Engine path that `batch` and
// `serve` dispatch, and prints with the row's text renderer. Only
// netlist, batch, serve and client are commands of their own here, so no
// evaluation logic lives in this file. print_usage lists every command
// and flag.
//
// Exit codes: 0 success, 1 runtime failure (unknown device/PRM, missing
// file, infeasible PRR...), 2 usage error (only usage errors print the
// usage banner).
//
// PRMs: the built-in catalog, api::builtin_prm_names() (fir mips sdram aes
// crc32 uart matmul sobel fft).
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "api/ops.hpp"
#include "api/requests.hpp"
#include "netlist/serialize.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace prcost;
using api::Engine;

void print_usage(std::ostream& out) {
  out <<
      "usage:\n"
      "  prcost devices\n"
      "  prcost synth <prm> [--family v4|v5|v6|s7|s6] [-o report.srp]\n"
      "  prcost plan <prm> --device <name> [--report file.srp]\n"
      "              [--objective area|height|bitstream] [--shaped]\n"
      "  prcost bitstream <prm> --device <name> [-o out.bit]\n"
      "  prcost explore --device <name> <prm> <prm> [...] [--workers N]\n"
      "              [--cross-check]  (generate + verify Pareto-front\n"
      "               bitstreams against the Eq. 18 model)\n"
      "  prcost netlist <prm> [-o design.net]\n"
      "  prcost rank <prm> <prm> [...] [--workers N]\n"
      "  prcost faults <prm> [...] --device <name> [--prrs N] [--tasks N]\n"
      "              [--seed N] [--media cf|flash|ddr|bram]\n"
      "              [--recovery drop|reschedule] [--strict]\n"
      "              (multitask simulation under fault injection; set the\n"
      "               rate with the global --fault-rate flag)\n"
      "  prcost optimize --device <name> (<prm> [...] | --prm-count N)\n"
      "              [--groups N] [--seed N] [--rounds N] [--proposals N]\n"
      "              [--media cf|flash|ddr|bram] [--workers N]\n"
      "              (joint partition-schedule-floorplan optimization:\n"
      "               greedy baseline vs simulated annealing over\n"
      "               swap/relocate/resize/compact moves, costed through\n"
      "               the bitstream + reconfiguration + fault models)\n"
      "  prcost schedule <prm> [...] --device <name> [--slots N]\n"
      "              [--policy fcfs|priority|edf]\n"
      "              [--workload poisson|bursty | --trace FILE]\n"
      "              [--tasks N] [--seed N] [--deadline-factor X]\n"
      "              [--media cf|flash|ddr|bram] [--warm-media ...]\n"
      "              [--prefetch-rate HZ] [--cpu-workers N]\n"
      "              [--cpu-slowdown X] [--dump-trace FILE]\n"
      "              (online event-driven scheduler over floorplanned PRR\n"
      "               slots: reconfiguration-aware placement priced through\n"
      "               the controller + fault-retry models, arrival-rate-\n"
      "               triggered bitstream prefetch, CPU fallback for\n"
      "               deadline-infeasible placements)\n"
      "  prcost batch [requests.jsonl] [--workers N] [-o responses.jsonl]\n"
      "              (JSONL requests from the file or stdin, streamed in\n"
      "               bounded windows; exactly one JSON response per line -\n"
      "               see README \"Batch mode\")\n"
      "  prcost serve (--socket PATH | --port N [--host H]) [--max-queue N]\n"
      "              [--max-inflight N] [--dispatch-batch N] [--workers N]\n"
      "              [--drain-grace-ms N]\n"
      "              (warm multi-tenant daemon: one shared engine, JSONL\n"
      "               over unix/TCP sockets with the batch wire contract\n"
      "               plus \"ping\" and \"metrics\" ops; bounded admission\n"
      "               queue sheds with the \"overloaded\" code; SIGTERM\n"
      "               drains in-flight work, flushes --cache-dir snapshots\n"
      "               and exits 0 - see README \"Serve mode\")\n"
      "  prcost client (--socket PATH | --port N [--host H])\n"
      "              [requests.jsonl]\n"
      "              (send JSONL requests from the file or stdin to a\n"
      "               daemon; one response line per request on stdout)\n"
      "global flags (any command):\n"
      "  --fault-rate P      probability a bitstream transfer is corrupted\n"
      "                      (0..1, default 0 = faults off)\n"
      "  --stall-rate P      probability of a storage-media stall (0..1)\n"
      "  --fault-seed N      fault injector seed (runs are reproducible)\n"
      "  --max-retries N     verified-transfer retry budget (default 3)\n"
      "  --stats             attach request-scoped telemetry to every\n"
      "                      response (wall time, per-phase times, cache\n"
      "                      hits/misses, retries, allocations); batch\n"
      "                      lines gain a result.stats block\n"
      "  --trace-out FILE    record spans, write Chrome trace-event JSON\n"
      "                      (open at https://ui.perfetto.dev)\n"
      "  --trace-folded FILE record spans, write flamegraph folded stacks\n"
      "  --metrics-out FILE  write the metrics registry as JSON\n"
      "                      (FILE '-' sends any of these to stderr,\n"
      "                       keeping stdout results intact)\n"
      "  --log-level LVL     debug|info|warn|error|off (default warn)\n"
      "  --cache-dir DIR     persist the plan/bitstream caches as warm-\n"
      "                      start snapshots in DIR (loaded on startup,\n"
      "                      saved on success; missing or corrupt\n"
      "                      snapshots cold-start cleanly and output is\n"
      "                      byte-identical either way)\n"
      "  --workers N         parallel workers for explore/rank/batch\n"
      "                      (0 = auto)\n"
      "prms:";
  for (const std::string& prm : api::builtin_prm_names()) out << ' ' << prm;
  out << "\n"
      "netlist files: prcost netlist <prm> -o design.net; "
      "then --netlist design.net\n"
      "exit codes: 0 ok, 1 runtime failure, 2 usage error\n";
}

/// Tiny flag parser: positional args plus --key value / -o value pairs.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  bool has(const std::string& key) const { return flags.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

/// A flag that takes no value: --stats, or a kBool flag of any op (for
/// every command, as a value-taking parse would swallow the next token).
bool is_switch(const std::string& key) {
  if (key == "stats") return true;
  for (const api::Op& op : api::ops()) {
    for (const api::CliFlag& flag : op.flags) {
      if (flag.kind == api::FlagKind::kBool && flag.flag == key) return true;
    }
  }
  return false;
}

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0 || token == "-o") {
      const std::string key = token.rfind("--", 0) == 0 ? token.substr(2)
                                                        : "out";
      if (is_switch(key)) {
        args.flags[key] = "1";
        continue;
      }
      if (i + 1 >= argc) throw UsageError{"flag " + token + " needs a value"};
      args.flags[key] = argv[++i];
    } else {
      args.positional.push_back(std::move(token));
    }
  }
  return args;
}

/// Parse an unsigned flag; malformed values surface the parse error under
/// the flag's own name.
u64 u64_flag(const Args& args, const std::string& key, u64 fallback) {
  if (!args.has(key)) return fallback;
  try {
    return parse_u64(args.get(key, ""));
  } catch (const std::exception& error) {
    throw UsageError{"--" + key + ": " + std::string{error.what()}};
  }
}

/// Parse a floating-point flag the same way.
double double_flag(const Args& args, const std::string& key, double fallback) {
  if (!args.has(key)) return fallback;
  try {
    return parse_double(args.get(key, ""));
  } catch (const std::exception& error) {
    throw UsageError{"--" + key + ": " + std::string{error.what()}};
  }
}

/// argv -> request Json through the op's flag spec; a value that does not
/// parse is a usage error naming its flag.
Json request_from_args(const api::Op& op, const Args& args) {
  Json request = Json::object();
  bool has_source = false;
  for (const api::CliFlag& spec : op.flags) {
    const std::string flag{spec.flag};
    if (!args.has(flag)) continue;
    const std::string key{spec.key};
    const std::string value = args.get(flag, "");
    switch (spec.kind) {
      case api::FlagKind::kString:
        request.set(key, value);
        break;
      case api::FlagKind::kU64:
        request.set(key, u64_flag(args, flag, 0));
        break;
      case api::FlagKind::kDouble:
        request.set(key, double_flag(args, flag, 0));
        break;
      case api::FlagKind::kBool:
        request.set(key, true);
        break;
      case api::FlagKind::kFileText: {
        std::ifstream in{value};
        if (!in) throw IoError{"cannot open " + flag + " file '" + value + "'"};
        std::stringstream buffer;
        buffer << in.rdbuf();
        request.set(key, buffer.str());
        break;
      }
      case api::FlagKind::kPrmSource:
        // --netlist beats --report (spec order) beats a positional PRM.
        if (!has_source) request.set(key, value);
        has_source = true;
        break;
    }
  }
  if (op.positionals == api::Positionals::kPrm && !has_source &&
      !args.positional.empty()) {
    request.set("prm", args.positional[0]);
  } else if (op.positionals == api::Positionals::kPrms) {
    Json prms = Json::array();
    for (const std::string& prm : args.positional) prms.push_back(prm);
    request.set("prms", std::move(prms));
  }
  return request;
}

/// Run an op command: check --device, build the request, and print the
/// Engine's answer with the op's renderer.
int run_op(const Engine& engine, const api::Op& op, const Args& args) {
  for (const api::CliFlag& spec : op.flags) {
    if (spec.key == "device" && !args.has("device")) {
      throw UsageError{std::string{op.name} + " needs --device"};
    }
  }
  return op.render(engine, request_from_args(op, args), std::cout);
}

int cmd_netlist(const Args& args) {
  if (args.positional.empty()) throw UsageError{"netlist needs a PRM"};
  const std::string text =
      netlist_to_text(api::make_builtin_prm(args.positional[0]));
  if (args.has("out")) {
    std::ofstream out{args.get("out", "")};
    out << text;
    if (!out.flush()) {
      throw IoError{"cannot write output file '" + args.get("out", "") + "'"};
    }
    std::cout << "wrote " << args.get("out", "") << '\n';
  } else {
    std::cout << text;
  }
  return 0;
}

int cmd_batch(const Engine& engine, const Args& args) {
  api::BatchOptions options;
  options.workers = narrow<std::size_t>(u64_flag(args, "workers", 0));

  std::ifstream file;
  std::istream* in = &std::cin;
  if (!args.positional.empty()) {
    file.open(args.positional[0]);
    if (!file) {
      throw IoError{"cannot open batch file '" + args.positional[0] + "'"};
    }
    in = &file;
  }
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (args.has("out")) {
    out_file.open(args.get("out", ""));
    if (!out_file) {
      throw IoError{"cannot open output file '" + args.get("out", "") + "'"};
    }
    out = &out_file;
  }

  const api::BatchStats stats = api::run_batch(engine, *in, *out, options);
  // Tally on stderr so stdout stays pure JSONL. Per-request failures are
  // structured responses, not process failures: exit 0 either way.
  std::cerr << "batch: " << stats.requests << " requests, " << stats.succeeded
            << " ok, " << stats.failed << " failed\n";
  return 0;
}

int cmd_serve(const Engine& engine, const Args& args) {
  serve::ServerOptions options;
  options.unix_path = args.get("socket", "");
  if (args.has("port")) {
    options.tcp_port = narrow<int>(u64_flag(args, "port", 0));
  }
  options.tcp_host = args.get("host", options.tcp_host);
  options.max_queue =
      narrow<std::size_t>(u64_flag(args, "max-queue", options.max_queue));
  options.max_inflight_per_conn = narrow<std::size_t>(
      u64_flag(args, "max-inflight", options.max_inflight_per_conn));
  options.dispatch_batch = narrow<std::size_t>(
      u64_flag(args, "dispatch-batch", options.dispatch_batch));
  options.workers = narrow<std::size_t>(u64_flag(args, "workers", 0));
  options.drain_grace_ms = narrow<int>(
      u64_flag(args, "drain-grace-ms",
               static_cast<u64>(options.drain_grace_ms)));
  if (options.unix_path.empty() && !args.has("port")) {
    throw UsageError{"serve needs --socket PATH and/or --port N"};
  }

  serve::Server server{engine, options};
  server.start();
  server.install_signal_handlers();
  // Readiness line (flushed): scripts wait for it, and an ephemeral
  // --port 0 bind is only discoverable here.
  std::cout << "serve: listening on";
  if (!options.unix_path.empty()) {
    std::cout << " unix:" << options.unix_path;
  }
  if (server.tcp_port() >= 0) {
    std::cout << " tcp:" << options.tcp_host << ":" << server.tcp_port();
  }
  std::cout << std::endl;

  server.run();  // returns after a graceful drain (stop()/SIGTERM/SIGINT)

  const serve::Server::Counters totals = server.counters();
  std::cout << "serve: " << totals.accepted << " connection(s), "
            << totals.requests << " request(s), " << totals.responses
            << " response(s), " << totals.shed << " shed\n";
  // main() calls engine.save_caches() on rc 0: the drain path flushes
  // warm-start snapshots before the process exits.
  return 0;
}

int cmd_client(const Args& args) {
  serve::Client client;
  if (args.has("socket")) {
    client = serve::Client::connect_unix(args.get("socket", ""));
  } else if (args.has("port")) {
    client = serve::Client::connect_tcp(args.get("host", "127.0.0.1"),
                                        narrow<int>(u64_flag(args, "port", 0)));
  } else {
    throw UsageError{"client needs --socket PATH or --port N"};
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (!args.positional.empty()) {
    file.open(args.positional[0]);
    if (!file) {
      throw IoError{"cannot open requests file '" + args.positional[0] + "'"};
    }
    in = &file;
  }
  std::string line;
  while (std::getline(*in, line)) {
    std::cout << client.request(line) << '\n';
  }
  std::cout.flush();
  return 0;
}

/// Global observability flags: --trace-out, --trace-folded, --metrics-out,
/// --log-level.
struct ObsOptions {
  std::string trace_out;
  std::string trace_folded;
  std::string metrics_out;
  bool traced() const {
    return !trace_out.empty() || !trace_folded.empty();
  }
  bool active() const { return traced() || !metrics_out.empty(); }
};

ObsOptions configure_obs(const Args& args) {
  if (args.has("log-level")) {
    const auto level = parse_log_level(args.get("log-level", ""));
    if (!level) {
      throw UsageError{"unknown log level '" + args.get("log-level", "") +
                       "'"};
    }
    set_log_level(*level);
  }
  ObsOptions options;
  options.trace_out = args.get("trace-out", "");
  options.trace_folded = args.get("trace-folded", "");
  options.metrics_out = args.get("metrics-out", "");
  if (options.traced()) obs::set_tracing(true);
  if (options.active()) obs::set_metrics_enabled(true);
  return options;
}

/// Write one observability artifact to `path`, where "-" means stderr
/// (never stdout: the command's result output must stay intact there).
/// Returns false when a file could not be written.
template <typename Writer>
bool write_obs_artifact(const std::string& path, const char* what,
                        Writer&& writer) {
  if (path == "-") {
    writer(std::cerr);
    return true;
  }
  std::ofstream out{path};
  writer(out);
  if (!out) {
    std::cerr << "error: cannot write " << what << " to '" << path << "'\n";
    return false;
  }
  return true;
}

/// Write the requested artifacts and print the end-of-run summary.
/// Returns nonzero if an output file could not be written.
int finalize_obs(const ObsOptions& options) {
  if (!options.active()) return 0;
  int rc = 0;
  const bool traced = options.traced();
  obs::set_tracing(false);
  if (!options.trace_out.empty() &&
      !write_obs_artifact(options.trace_out, "trace", [](std::ostream& out) {
        obs::write_chrome_trace(out);
        out << '\n';
      })) {
    rc = 1;
  }
  if (!options.trace_folded.empty() &&
      !write_obs_artifact(options.trace_folded, "folded stacks",
                          [](std::ostream& out) {
                            obs::write_folded_stacks(out);
                          })) {
    rc = 1;
  }
  if (!options.metrics_out.empty() &&
      !write_obs_artifact(options.metrics_out, "metrics",
                          [](std::ostream& out) {
                            out << obs::registry().to_json() << '\n';
                          })) {
    rc = 1;
  }

  std::cout << "\n=== metrics ===\n";
  TextTable metrics{{"metric", "value"}};
  for (const auto& snap : obs::registry().snapshot()) {
    switch (snap.kind) {
      case obs::MetricKind::kCounter:
        metrics.add_row({snap.name, std::to_string(snap.count)});
        break;
      case obs::MetricKind::kGauge:
        metrics.add_row({snap.name, format_fixed(snap.value, 3)});
        break;
      case obs::MetricKind::kHistogram:
        metrics.add_row({snap.name, "count=" + std::to_string(snap.count) +
                                        " sum=" + format_fixed(snap.value, 0)});
        break;
    }
  }
  std::cout << metrics.to_ascii();
  if (traced) {
    std::cout << "\n=== span self-time";
    if (!options.trace_out.empty()) {
      std::cout << " (open " << options.trace_out
                << " at https://ui.perfetto.dev)";
    }
    std::cout << " ===\n" << obs::trace_summary_table().to_ascii();
    if (obs::trace_dropped_count() > 0) {
      std::cout << "note: " << obs::trace_dropped_count()
                << " spans dropped (per-thread ring wrapped)\n";
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args = parse_args(argc, argv, 2);
    const ObsOptions obs_options = configure_obs(args);
    Engine::Options engine_options;
    engine_options.fault_rate =
        double_flag(args, "fault-rate", engine_options.fault_rate);
    engine_options.stall_rate =
        double_flag(args, "stall-rate", engine_options.stall_rate);
    engine_options.fault_seed =
        u64_flag(args, "fault-seed", engine_options.fault_seed);
    engine_options.max_retries = narrow<u32>(
        u64_flag(args, "max-retries", engine_options.max_retries));
    engine_options.collect_stats = args.has("stats");
    engine_options.cache_dir = args.get("cache-dir", "");
    const Engine engine{engine_options};
    int rc = 0;
    const api::Op* op = api::find_op(command);
    if (op != nullptr && op->render != nullptr) {
      rc = run_op(engine, *op, args);
    } else if (command == "netlist") {
      rc = cmd_netlist(args);
    } else if (command == "batch") {
      rc = cmd_batch(engine, args);
    } else if (command == "serve") {
      rc = cmd_serve(engine, args);
    } else if (command == "client") {
      rc = cmd_client(args);
    } else {
      throw UsageError{"unknown command '" + command + "'"};
    }
    if (rc == 0) engine.save_caches();
    const int obs_rc = finalize_obs(obs_options);
    return rc != 0 ? rc : obs_rc;
  } catch (const UsageError& error) {
    std::cerr << "error: " << error.what() << "\n\n";
    print_usage(std::cerr);
    return 2;
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
