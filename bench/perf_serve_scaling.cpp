// Sustained-throughput bench for `prcost serve`: closed-loop clients
// against one warm daemon, stepping the connection count.
//
// By default the bench self-hosts a serve::Server over a private
// Unix-domain socket (the same run-to-completion event loop the CLI daemon
// runs) so CI needs no process choreography; --socket points it at an
// external daemon instead. Each step spawns N closed-loop client threads
// (send one request, wait for the response, repeat) over a mixed cache-hot
// workload - mostly plan/bitstream lookups with occasional explore and
// optimize requests, the shape a partitioner/scheduler front-end produces -
// and reports JSON on stdout for the perf-regression harness
// (bench_report).
//
// Clients model remote tenants: after each response a client "thinks" for
// --think-us microseconds (its own scheduling work, or network turnaround)
// before the next request. That is what makes the scaling claim
// meaningful: one tenant's closed loop is turnaround-bound and leaves the
// warm daemon mostly idle, while N tenants' think times overlap and the
// event loop answers their concurrent requests in one round through the
// shared engine - so sustained rps grows with connections until the engine
// saturates.
// --think-us 0 degenerates to back-to-back hammering, which on a
// single-core host saturates the engine from one connection already.
//
// JSON shape:
//
//   {"steps":[{"connections":1,"requests_per_sec":...,"p50_ms":...,
//              "p99_ms":...,"shed_rate":...},...],
//    "requests_per_sec_1c":..., "requests_per_sec_peak":...,
//    "scaling_speedup":..., "plan_cache_hit_rate":...}
//
// "scaling_speedup" is sustained rps at the largest step over rps at one
// connection: the single-connection loop pays the full wakeup + turnaround
// chain per request, while concurrent connections let the event loop answer
// several requests per poll round, so the fixed costs amortize even on one
// core.
//
//   perf_serve_scaling [--max-conns 8] [--seconds 1.5] [--requests N]
//                      [--think-us 200] [--socket PATH] [--max-queue N]
//                      [--mix-cycle N] [--out FILE]
//
// --requests N switches every step to a fixed per-client request count
// (deterministic work for CI smoke); --seconds is the per-step measurement
// window otherwise.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace {

using namespace prcost;
using Clock = std::chrono::steady_clock;

/// The mixed workload, one request line per slot; slots are consumed
/// round-robin per client (offset by client index so concurrent clients
/// interleave different ops). Plan and bitstream lookups dominate - after
/// warmup they are cache hits, the steady state a partitioner/scheduler
/// front-end drives - with one explore and one optimize slot per cycle of
/// `mix_cycle` for the heavier tail every real mix has (those re-run
/// ms-scale searches per request, so their frequency sets the floor on
/// average service time). Plan requests carry "cross_check":false: a
/// scheduler wants the cost model's answer, not a per-request PAR + full
/// generation verification.
std::vector<std::string> make_mix(std::size_t mix_cycle) {
  const std::vector<std::string> plan_prms = {"fir",  "mips", "sdram",
                                              "uart", "aes",  "crc32",
                                              "sobel"};
  const std::vector<std::string> bit_prms = {"fir", "sdram", "uart", "crc32"};
  std::vector<std::string> mix;
  for (std::size_t slot = 0; slot < mix_cycle; ++slot) {
    if (slot == mix_cycle / 3 && mix_cycle > 2) {
      mix.push_back(
          R"({"op":"explore","device":"xc6vlx240t","prms":["fir","sdram","uart"],"workers":1})");
      continue;
    }
    if (slot == (2 * mix_cycle) / 3 && mix_cycle > 2) {
      mix.push_back(
          R"({"op":"optimize","device":"xc6vlx240t","prms":["fir","uart"],"rounds":1,"proposals_per_round":1,"seed":3,"workers":1})");
      continue;
    }
    if (slot % 2 == 0) {
      mix.push_back(
          R"({"op":"plan","device":"xc5vlx110t","cross_check":false,"prm":")" +
          plan_prms[(slot / 2) % plan_prms.size()] + R"("})");
    } else {
      mix.push_back(R"({"op":"bitstream","device":"xc5vlx110t","prm":")" +
                    bit_prms[(slot / 2) % bit_prms.size()] + R"("})");
    }
  }
  return mix;
}

struct StepResult {
  int connections = 0;
  u64 requests = 0;
  u64 shed = 0;
  u64 errors = 0;  ///< error envelopes other than "overloaded"
  double seconds = 0.0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate = 0.0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

serve::Client connect(const std::string& socket_path) {
  return serve::Client::connect_unix(socket_path);
}

/// One closed-loop measurement step at `connections` clients.
StepResult run_step(const std::string& socket_path,
                    const std::vector<std::string>& mix, int connections,
                    double seconds, u64 requests_per_client, u64 think_us) {
  std::atomic<bool> stop{false};
  std::mutex merge_mu;
  std::vector<double> latencies_ms;
  StepResult step;
  step.connections = connections;
  std::atomic<u64> total{0};
  std::atomic<u64> shed{0};
  std::atomic<u64> errors{0};

  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(connections));
  const auto begin = Clock::now();
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client = connect(socket_path);
      std::vector<double> local;
      std::size_t slot = static_cast<std::size_t>(c) * 7;
      for (u64 sent = 0;
           requests_per_client != 0 ? sent < requests_per_client
                                    : !stop.load(std::memory_order_relaxed);
           ++sent) {
        const std::string& line = mix[slot++ % mix.size()];
        const auto t0 = Clock::now();
        const std::string response = client.request(line);
        local.push_back(
            std::chrono::duration<double, std::milli>{Clock::now() - t0}
                .count());
        if (response.find("\"error\"") != std::string::npos) {
          if (response.find("\"overloaded\"") != std::string::npos) {
            shed.fetch_add(1, std::memory_order_relaxed);
          } else {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (think_us != 0) {
          std::this_thread::sleep_for(std::chrono::microseconds{think_us});
        }
      }
      total.fetch_add(local.size(), std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock{merge_mu};
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
    });
  }
  if (requests_per_client == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>{seconds});
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& t : clients) t.join();
  step.seconds =
      std::chrono::duration<double>{Clock::now() - begin}.count();

  step.requests = total.load();
  step.shed = shed.load();
  step.errors = errors.load();
  step.rps = step.seconds > 0
                 ? static_cast<double>(step.requests) / step.seconds
                 : 0.0;
  step.shed_rate = step.requests > 0 ? static_cast<double>(step.shed) /
                                           static_cast<double>(step.requests)
                                     : 0.0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  step.p50_ms = percentile(latencies_ms, 0.50);
  step.p99_ms = percentile(latencies_ms, 0.99);
  return step;
}

/// Read one counter out of an OpenMetrics scrape fetched over the wire
/// (works identically against the self-hosted server and an external
/// daemon).
double scrape_counter(const std::string& scrape, const std::string& name) {
  const auto at = scrape.find('\n' + name + ' ');
  if (at == std::string::npos) return 0.0;
  const auto value_at = at + 1 + name.size() + 1;
  return std::strtod(scrape.c_str() + value_at, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  int max_conns = 8;
  double seconds = 1.5;
  u64 requests_per_client = 0;
  u64 think_us = 200;
  std::string socket_path;
  std::size_t max_queue = 1024;
  std::size_t mix_cycle = 1024;
  std::string out_path = "-";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--max-conns") {
      max_conns = std::stoi(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--requests") {
      requests_per_client = std::stoull(value);
    } else if (flag == "--think-us") {
      think_us = std::stoull(value);
    } else if (flag == "--socket") {
      socket_path = value;
    } else if (flag == "--max-queue") {
      max_queue = std::stoul(value);
    } else if (flag == "--mix-cycle") {
      mix_cycle = std::stoul(value);
    } else if (flag == "--out") {
      out_path = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (max_conns < 1) max_conns = 1;

  // Self-host unless --socket points elsewhere: same Server the CLI runs.
  std::unique_ptr<api::Engine> engine;
  std::unique_ptr<serve::Server> server;
  std::thread server_thread;
  const bool self_hosted = socket_path.empty();
  if (self_hosted) {
    socket_path = "/tmp/prcost_serve_bench." +
                  std::to_string(static_cast<long>(::getpid())) + ".sock";
    engine = std::make_unique<api::Engine>();
    serve::ServerOptions options;
    options.unix_path = socket_path;
    options.max_queue = max_queue;
    server = std::make_unique<serve::Server>(*engine, options);
    server->start();
    server_thread = std::thread{[&] { server->run(); }};
  }

  if (mix_cycle < 2) mix_cycle = 2;
  const std::vector<std::string> mix = make_mix(mix_cycle);

  // Warmup: run the whole mix twice on one connection so the plan and
  // bitstream caches are hot; the measured steps then see the steady
  // state a long-lived daemon serves from.
  {
    serve::Client client = connect(socket_path);
    for (int round = 0; round < 2; ++round) {
      for (const std::string& line : mix) {
        const std::string response = client.request(line);
        if (response.find("\"error\"") != std::string::npos) {
          std::cerr << "warmup request failed: " << response << "\n";
          if (server) server->stop();
          if (server_thread.joinable()) server_thread.join();
          return 1;
        }
      }
    }
  }

  std::vector<StepResult> steps;
  for (int conns = 1; conns <= max_conns; conns *= 2) {
    steps.push_back(run_step(socket_path, mix, conns, seconds,
                             requests_per_client, think_us));
    std::cerr << "conns " << steps.back().connections << ": "
              << static_cast<u64>(steps.back().rps) << " req/s, p50 "
              << steps.back().p50_ms << " ms, p99 " << steps.back().p99_ms
              << " ms, shed " << steps.back().shed << "\n";
  }

  // Cache hit rate over the whole run, scraped over the wire like any
  // monitoring client would.
  double plan_hit_rate = 0.0;
  double bitstream_hit_rate = 0.0;
  {
    serve::Client client = connect(socket_path);
    const Json envelope = Json::parse(client.request(R"({"op":"metrics"})"));
    if (const Json* result = envelope.find("result")) {
      const std::string& scrape = result->find("openmetrics")->as_string();
      const double plan_hits =
          scrape_counter(scrape, "prcost_plan_cache_hits_total");
      const double plan_misses =
          scrape_counter(scrape, "prcost_plan_cache_misses_total");
      const double bit_hits =
          scrape_counter(scrape, "prcost_bitstream_cache_hits_total");
      const double bit_misses =
          scrape_counter(scrape, "prcost_bitstream_cache_misses_total");
      if (plan_hits + plan_misses > 0) {
        plan_hit_rate = plan_hits / (plan_hits + plan_misses);
      }
      if (bit_hits + bit_misses > 0) {
        bitstream_hit_rate = bit_hits / (bit_hits + bit_misses);
      }
    }
  }

  if (server) {
    server->stop();
    server_thread.join();
  }

  const StepResult& first = steps.front();
  const StepResult& last = steps.back();
  const double speedup = first.rps > 0 ? last.rps / first.rps : 0.0;

  std::ostringstream json;
  json.precision(6);
  json << "{\n"
       << "  \"mode\": \"" << (self_hosted ? "self-hosted" : "external")
       << "\",\n"
       << "  \"mix_size\": " << mix.size() << ",\n"
       << "  \"think_us\": " << think_us << ",\n"
       << "  \"steps\": [\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepResult& s = steps[i];
    json << "    {\"connections\": " << s.connections
         << ", \"requests\": " << s.requests
         << ", \"requests_per_sec\": " << s.rps
         << ", \"p50_ms\": " << s.p50_ms << ", \"p99_ms\": " << s.p99_ms
         << ", \"shed_rate\": " << s.shed_rate
         << ", \"errors\": " << s.errors << "}"
         << (i + 1 < steps.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"requests_per_sec_1c\": " << first.rps << ",\n"
       << "  \"requests_per_sec_peak\": " << last.rps << ",\n"
       << "  \"peak_p99_ms\": " << last.p99_ms << ",\n"
       << "  \"scaling_speedup\": " << speedup << ",\n"
       << "  \"plan_cache_hit_rate\": " << plan_hit_rate << ",\n"
       << "  \"bitstream_cache_hit_rate\": " << bitstream_hit_rate << "\n"
       << "}\n";

  if (out_path == "-" || out_path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out{out_path};
    out << json.str();
    if (!out) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << json.str();
  }

  u64 errors = 0;
  for (const StepResult& s : steps) errors += s.errors;
  if (errors > 0) {
    std::cerr << "error: " << errors << " request(s) failed\n";
    return 1;
  }
  return 0;
}
