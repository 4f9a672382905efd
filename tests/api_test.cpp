// Engine requests and responses, the JSON layer, the structured error
// taxonomy, the op table, and the JSONL batch dispatch.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "api/ops.hpp"
#include "api/requests.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "obs/obs.hpp"
#include "synth/report.hpp"
#include "synth/synthesizer.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace prcost {
namespace {

using api::Engine;

// ----------------------------------------------------------------- Json --

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("42").as_i64(), 42);
  EXPECT_EQ(Json::parse("-7").as_i64(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\\n\\\"there\\\"\"").as_string(),
            "hi\n\"there\"");
}

TEST(Json, IntegersStayExact) {
  const u64 big = 9007199254740993ull;  // 2^53 + 1: not double-representable
  Json j{big};
  EXPECT_EQ(Json::parse(j.dump()).as_u64(), big);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j.set("zebra", 1).set("apple", 2).set("mango", 3);
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
  j.set("apple", 9);  // overwrite keeps position
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(Json, RoundTripsNestedDocuments) {
  const std::string text =
      "{\"a\":[1,2.5,\"x\",null,true],\"b\":{\"c\":[{\"d\":-1}]}}";
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(Json, FindAndTypedAccessErrors) {
  const Json j = Json::parse("{\"s\":\"v\",\"n\":1}");
  ASSERT_NE(j.find("s"), nullptr);
  EXPECT_EQ(j.find("s")->as_string(), "v");
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_THROW(j.find("s")->as_i64(), ParseError);
  EXPECT_THROW(j.find("n")->as_string(), ParseError);
  EXPECT_THROW(Json::parse("-1").as_u64(), ParseError);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\":}"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("tru"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::parse("1 2"), ParseError);  // trailing garbage
}

TEST(Json, EscapesControlCharacters) {
  Json j = Json::object();
  j.set("k", std::string{"a\tb\x01"});
  EXPECT_EQ(j.dump(), "{\"k\":\"a\\tb\\u0001\"}");
}

// ------------------------------------------------------- error taxonomy --

TEST(ErrorTaxonomy, CodesAndWireNames) {
  EXPECT_EQ(UsageError{"x"}.code(), ErrorCode::kUsage);
  EXPECT_EQ(NotFoundError{"x"}.code(), ErrorCode::kNotFound);
  EXPECT_EQ(InfeasibleError{"x"}.code(), ErrorCode::kInfeasible);
  EXPECT_EQ(IoError{"x"}.code(), ErrorCode::kIo);
  EXPECT_EQ(ParseError{"x"}.code(), ErrorCode::kParse);
  EXPECT_EQ(ContractError{"x"}.code(), ErrorCode::kContract);
  EXPECT_EQ(error_code_name(ErrorCode::kUsage), "usage");
  EXPECT_EQ(error_code_name(ErrorCode::kNotFound), "not_found");
  EXPECT_EQ(error_code_name(ErrorCode::kInfeasible), "infeasible");
  EXPECT_EQ(error_code_name(ErrorCode::kIo), "io");
  EXPECT_EQ(error_code_name(ErrorCode::kParse), "parse");
  EXPECT_EQ(error_code_name(ErrorCode::kContract), "contract");
  EXPECT_EQ(error_code_name(ErrorCode::kInternal), "internal");
}

TEST(ErrorTaxonomy, NotFoundIsAContractError) {
  // Pre-taxonomy catch sites caught ContractError from lookups; the
  // refinement must not break them.
  EXPECT_THROW(DeviceDb::instance().get("xc2v1000"), ContractError);
  EXPECT_THROW(DeviceDb::instance().get("xc2v1000"), NotFoundError);
}

// --------------------------------------------------------------- Engine --

TEST(Engine, PlanMatchesDirectSearch) {
  const Engine engine;
  api::PlanRequest request;
  request.device = "xc5vlx110t";
  request.source.prm = "fir";
  const api::PlanResponse response = engine.plan(request);

  const Device& device = DeviceDb::instance().get("xc5vlx110t");
  const SynthesisResult synth =
      synthesize(api::make_builtin_prm("fir"), SynthOptions{Family::kVirtex5});
  const auto direct =
      find_prr(PrmRequirements::from_report(synth.report), device.fabric);
  ASSERT_TRUE(direct.has_value());

  EXPECT_EQ(response.device, "xc5vlx110t");
  EXPECT_EQ(response.plan.organization.h, direct->organization.h);
  EXPECT_EQ(response.plan.organization.size(), direct->organization.size());
  EXPECT_EQ(response.plan.bitstream.total_bytes,
            direct->bitstream.total_bytes);
  ASSERT_TRUE(response.generated_bytes.has_value());
  EXPECT_TRUE(response.generated_matches_model());
  ASSERT_TRUE(response.par.has_value());
  EXPECT_TRUE(response.par->routed);
}

TEST(Engine, PlanSkipsParForReportSource) {
  const Engine engine;
  // Render a report, consume it via the report path: no netlist => no PAR.
  const SynthesisResult synth =
      synthesize(api::make_builtin_prm("uart"), SynthOptions{Family::kVirtex5});
  const std::string path = testing::TempDir() + "/uart_api_test.srp";
  {
    std::ofstream out{path};
    out << report_to_text(synth.report);
  }
  api::PlanRequest request;
  request.device = "v5lx110t";
  request.source.report_path = path;
  const api::PlanResponse response = engine.plan(request);
  EXPECT_FALSE(response.par.has_value());
  EXPECT_TRUE(response.generated_matches_model());
}

TEST(Engine, ErrorCodeMapping) {
  const Engine engine;
  api::PlanRequest request;

  // Missing device: usage.
  request.source.prm = "fir";
  EXPECT_THROW(engine.plan(request), UsageError);

  // Unknown device: not_found.
  request.device = "bogus";
  EXPECT_THROW(engine.plan(request), NotFoundError);

  // Unknown PRM: not_found.
  request.device = "xc5vlx110t";
  request.source.prm = "zzz";
  EXPECT_THROW(engine.plan(request), NotFoundError);

  // Unreadable file: io.
  request.source = {};
  request.source.report_path = "/nonexistent/file.srp";
  EXPECT_THROW(engine.plan(request), IoError);

  // No source at all: usage.
  request.source = {};
  EXPECT_THROW(engine.plan(request), UsageError);

  // Two sources: usage.
  request.source.prm = "fir";
  request.source.report_path = "x.srp";
  EXPECT_THROW(engine.plan(request), UsageError);

  // Infeasible: the matmul DSP demand cannot fit the LX110T's single DSP
  // column.
  request.source = {};
  request.source.prm = "matmul";
  EXPECT_THROW(engine.plan(request), InfeasibleError);

  // explore/rank shape validation: usage.
  api::ExploreRequest explore_request;
  explore_request.device = "xc5vlx110t";
  explore_request.prms = {"fir"};
  EXPECT_THROW(engine.explore(explore_request), UsageError);
  EXPECT_THROW(engine.rank(api::RankRequest{}), UsageError);
}

TEST(Engine, ShapeErrorsComeBeforeDeviceLookup) {
  // A request missing its PRMs is a usage error whatever the device says,
  // for every op that takes a PRM list.
  const Engine engine;
  for (const char* op : {"explore", "faults", "schedule", "optimize"}) {
    const std::string line =
        std::string{"{\"op\":\""} + op + "\",\"device\":\"bogus\"}";
    const Json envelope = api::dispatch_line(engine, line);
    const Json* error = envelope.find("error");
    ASSERT_NE(error, nullptr) << op;
    EXPECT_EQ(error->find("code")->as_string(), "usage") << op;
  }
}

TEST(Engine, SynthMatchesDirectCall) {
  const Engine engine;
  api::SynthRequest request;
  request.source.prm = "fir";
  request.family = Family::kVirtex6;
  const api::SynthResponse response = engine.synth(request);
  const SynthesisResult direct =
      synthesize(api::make_builtin_prm("fir"), SynthOptions{Family::kVirtex6});
  EXPECT_EQ(response.report.lut_ff_pairs, direct.report.lut_ff_pairs);
  EXPECT_EQ(response.report.dsps, direct.report.dsps);
  EXPECT_EQ(response.report.brams, direct.report.brams);
}

TEST(Engine, ExploreAndRankAreDeterministic) {
  const Engine engine;
  api::ExploreRequest request;
  request.device = "xc6vlx240t";
  request.prms = {"fir", "uart"};
  const api::ExploreResponse a = engine.explore(request);
  request.workers = 2;
  const api::ExploreResponse b = engine.explore(request);
  ASSERT_EQ(a.points.size(), b.points.size());
  EXPECT_EQ(a.pareto_count, b.pareto_count);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].feasible, b.points[i].feasible);
    EXPECT_EQ(a.points[i].total_prr_area, b.points[i].total_prr_area);
    EXPECT_DOUBLE_EQ(a.points[i].makespan_s, b.points[i].makespan_s);
  }

  api::RankRequest rank_request;
  rank_request.prms = {"fir", "sdram"};
  const api::RankResponse ranked = engine.rank(rank_request);
  ASSERT_FALSE(ranked.choices.empty());
  // Feasible parts sort before infeasible ones.
  bool seen_infeasible = false;
  for (const DeviceChoice& choice : ranked.choices) {
    if (!choice.feasible) seen_infeasible = true;
    if (seen_infeasible) {
      EXPECT_FALSE(choice.feasible);
    }
  }
}

TEST(Engine, DevicesMatchesCatalog) {
  const Engine engine;
  const api::DevicesResponse response = engine.list_devices();
  const auto& all = DeviceDb::instance().all();
  ASSERT_EQ(response.devices.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(response.devices[i].name, all[i].name);
    EXPECT_EQ(response.devices[i].fabric.rows(), all[i].fabric.rows());
  }
}

// ------------------------------------------------- request JSON round trip

TEST(Engine, CollectStatsMatchesRegistryDelta) {
  Engine::Options options;
  options.collect_stats = true;
  const Engine engine{options};
  api::PlanRequest request;
  request.device = "xc5vlx110t";
  request.source.prm = "mips";

  // Summed plan and bitstream cache lookups, as the registry counts them.
  const auto lookups = [](const char* cache) {
    const std::string name{cache};
    return obs::registry().counter(name + ".hits").value() +
           obs::registry().counter(name + ".misses").value();
  };
  obs::set_metrics_enabled(true);
  const u64 plan_before = lookups("plan_cache");
  const u64 bitstream_before = lookups("bitstream_cache");
  const api::PlanResponse response = engine.plan(request);
  const u64 plan_delta = lookups("plan_cache") - plan_before;
  const u64 bitstream_delta = lookups("bitstream_cache") - bitstream_before;
  obs::set_metrics_enabled(false);

  ASSERT_TRUE(response.stats.has_value());
  EXPECT_GT(response.stats->wall_ns, 0u);
  EXPECT_FALSE(response.stats->phases.empty());

  // Per-request attribution agrees with the process-global registry: this
  // request was the only traffic between the two reads, so its cache
  // lookups account for the whole interval delta.
  EXPECT_EQ(
      response.stats->plan_cache_hits + response.stats->plan_cache_misses,
      plan_delta);
  EXPECT_EQ(response.stats->bitstream_cache_hits +
                response.stats->bitstream_cache_misses,
            bitstream_delta);
  EXPECT_GT(
      response.stats->plan_cache_hits + response.stats->plan_cache_misses, 0u);

  // The wire form carries the block (serialized last) with the documented
  // sub-objects.
  const Json j = Json::parse(api::to_json(response).dump());
  const Json* stats = j.find("stats");
  ASSERT_NE(stats, nullptr);
  ASSERT_NE(stats->find("cache"), nullptr);
  EXPECT_EQ(stats->find("cache")->find("plan_hits")->as_u64(),
            response.stats->plan_cache_hits);
  ASSERT_NE(stats->find("phases"), nullptr);
}

TEST(Engine, StatsOffOmitsBlockEntirely) {
  const Engine engine;  // collect_stats defaults to false
  api::PlanRequest request;
  request.device = "xc5vlx110t";
  request.source.prm = "fir";
  const api::PlanResponse response = engine.plan(request);
  EXPECT_FALSE(response.stats.has_value());
  // Byte-level contract: the serialized response has no "stats" member at
  // all, keeping stats-off output identical to pre-telemetry builds.
  EXPECT_EQ(api::to_json(response).dump().find("\"stats\""),
            std::string::npos);
}

// Every request member read from literal JSON, each set to a value other
// than its default, so a member the reader drops or misnames fails here.

TEST(RequestJson, SynthFromJson) {
  const api::SynthRequest request = api::synth_request_from_json(Json::parse(
      R"({"op":"synth","prm":"mips","netlist":"a.net","report":"a.srp",)"
      R"("family":"v6"})"));
  EXPECT_EQ(request.source.prm, "mips");
  EXPECT_EQ(request.source.netlist_path, "a.net");
  EXPECT_EQ(request.source.report_path, "a.srp");
  EXPECT_EQ(request.family, Family::kVirtex6);
}

TEST(RequestJson, PlanFromJson) {
  const api::PlanRequest request = api::plan_request_from_json(Json::parse(
      R"({"op":"plan","device":"xc6vlx75t","prm":"mips",)"
      R"("objective":"bitstream","shaped":true,"cross_check":false})"));
  EXPECT_EQ(request.device, "xc6vlx75t");
  EXPECT_EQ(request.source.prm, "mips");
  EXPECT_TRUE(request.source.netlist_path.empty());
  EXPECT_TRUE(request.source.report_path.empty());
  EXPECT_EQ(request.objective, SearchObjective::kMinBitstream);
  EXPECT_TRUE(request.shaped);
  EXPECT_FALSE(request.cross_check);
  const Json height = Json::parse(R"({"objective":"height"})");
  EXPECT_EQ(api::plan_request_from_json(height).objective,
            SearchObjective::kFirstFeasible);
}

TEST(RequestJson, BitstreamFromJson) {
  const api::BitstreamRequest request =
      api::bitstream_request_from_json(Json::parse(
          R"({"op":"bitstream","device":"xc5vlx110t","report":"r.srp"})"));
  EXPECT_EQ(request.device, "xc5vlx110t");
  EXPECT_TRUE(request.source.prm.empty());
  EXPECT_EQ(request.source.report_path, "r.srp");
}

TEST(RequestJson, ExploreAndRankFromJson) {
  const api::ExploreRequest explore = api::explore_request_from_json(
      Json::parse(R"({"op":"explore","device":"xc6vlx240t",)"
                  R"("prms":["fir","uart","crc32"],"workers":4,)"
                  R"("max_groups":2,"tasks":7,"seed":9,"cross_check":true})"));
  EXPECT_EQ(explore.device, "xc6vlx240t");
  EXPECT_EQ(explore.prms, (std::vector<std::string>{"fir", "uart", "crc32"}));
  EXPECT_EQ(explore.workers, 4u);
  EXPECT_EQ(explore.max_groups, 2u);
  EXPECT_EQ(explore.tasks, 7u);
  EXPECT_EQ(explore.seed, 9u);
  EXPECT_TRUE(explore.cross_check);

  const api::RankRequest rank = api::rank_request_from_json(Json::parse(
      R"({"op":"rank","prms":["fir"],"workers":3,"tasks":7,"seed":8})"));
  EXPECT_EQ(rank.prms, std::vector<std::string>{"fir"});
  EXPECT_EQ(rank.workers, 3u);
  EXPECT_EQ(rank.tasks, 7u);
  EXPECT_EQ(rank.seed, 8u);
}

TEST(RequestJson, FaultsFromJson) {
  const api::FaultsRequest request = api::faults_request_from_json(
      Json::parse(R"({"op":"faults","device":"xc5vlx110t",)"
                  R"("prms":["fir","sdram"],"prr_count":3,"tasks":11,)"
                  R"("seed":12,"fault_rate":0.25,"stall_rate":0.5,)"
                  R"("fault_seed":13,"max_retries":4,"media":"flash",)"
                  R"("recovery":"reschedule","strict":true})"));
  EXPECT_EQ(request.device, "xc5vlx110t");
  EXPECT_EQ(request.prms, (std::vector<std::string>{"fir", "sdram"}));
  EXPECT_EQ(request.prr_count, 3u);
  EXPECT_EQ(request.tasks, 11u);
  EXPECT_EQ(request.seed, 12u);
  EXPECT_EQ(request.fault_rate, 0.25);
  EXPECT_EQ(request.stall_rate, 0.5);
  EXPECT_EQ(request.fault_seed, 13u);
  EXPECT_EQ(request.max_retries, 4u);
  EXPECT_EQ(request.media, "flash");
  EXPECT_EQ(request.recovery, "reschedule");
  EXPECT_TRUE(request.strict);
}

TEST(RequestJson, OptimizeFromJson) {
  const api::OptimizeRequest request = api::optimize_request_from_json(
      Json::parse(R"({"op":"optimize","device":"xc6vlx240t",)"
                  R"("prms":["fir","uart"],"prm_count":5,"groups":2,)"
                  R"("seed":6,"rounds":7,"proposals_per_round":3,)"
                  R"("media":"cf","fault_rate":0.125,"max_retries":1,)"
                  R"("workers":2})"));
  EXPECT_EQ(request.device, "xc6vlx240t");
  EXPECT_EQ(request.prms, (std::vector<std::string>{"fir", "uart"}));
  EXPECT_EQ(request.prm_count, 5u);
  EXPECT_EQ(request.groups, 2u);
  EXPECT_EQ(request.seed, 6u);
  EXPECT_EQ(request.rounds, 7u);
  EXPECT_EQ(request.proposals_per_round, 3u);
  EXPECT_EQ(request.media, "cf");
  EXPECT_EQ(request.fault_rate, 0.125);
  EXPECT_EQ(request.max_retries, 1u);
  EXPECT_EQ(request.workers, 2u);
}

TEST(RequestJson, ScheduleFromJson) {
  const api::ScheduleRequest request = api::schedule_request_from_json(
      Json::parse(R"({"op":"schedule","device":"xc6vlx240t",)"
                  R"("prms":["fir"],"slots":3,"policy":"edf",)"
                  R"("workload":"trace","trace":"t","tasks":9,"seed":10,)"
                  R"("mean_interarrival_s":0.25,"mean_exec_s":0.5,)"
                  R"("deadline_factor":1.5,"media":"cf","warm_media":"bram",)"
                  R"("prefetch_rate_hz":40,"fault_rate":0.0625,)"
                  R"("max_retries":5,"cpu_workers":4,"cpu_slowdown":3,)"
                  R"("detail":true})"));
  EXPECT_EQ(request.device, "xc6vlx240t");
  EXPECT_EQ(request.prms, std::vector<std::string>{"fir"});
  EXPECT_EQ(request.slots, 3u);
  EXPECT_EQ(request.policy, "edf");
  EXPECT_EQ(request.workload, "trace");
  EXPECT_EQ(request.trace, "t");
  EXPECT_EQ(request.tasks, 9u);
  EXPECT_EQ(request.seed, 10u);
  EXPECT_EQ(request.mean_interarrival_s, 0.25);
  EXPECT_EQ(request.mean_exec_s, 0.5);
  EXPECT_EQ(request.deadline_factor, 1.5);
  EXPECT_EQ(request.media, "cf");
  EXPECT_EQ(request.warm_media, "bram");
  EXPECT_EQ(request.prefetch_rate_hz, 40.0);
  EXPECT_EQ(request.fault_rate, 0.0625);
  EXPECT_EQ(request.max_retries, 5u);
  EXPECT_EQ(request.cpu_workers, 4u);
  EXPECT_EQ(request.cpu_slowdown, 3.0);
  EXPECT_TRUE(request.detail);
}

TEST(RequestJson, AbsentMembersKeepStructDefaults) {
  const Json empty = Json::object();
  const api::FaultsRequest faults = api::faults_request_from_json(empty);
  EXPECT_EQ(faults.prr_count, api::FaultsRequest{}.prr_count);
  EXPECT_EQ(faults.tasks, api::FaultsRequest{}.tasks);
  EXPECT_FALSE(faults.fault_rate.has_value());
  EXPECT_FALSE(faults.max_retries.has_value());
  const api::ScheduleRequest schedule = api::schedule_request_from_json(empty);
  EXPECT_EQ(schedule.policy, api::ScheduleRequest{}.policy);
  EXPECT_EQ(schedule.cpu_slowdown, api::ScheduleRequest{}.cpu_slowdown);
  EXPECT_EQ(api::synth_request_from_json(empty).family, Family::kVirtex5);
}

TEST(RequestJson, DefaultsApply) {
  const api::PlanRequest request = api::plan_request_from_json(
      Json::parse("{\"device\":\"v5lx110t\",\"prm\":\"fir\"}"));
  EXPECT_EQ(request.objective, SearchObjective::kMinArea);
  EXPECT_FALSE(request.shaped);
  EXPECT_TRUE(request.cross_check);
}

TEST(ResponseJson, PlanResponseFields) {
  const Engine engine;
  api::PlanRequest request;
  request.device = "xc5vlx110t";
  request.source.prm = "fir";
  request.shaped = true;
  const Json j = api::to_json(engine.plan(request));
  const Json parsed = Json::parse(j.dump());
  EXPECT_EQ(parsed.find("device")->as_string(), "xc5vlx110t");
  const Json* plan = parsed.find("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->find("organization")->find("size")->as_u64(), 0u);
  EXPECT_GT(plan->find("bitstream")->find("total_bytes")->as_u64(), 0u);
  EXPECT_TRUE(parsed.find("model_match")->as_bool());
  ASSERT_NE(parsed.find("shaped"), nullptr);
}

// Wire branches that no CLI golden reaches, pinned byte-for-byte.

TEST(ResponseJson, PlanWithUnroutedPar) {
  const Engine engine;
  // A carry chain longer than the carry sites of the one-CLB PRR its
  // single LUT sizes: the PRR plan succeeds and PAR fails.
  std::string text = "netlist carries\n";
  for (int i = 0; i < 4; ++i) {
    text += "cell INPUT in" + std::to_string(i) + " 0 0 | | in" +
            std::to_string(i) + "_o0\n";
  }
  std::string carry_in = "in0_o0";
  for (int c = 0; c < 48; ++c) {
    const std::string name = "c" + std::to_string(c);
    text += "cell CARRY " + name + " 0 0 | " + carry_in;
    for (int k = 0; k < 8; ++k) {
      text += " in" + std::to_string((c + k) % 4) + "_o0";
    }
    text += " |";
    for (int k = 0; k < 5; ++k) text += " " + name + "_o" + std::to_string(k);
    text += "\n";
    carry_in = name + "_o4";
  }
  text += "cell OUTPUT cout 0 0 | " + carry_in + " |\n";
  text += "cell LUT l 6 0 | in0_o0 in1_o0 | l_o0\n";
  text += "cell OUTPUT lo 0 0 | l_o0 |\n";
  const std::string path = testing::TempDir() + "/api_test_carries.net";
  {
    std::ofstream out{path};
    out << text;
  }
  api::PlanRequest request;
  request.device = "xc5vlx110t";
  request.source.netlist_path = path;
  const api::PlanResponse response = engine.plan(request);
  ASSERT_TRUE(response.par.has_value());
  EXPECT_FALSE(response.par->routed);
  const char* want =
      R"({"device":"xc5vlx110t","plan":{"organization":{"h":1,"clb_cols":1,)"
      R"("dsp_cols":0,"bram_cols":0,"width":1,"size":1},)"
      R"("window":{"first_col":0,"width":1},"first_row":0,)"
      R"("utilization":{"clb":5,"ff":0,"lut":0.625,"dsp":0,"bram":0},)"
      R"("bitstream":{"total_words":1558,"total_bytes":6232,)"
      R"("config_frames_per_row":37}},"par":{"routed":false,)"
      R"("failure_reason":"not enough carry-chain sites"},)"
      R"("generated_bytes":6232,"model_match":true})";
  EXPECT_EQ(api::to_json(response).dump(), want);
}

TEST(ResponseJson, ScheduleWithoutDetailHasNoTasks) {
  const Engine engine;
  api::ScheduleRequest request;
  request.device = "xc6vlx240t";
  request.prms = {"fir", "uart"};
  request.tasks = 6;
  request.seed = 7;
  const api::ScheduleResponse response = engine.schedule(request);
  EXPECT_EQ(response.tasks.size(), 6u);
  const char* want =
      R"({"device":"xc6vlx240t","policy":"fcfs","slot_count":2,)"
      R"("prm_count":2,"task_count":6,"fault_rate":0,)"
      R"("makespan_s":0.02537787872013146,)"
      R"("throughput_per_s":236.42638008354857,"reuse_hits":4,)"
      R"("reconfig_count":2,"total_reconfig_s":0.003830556030273438,)"
      R"("reconfig_seconds_per_task":0.000638426005045573,)"
      R"("deadline_misses":0,"cpu_fallbacks":0,"prefetches_issued":0,)"
      R"("prefetched_reconfigs":0,"mean_wait_s":0.0007175721788249098,)"
      R"("mean_turnaround_s":0.00450426331459774})";
  EXPECT_EQ(api::to_json(response).dump(), want);
}

TEST(ResponseJson, NonStrictFaultsAtCertainFailure) {
  const Engine engine;
  api::FaultsRequest request;
  request.device = "xc5vlx110t";
  request.prms = {"fir"};
  request.tasks = 4;
  request.fault_rate = 1.0;
  const api::FaultsResponse response = engine.faults(request);
  EXPECT_EQ(response.report.reconfig_count, 0u);
  EXPECT_EQ(response.effective_reconfig_s(), 0.0);
  const char* want =
      R"({"device":"xc5vlx110t","fault_rate":1,"fault_seed":24301,)"
      R"("max_retries":3,"makespan_s":0.01665303976704436,)"
      R"("reconfig_count":0,"total_reconfig_s":0,"failed_reconfigs":4,)"
      R"("dropped_tasks":4,"rescheduled_tasks":0,"retry_attempts":12,)"
      R"("total_retry_backoff_s":0.00028000000000000003,)"
      R"("total_fault_wasted_s":0.0030992,"total_penalty_s":0,)"
      R"("injected_faults":16,"injected_stalls":0,"effective_reconfig_s":0})";
  EXPECT_EQ(api::to_json(response).dump(), want);
}

TEST(ResponseJson, ExploreWithInfeasiblePoint) {
  const Engine engine;
  // Three single-matmul PRRs need more rows of the one DSP column than the
  // part has.
  api::ExploreRequest request;
  request.device = "xc4vlx60";
  request.prms = {"matmul", "matmul", "matmul"};
  request.tasks = 4;
  const api::ExploreResponse response = engine.explore(request);
  ASSERT_FALSE(response.points.empty());
  EXPECT_FALSE(response.points.back().feasible);
  const char* want =
      R"({"device":"xc4vlx60","prms":["matmul","matmul","matmul"],)"
      R"("points":[{"partition":[["matmul","matmul","matmul"]],)"
      R"("feasible":true,"total_prr_area":24,)"
      R"("total_bitstream_bytes":353532,"makespan_s":0.028689085015524918,)"
      R"("total_reconfig_s":0.00091383},{"partition":[["matmul","matmul"],)"
      R"(["matmul"]],"feasible":true,"total_prr_area":48,)"
      R"("total_bitstream_bytes":353532,"makespan_s":0.02264882986802219,)"
      R"("total_reconfig_s":0.00091383},{"partition":[["matmul","matmul"],)"
      R"(["matmul"]],"feasible":true,"total_prr_area":48,)"
      R"("total_bitstream_bytes":353532,"makespan_s":0.02264882986802219,)"
      R"("total_reconfig_s":0.00091383},{"partition":[["matmul"],["matmul",)"
      R"("matmul"]],"feasible":true,"total_prr_area":48,)"
      R"("total_bitstream_bytes":353532,"makespan_s":0.02264882986802219,)"
      R"("total_reconfig_s":0.00091383},{"partition":[["matmul"],)"
      R"(["matmul"],["matmul"]],"feasible":false,)"
      R"("reason":"no room for a PRR group on the fabric"}],)"
      R"("pareto_count":4})";
  EXPECT_EQ(api::to_json(response).dump(), want);
}

// ---------------------------------------------------------------- batch --

TEST(Batch, DispatchEnvelopes) {
  const Engine engine;
  const Json ok = api::dispatch_line(
      engine, "{\"op\":\"plan\",\"device\":\"v5lx110t\",\"prm\":\"fir\","
              "\"id\":\"r1\"}");
  EXPECT_EQ(ok.find("id")->as_string(), "r1");
  EXPECT_EQ(ok.find("op")->as_string(), "plan");
  EXPECT_NE(ok.find("result"), nullptr);
  EXPECT_EQ(ok.find("error"), nullptr);

  const auto error_code = [&](std::string_view line) {
    const Json envelope = api::dispatch_line(engine, line);
    const Json* error = envelope.find("error");
    EXPECT_NE(error, nullptr) << line;
    return error == nullptr ? std::string{} : error->find("code")->as_string();
  };
  EXPECT_EQ(error_code("{\"op\":\"plan\",\"device\":\"nope\",\"prm\":\"fir\"}"),
            "not_found");
  EXPECT_EQ(error_code(
                "{\"op\":\"plan\",\"device\":\"v5lx110t\",\"prm\":\"matmul\"}"),
            "infeasible");
  EXPECT_EQ(error_code("{\"op\":\"plan\",\"prm\":\"fir\"}"), "usage");
  EXPECT_EQ(error_code("{\"op\":\"nope\"}"), "not_found");
  EXPECT_EQ(error_code("{\"device\":\"v5lx110t\"}"), "usage");
  EXPECT_EQ(error_code("this is not json"), "parse");
  EXPECT_EQ(error_code("[\"an\",\"array\"]"), "usage");
  EXPECT_EQ(error_code("{\"op\":\"plan\",\"device\":\"v5lx110t\","
                       "\"report\":\"/no/such/file\"}"),
            "io");
}

TEST(Batch, UnknownOpListsEveryOp) {
  const Engine engine;
  const Json envelope = api::dispatch_line(engine, R"({"op":"nope"})");
  const Json* error = envelope.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("code")->as_string(), "not_found");
  EXPECT_EQ(error->find("message")->as_string(),
            "unknown op 'nope' (known: devices synth plan bitstream explore "
            "rank faults optimize schedule ping metrics)");
}

TEST(OpTable, EveryOpDispatchesUnderItsOwnName) {
  const Engine engine;
  std::set<std::string_view> names;
  for (const api::Op& op : api::ops()) {
    EXPECT_TRUE(names.insert(op.name).second) << op.name;
    EXPECT_EQ(api::find_op(op.name), &op);
    // A request with only "op" reaches the op: it answers, or fails with
    // the op's own usage/not-found error, never "unknown op".
    const Json envelope = api::dispatch_request(
        engine, Json::parse("{\"op\":\"" + std::string{op.name} + "\"}"));
    if (const Json* error = envelope.find("error")) {
      EXPECT_EQ(error->find("message")->as_string().find("unknown op"),
                std::string::npos)
          << op.name;
    }
  }
  EXPECT_EQ(api::find_op("nope"), nullptr);
  // The CLI offers every op but the serve-only probes.
  EXPECT_EQ(api::find_op("ping")->render, nullptr);
  EXPECT_EQ(api::find_op("metrics")->render, nullptr);
  EXPECT_NE(api::find_op("schedule")->render, nullptr);
}

// A CLI -o path whose directory does not exist.
std::string unwritable_path(std::string_view name) {
  return testing::TempDir() + "/no_such_dir_api_test/" + std::string{name};
}

TEST(OpTable, BitstreamOutWritesThePayload) {
  const Engine engine;
  const std::string path = testing::TempDir() + "/fir_api_test.bin";
  Json request = Json::parse(R"({"prm":"fir","device":"xc5vlx110t"})");
  request.set("out", Json{path});
  std::ostringstream out;
  EXPECT_EQ(api::find_op("bitstream")->render(engine, request, out), 0);
  const auto size = std::filesystem::file_size(path);
  EXPECT_GT(size, 0u);
  EXPECT_EQ(size % 4, 0u);  // whole 32-bit Virtex-5 words, no header
  EXPECT_NE(out.str().find("wrote " + std::to_string(size) + " bytes to " +
                           path + "\n"),
            std::string::npos)
      << out.str();
  std::filesystem::remove(path);
}

TEST(OpTable, BitstreamOutUnwritableIsIoError) {
  const Engine engine;
  Json request = Json::parse(R"({"prm":"fir","device":"xc5vlx110t"})");
  request.set("out", Json{unwritable_path("fir.bin")});
  std::ostringstream out;
  EXPECT_THROW(api::find_op("bitstream")->render(engine, request, out),
               IoError);
  EXPECT_EQ(out.str().find("wrote"), std::string::npos);
}

TEST(OpTable, SynthOutUnwritableIsIoError) {
  const Engine engine;
  Json request = Json::parse(R"({"prm":"uart"})");
  request.set("out", Json{unwritable_path("uart.srp")});
  std::ostringstream out;
  EXPECT_THROW(api::find_op("synth")->render(engine, request, out), IoError);
  EXPECT_EQ(out.str().find("wrote"), std::string::npos);
}

TEST(Batch, OneResponsePerLineInInputOrder) {
  const Engine engine;
  std::stringstream in;
  const int count = 40;
  for (int i = 0; i < count; ++i) {
    switch (i % 4) {
      case 0:
        in << "{\"op\":\"plan\",\"device\":\"v5lx110t\",\"prm\":\"fir\","
              "\"id\":" << i << "}\n";
        break;
      case 1:
        in << "{\"op\":\"plan\",\"device\":\"v5lx110t\",\"prm\":\"matmul\","
              "\"id\":" << i << "}\n";
        break;
      case 2:
        in << "malformed line " << i << "\n";
        break;
      case 3:
        in << "{\"op\":\"synth\",\"prm\":\"uart\",\"id\":" << i << "}\n";
        break;
    }
  }
  std::stringstream out;
  const api::BatchStats stats = api::run_batch(engine, in, out, {});
  EXPECT_EQ(stats.requests, static_cast<std::size_t>(count));
  EXPECT_EQ(stats.succeeded + stats.failed, stats.requests);
  EXPECT_EQ(stats.failed, static_cast<std::size_t>(count / 2));

  int lines = 0;
  for (std::string line; std::getline(out, line); ++lines) {
    ASSERT_LT(lines, count);
    const Json envelope = Json::parse(line);  // every line is valid JSON
    const bool is_error = envelope.find("error") != nullptr;
    switch (lines % 4) {
      case 0:
      case 3:
        EXPECT_FALSE(is_error) << line;
        EXPECT_EQ(envelope.find("id")->as_i64(), lines);  // input order
        break;
      case 1:
        EXPECT_EQ(envelope.find("error")->find("code")->as_string(),
                  "infeasible");
        EXPECT_EQ(envelope.find("id")->as_i64(), lines);
        break;
      case 2:
        EXPECT_EQ(envelope.find("error")->find("code")->as_string(), "parse");
        break;
    }
  }
  EXPECT_EQ(lines, count);
}

}  // namespace
}  // namespace prcost
