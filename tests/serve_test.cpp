// serve::Server integration tests: a real daemon (one run-to-completion
// event loop plus the parallel_for pool, over real sockets) driven through
// serve::Client, in process. Covers the production behaviors the daemon
// claims: wire-contract parity with batch, per-connection response
// ordering under pipelining (also across dispatch rounds), malformed-line
// isolation, admission-control shedding, read-anchored deadlines, stable
// error codes for bad requests, disconnect isolation, graceful drain,
// TCP + unix listeners, and the "metrics" scrape.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace prcost {
namespace {

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/prcost_serve_test." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// One running daemon per fixture instance: server on a background thread,
/// stopped and joined on teardown.
class ServeHarness {
 public:
  explicit ServeHarness(serve::ServerOptions options,
                        api::Engine::Options engine_options = {})
      : engine_(engine_options), server_(engine_, std::move(options)) {
    server_.start();
    thread_ = std::thread{[this] { server_.run(); }};
  }

  ~ServeHarness() {
    server_.stop();
    if (thread_.joinable()) thread_.join();
  }

  serve::Server& server() { return server_; }
  serve::Client connect() {
    return serve::Client::connect_unix(server_.options().unix_path);
  }

 private:
  api::Engine engine_;
  serve::Server server_;
  std::thread thread_;
};

serve::ServerOptions unix_options() {
  serve::ServerOptions options;
  options.unix_path = unique_socket_path();
  return options;
}

std::string error_code_of(const std::string& response) {
  const Json envelope = Json::parse(response);
  const Json* error = envelope.find("error");
  if (error == nullptr) return "";
  return error->find("code")->as_string();
}

TEST(Serve, MixedOpsMatchBatchWireContract) {
  ServeHarness harness{unix_options()};
  serve::Client client = harness.connect();

  const Json pong = Json::parse(client.request(R"({"op":"ping"})"));
  EXPECT_TRUE(pong.find("result")->find("pong")->as_bool());

  const Json plan = Json::parse(client.request(
      R"({"op":"plan","device":"xc5vlx110t","prm":"fir","cross_check":false,"id":7})"));
  EXPECT_NE(plan.find("result"), nullptr);
  EXPECT_EQ(plan.find("id")->as_double(), 7.0);  // id echoed like batch

  const Json devices = Json::parse(client.request(R"({"op":"devices"})"));
  EXPECT_NE(devices.find("result"), nullptr);

  EXPECT_EQ(error_code_of(client.request(R"({"op":"nope"})")), "not_found");
}

TEST(Serve, MalformedLineAnswersParseErrorAndConnectionStaysUp) {
  ServeHarness harness{unix_options()};
  serve::Client client = harness.connect();

  EXPECT_EQ(error_code_of(client.request("this is not json")), "parse");
  // Same connection keeps working - failure isolation is per request.
  const Json pong = Json::parse(client.request(R"({"op":"ping"})"));
  EXPECT_TRUE(pong.find("result")->find("pong")->as_bool());
}

TEST(Serve, PipelinedResponsesPreserveInputOrder) {
  ServeHarness harness{unix_options()};
  serve::Client client = harness.connect();

  constexpr int kRequests = 40;
  for (int i = 0; i < kRequests; ++i) {
    client.send_line(R"({"op":"ping","id":)" + std::to_string(i) + "}");
  }
  for (int i = 0; i < kRequests; ++i) {
    const auto response = client.recv_line();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    const Json envelope = Json::parse(*response);
    EXPECT_EQ(envelope.find("id")->as_double(), static_cast<double>(i));
  }
}

TEST(Serve, ShutdownWriteDrainsResponsesThenOrderlyEof) {
  ServeHarness harness{unix_options()};
  serve::Client client = harness.connect();

  // Half-close (nc-style): outstanding responses still arrive, then EOF.
  client.send_line(R"({"op":"ping","id":1})");
  client.send_line(R"({"op":"ping","id":2})");
  client.shutdown_write();
  const auto first = client.recv_line();
  const auto second = client.recv_line();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(Json::parse(*second).find("id")->as_double(), 2.0);
  EXPECT_FALSE(client.recv_line().has_value());  // orderly EOF
}

TEST(Serve, ZeroQueueShedsEverythingWithOverloadedCode) {
  serve::ServerOptions options = unix_options();
  options.max_queue = 0;  // deliberate brown-out mode
  ServeHarness harness{options};
  serve::Client client = harness.connect();

  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(error_code_of(client.request(R"({"op":"ping"})")),
              "overloaded");
  }
  EXPECT_EQ(harness.server().counters().shed, 5u);
  // Shedding answers immediately and keeps the connection healthy.
  EXPECT_EQ(harness.server().counters().responses, 5u);
}

TEST(Serve, ExpiredDeadlineAnswersDeadlineCode) {
  ServeHarness harness{unix_options()};
  serve::Client client = harness.connect();

  // deadline_ms:0 is expired by the time the loop dispatches it (anchored
  // when its line was read), so the admission check fires before any work.
  EXPECT_EQ(error_code_of(client.request(
                R"({"op":"plan","device":"xc5vlx110t","prm":"fir","deadline_ms":0})")),
            "deadline");
  // A generous budget does not fire.
  EXPECT_EQ(error_code_of(client.request(
                R"({"op":"ping","deadline_ms":60000})")),
            "");
  // Expired requests are answered before the pool fan-out: they count as
  // expired, never as shed, and op/id are echoed like any dispatch.
  EXPECT_GE(harness.server().counters().expired, 1u);
  EXPECT_EQ(harness.server().counters().shed, 0u);
  const Json envelope = Json::parse(client.request(
      R"({"op":"ping","id":42,"deadline_ms":0})"));
  EXPECT_EQ(envelope.find("error")->find("code")->as_string(), "deadline");
  EXPECT_EQ(envelope.find("op")->as_string(), "ping");
  EXPECT_EQ(envelope.find("id")->as_double(), 42.0);
}

TEST(Serve, ExpiredDeadlineUnderOverloadIsDeadlineNotOverloaded) {
  serve::ServerOptions options = unix_options();
  options.max_queue = 0;  // every request hits the shed path
  ServeHarness harness{options};
  serve::Client client = harness.connect();

  // Already past its own deadline when it arrives at a full queue: the
  // client must see the stable "deadline" code, not "overloaded".
  EXPECT_EQ(error_code_of(client.request(
                R"({"op":"ping","deadline_ms":0})")),
            "deadline");
  // With budget remaining, overload still sheds with "overloaded".
  EXPECT_EQ(error_code_of(client.request(
                R"({"op":"ping","deadline_ms":60000})")),
            "overloaded");
  // Deadline-free requests shed as before.
  EXPECT_EQ(error_code_of(client.request(R"({"op":"ping"})")), "overloaded");
  EXPECT_EQ(harness.server().counters().expired, 1u);
  EXPECT_EQ(harness.server().counters().shed, 2u);
}

TEST(Serve, NegativeDeadlineAndUnknownOpAnswerStableCodes) {
  ServeHarness harness{unix_options()};
  serve::Client client = harness.connect();

  EXPECT_EQ(error_code_of(client.request(R"({"op":"ping","deadline_ms":-5})")),
            "usage");
  EXPECT_EQ(error_code_of(client.request(R"({"op":"frobnicate","id":3})")),
            "not_found");
  // Both are per-request answers: the connection keeps serving.
  const Json pong = Json::parse(client.request(R"({"op":"ping"})"));
  EXPECT_TRUE(pong.find("result")->find("pong")->as_bool());
  EXPECT_EQ(harness.server().counters().expired, 0u);
}

TEST(Serve, BurstsLargerThanDispatchBatchKeepPerConnectionOrder) {
  serve::ServerOptions options = unix_options();
  options.dispatch_batch = 4;  // every burst spans many dispatch rounds
  ServeHarness harness{options};
  serve::Client a = harness.connect();
  serve::Client b = harness.connect();

  constexpr int kBurst = 30;
  const auto ping = [](int id) {
    return R"({"op":"ping","id":)" + std::to_string(id) + "}";
  };
  for (int i = 0; i < kBurst; ++i) {
    a.send_line(ping(i));
    b.send_line(ping(1000 + i));
  }
  for (int i = 0; i < kBurst; ++i) {
    const auto from_a = a.recv_line();
    const auto from_b = b.recv_line();
    ASSERT_TRUE(from_a.has_value()) << "response " << i;
    ASSERT_TRUE(from_b.has_value()) << "response " << i;
    EXPECT_EQ(Json::parse(*from_a).find("id")->as_double(),
              static_cast<double>(i));
    EXPECT_EQ(Json::parse(*from_b).find("id")->as_double(),
              static_cast<double>(1000 + i));
  }
  const serve::Server::Counters totals = harness.server().counters();
  EXPECT_EQ(totals.requests, 2u * kBurst);
  EXPECT_EQ(totals.requests, totals.responses);
  EXPECT_EQ(totals.shed, 0u);
}

TEST(Serve, OneWritePastMaxQueueShedsInOrderAndConnectionStaysUp) {
  serve::ServerOptions options = unix_options();
  options.max_queue = 3;
  ServeHarness harness{options};
  serve::Client client = harness.connect();

  // Twenty pings in a single write: the loop frames them all in one
  // round, so everything past the third queued line is shed.
  constexpr int kPings = 20;
  std::string burst;
  for (int i = 0; i < kPings; ++i) {
    if (i != 0) burst += '\n';
    burst += R"({"op":"ping","id":)" + std::to_string(i) + "}";
  }
  client.send_line(burst);

  int shed = 0;
  int answered = 0;
  for (int i = 0; i < kPings; ++i) {
    const auto response = client.recv_line();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    const std::string code = error_code_of(*response);
    if (code == "overloaded") {
      ++shed;
      continue;
    }
    EXPECT_EQ(code, "");
    // The i-th response answers the i-th request.
    EXPECT_EQ(Json::parse(*response).find("id")->as_double(),
              static_cast<double>(i));
    ++answered;
  }
  EXPECT_GE(shed, 1);
  EXPECT_EQ(shed + answered, kPings);
  EXPECT_EQ(harness.server().counters().shed, static_cast<u64>(shed));
  const Json pong = Json::parse(client.request(R"({"op":"ping"})"));
  EXPECT_TRUE(pong.find("result")->find("pong")->as_bool());
}

TEST(Serve, ClientDisconnectMidRequestLeavesServerServing) {
  ServeHarness harness{unix_options()};
  {
    serve::Client doomed = harness.connect();
    // In-flight work when the client vanishes: response is discarded, the
    // daemon must not care.
    doomed.send_line(
        R"({"op":"explore","device":"xc6vlx240t","prms":["fir","sdram","uart"],"workers":1})");
  }  // closed without reading the response
  serve::Client client = harness.connect();
  for (int i = 0; i < 3; ++i) {
    const Json pong = Json::parse(client.request(R"({"op":"ping"})"));
    EXPECT_TRUE(pong.find("result")->find("pong")->as_bool());
  }
}

TEST(Serve, GracefulDrainFinishesInFlightThenClosesConnections) {
  ServeHarness harness{unix_options()};
  serve::Client client = harness.connect();

  // Admitted work completes across the drain.
  const Json before = Json::parse(client.request(R"({"op":"ping"})"));
  EXPECT_TRUE(before.find("result")->find("pong")->as_bool());

  harness.server().stop();
  // After the drain the connection is closed in an orderly way.
  EXPECT_FALSE(client.recv_line().has_value());

  const serve::Server::Counters totals = harness.server().counters();
  EXPECT_EQ(totals.requests, totals.responses);
}

TEST(Serve, TcpListenerBindsEphemeralPortAndServes) {
  serve::ServerOptions options;  // TCP only, no unix listener
  options.tcp_port = 0;
  ServeHarness harness{options};
  const int port = harness.server().tcp_port();
  ASSERT_GT(port, 0);

  serve::Client client = serve::Client::connect_tcp("127.0.0.1", port);
  const Json pong = Json::parse(client.request(R"({"op":"ping"})"));
  EXPECT_TRUE(pong.find("result")->find("pong")->as_bool());
}

TEST(Serve, MetricsOpScrapesLiveOpenMetricsRegistry) {
  ServeHarness harness{unix_options()};
  serve::Client client = harness.connect();

  client.request(R"({"op":"ping"})");  // ensure serve.* counters exist
  const Json envelope = Json::parse(client.request(R"({"op":"metrics"})"));
  const std::string& scrape =
      envelope.find("result")->find("openmetrics")->as_string();
  EXPECT_NE(scrape.find("prcost_serve_requests_total"), std::string::npos);
  EXPECT_NE(scrape.find("# EOF"), std::string::npos);
}

TEST(Serve, CountersTallyAcceptsRequestsResponses) {
  ServeHarness harness{unix_options()};
  {
    serve::Client a = harness.connect();
    serve::Client b = harness.connect();
    a.request(R"({"op":"ping"})");
    b.request(R"({"op":"ping"})");
    a.request(R"({"op":"ping"})");
  }
  const serve::Server::Counters totals = harness.server().counters();
  EXPECT_EQ(totals.accepted, 2u);
  EXPECT_EQ(totals.requests, 3u);
  EXPECT_EQ(totals.responses, 3u);
  EXPECT_EQ(totals.shed, 0u);
}

}  // namespace
}  // namespace prcost
