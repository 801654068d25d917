// End-to-end smoke test for the simpush_serve front end: boots the
// HTTP server on an ephemeral port, issues query/topk/batch/stats
// requests through real sockets, and checks
//   - responses are bit-identical to direct QueryRunner calls,
//   - >= 8 concurrent clients are served correctly,
//   - admission control sheds load with 503,
//   - Shutdown() drains in-flight requests before returning,
//   - the query path performs zero steady-state heap allocations
//     (this binary links simpush_alloc_hook).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/memory.h"
#include "gtest/gtest.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/service.h"
#include "simpush/engine_core.h"
#include "simpush/query_runner.h"
#include "simpush/topk.h"
#include "simpush/workspace.h"
#include "test_util.h"

namespace simpush {
namespace serve {
namespace {

SimPushOptions FastOptions() {
  SimPushOptions options;
  options.epsilon = 0.1;
  options.walk_budget_cap = 20000;
  options.seed = 42;
  return options;
}

// A service + started server on an ephemeral port, with a direct
// (in-process) engine sharing the same options for reference results.
class ServeFixture {
 public:
  explicit ServeFixture(size_t http_workers = 4)
      : graph_(testing_util::MakeFixtureGraph()),
        core_(graph_, FastOptions()) {
    ServiceOptions service_options;
    service_options.query = FastOptions();
    service_options.num_threads = 4;
    service_ = std::make_unique<SimPushService>(graph_, service_options);

    HttpServerOptions server_options;
    server_options.port = 0;
    server_options.num_workers = http_workers;
    server_ = std::make_unique<HttpServer>(server_options);
    service_->RegisterRoutes(server_.get());
    const Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  const Graph& graph() { return graph_; }
  HttpServer& server() { return *server_; }
  SimPushService& service() { return *service_; }
  uint16_t port() { return server_->port(); }

  std::vector<double> DirectScores(NodeId u) {
    QueryWorkspace workspace;
    QueryRunner runner(core_, &workspace);
    auto result = runner.Query(u);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result->scores;
  }

  TopKResult DirectTopK(NodeId u, size_t k) {
    QueryWorkspace workspace;
    QueryRunner runner(core_, &workspace);
    auto result = QueryTopK(&runner, u, k);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

 private:
  Graph graph_;
  EngineCore core_;
  std::unique_ptr<SimPushService> service_;
  std::unique_ptr<HttpServer> server_;
};

// Sends raw bytes (possibly a deliberately malformed request) and
// returns everything the server sends back until it closes the
// connection. Used where HttpClient is too well-behaved to produce
// the condition under test.
std::string RawExchange(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::vector<double> ScoresFromBody(const std::string& body) {
  auto doc = ParseJson(body);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString() << " body: " << body;
  std::vector<double> scores;
  const JsonValue* array = doc->Find("scores");
  EXPECT_NE(array, nullptr) << body;
  if (array == nullptr) return scores;
  for (const JsonValue& item : array->array_items()) {
    scores.push_back(item.number_value());
  }
  return scores;
}

TEST(ServeSmoke, HealthAndStats) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "{\"status\":\"ok\"}\n");

  auto stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  auto doc = ParseJson(stats->body);
  ASSERT_TRUE(doc.ok()) << stats->body;
  EXPECT_EQ(doc->Find("graph")->Find("nodes")->AsIndex().value(), 10u);
  EXPECT_NE(doc->Find("pool"), nullptr);
  EXPECT_NE(doc->Find("latency_ms"), nullptr);
  EXPECT_NE(doc->Find("http"), nullptr);
  EXPECT_GT(doc->Find("memory")->Find("peak_rss_bytes")->number_value(), 0);
}

TEST(ServeSmoke, QueryBitIdenticalToDirectRunner) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  for (NodeId u = 0; u < fixture.graph().num_nodes(); ++u) {
    auto response = client.Post("/v1/query",
                                "{\"node\": " + std::to_string(u) + "}");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200) << response->body;
    const std::vector<double> served = ScoresFromBody(response->body);
    const std::vector<double> direct = fixture.DirectScores(u);
    ASSERT_EQ(served.size(), direct.size());
    for (size_t v = 0; v < direct.size(); ++v) {
      EXPECT_EQ(served[v], direct[v]) << "u=" << u << " v=" << v;
    }
  }
  // All requests rode one keep-alive connection.
  EXPECT_EQ(fixture.server().counters().accepted, 1u);
}

TEST(ServeSmoke, QueryTopKTruncationAndStats) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto response = client.Post(
      "/v1/query", "{\"node\": 3, \"top_k\": 4, \"with_stats\": true}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("scores"), nullptr);  // Truncated response.
  const JsonValue* top = doc->Find("top");
  ASSERT_NE(top, nullptr);
  EXPECT_LE(top->array_items().size(), 4u);
  ASSERT_NE(doc->Find("stats"), nullptr);
  EXPECT_GE(doc->Find("stats")->Find("total_ms")->number_value(), 0.0);

  // Entries match a direct top-k (same ε ⇒ same scores ⇒ same ranking).
  const TopKResult direct = fixture.DirectTopK(3, 4);
  ASSERT_EQ(top->array_items().size(), direct.entries.size());
  for (size_t i = 0; i < direct.entries.size(); ++i) {
    const JsonValue& entry = top->array_items()[i];
    EXPECT_EQ(entry.Find("node")->AsIndex().value(), direct.entries[i].node);
    EXPECT_EQ(entry.Find("score")->number_value(), direct.entries[i].score);
  }
}

TEST(ServeSmoke, TopKEndpointBitIdentical) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto response = client.Post("/v1/topk", "{\"node\": 5, \"k\": 3}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok());
  const TopKResult direct = fixture.DirectTopK(5, 3);
  const JsonValue* top = doc->Find("top");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->array_items().size(), direct.entries.size());
  for (size_t i = 0; i < direct.entries.size(); ++i) {
    const JsonValue& entry = top->array_items()[i];
    EXPECT_EQ(entry.Find("node")->AsIndex().value(), direct.entries[i].node);
    EXPECT_EQ(entry.Find("score")->number_value(), direct.entries[i].score);
  }
}

TEST(ServeSmoke, BatchBitIdentical) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto response = client.Post("/v1/batch",
                              "{\"nodes\": [0, 3, 5, 7, 9], \"k\": 3}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto doc = ParseJson(response->body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* results = doc->Find("results");
  ASSERT_NE(results, nullptr);
  const NodeId nodes[] = {0, 3, 5, 7, 9};
  ASSERT_EQ(results->array_items().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    const JsonValue& result = results->array_items()[i];
    EXPECT_EQ(result.Find("node")->AsIndex().value(), nodes[i]);
    const TopKResult direct = fixture.DirectTopK(nodes[i], 3);
    const JsonValue* top = result.Find("top");
    ASSERT_NE(top, nullptr);
    ASSERT_EQ(top->array_items().size(), direct.entries.size());
    for (size_t j = 0; j < direct.entries.size(); ++j) {
      EXPECT_EQ(top->array_items()[j].Find("score")->number_value(),
                direct.entries[j].score)
          << "query " << nodes[i] << " rank " << j;
    }
  }
}

TEST(ServeSmoke, ErrorResponses) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  EXPECT_EQ(client.Post("/v1/query", "{not json")->status, 400);
  EXPECT_EQ(client.Post("/v1/query", "{}")->status, 400);        // no node
  EXPECT_EQ(client.Post("/v1/query", "[1,2]")->status, 400);     // not object
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 10}")->status, 400);
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": -1}")->status, 400);
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 1e999}")->status, 400);
  // 2^32 + 5 must not wrap to node 5 through the 32-bit NodeId.
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 4294967301}")->status, 400);
  EXPECT_EQ(client.Post("/v1/topk", "{\"node\": 4294967301}")->status, 400);
  EXPECT_EQ(client.Post("/v1/batch", "{\"nodes\": [0, 99]}")->status, 400);
  EXPECT_EQ(client.Get("/nope")->status, 404);
  EXPECT_EQ(client.Get("/v1/query")->status, 405);  // wrong method
  EXPECT_EQ(client.Post("/healthz", "{}")->status, 405);

  // Oversized batches are rejected up front with 413.
  std::string big = "{\"nodes\": [";
  for (int i = 0; i < 5000; ++i) {
    big += (i ? ",0" : "0");
  }
  big += "]}";
  EXPECT_EQ(client.Post("/v1/batch", big)->status, 413);

  // The service is still healthy afterwards.
  EXPECT_EQ(client.Get("/healthz")->status, 200);
}

TEST(ServeSmoke, EightConcurrentClientsBitIdentical) {
  ServeFixture fixture(/*http_workers=*/8);
  const NodeId n = fixture.graph().num_nodes();

  // Reference scores computed once, in process.
  std::vector<std::vector<double>> expected(n);
  for (NodeId u = 0; u < n; ++u) expected[u] = fixture.DirectScores(u);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client("127.0.0.1", fixture.port());
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const NodeId u = static_cast<NodeId>((c + r) % n);
        auto response = client.Post(
            "/v1/query", "{\"node\": " + std::to_string(u) + "}");
        if (!response.ok() || response->status != 200) {
          failures.fetch_add(1);
          continue;
        }
        const std::vector<double> served = ScoresFromBody(response->body);
        if (served != expected[u]) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(fixture.server().counters().requests,
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  // All leases returned once the dust settles.
  EXPECT_EQ(fixture.service().registry().Stats("default")->pool_outstanding,
            0u);
}

TEST(ServeSmoke, AdmissionControlSheds503) {
  // One worker, an admission queue of one: the third concurrent
  // connection must be shed with 503 while the first is in flight.
  HttpServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  options.max_queued_connections = 1;
  HttpServer server(options);
  server.Route("POST", "/slow", [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return HttpResponse{200, "application/json", "{\"slow\":true}"};
  });
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> ok_200{0};
  std::thread first([&] {
    HttpClient client("127.0.0.1", server.port());
    auto response = client.Post("/slow", "{}");
    if (response.ok() && response->status == 200) ok_200.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread second([&] {  // Waits in the admission queue, then serves.
    HttpClient client("127.0.0.1", server.port());
    auto response = client.Post("/slow", "{}");
    if (response.ok() && response->status == 200) ok_200.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  HttpClient shed("127.0.0.1", server.port());
  auto response = shed.Post("/slow", "{}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 503);
  EXPECT_EQ(response->body, "{\"error\":\"overloaded\"}\n");

  first.join();
  second.join();
  EXPECT_EQ(ok_200.load(), 2);
  EXPECT_EQ(server.counters().rejected_503, 1u);
  server.Shutdown();
}

TEST(ServeSmoke, MalformedContentLengthIs400) {
  ServeFixture fixture;
  const std::string response = RawExchange(
      fixture.port(),
      "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n");
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos) << response;
  EXPECT_NE(response.find("malformed content-length"), std::string::npos);
  // A digits-then-garbage value must not frame the body off its prefix
  // (that would desync the keep-alive stream).
  const std::string garbage = RawExchange(
      fixture.port(),
      "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 12abc\r\n\r\n"
      "{\"node\": 3}x");
  EXPECT_NE(garbage.find("400 Bad Request"), std::string::npos) << garbage;
}

TEST(ServeSmoke, IdleConnectionsAreReclaimed) {
  // One worker with a short idle timeout: a client that parks its
  // keep-alive connection must not pin the worker — the server closes
  // it and serves the next client.
  HttpServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  options.read_timeout_ms = 50;
  options.idle_timeout_ms = 150;
  HttpServer server(options);
  server.Route("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse{200, "application/json", "{}"};
  });
  ASSERT_TRUE(server.Start().ok());

  HttpClient parked("127.0.0.1", server.port());
  ASSERT_EQ(parked.Get("/ping")->status, 200);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // Without reclamation this would hang forever on the busy worker.
  HttpClient fresh("127.0.0.1", server.port());
  EXPECT_EQ(fresh.Get("/ping")->status, 200);
  // The parked client transparently reconnects on its next request.
  EXPECT_EQ(parked.Get("/ping")->status, 200);

  // A mid-request stall (headers never completed) is answered with 408.
  const std::string stalled =
      RawExchange(server.port(), "POST /v1/query HTTP/1.1\r\n");
  EXPECT_NE(stalled.find("408 Request Timeout"), std::string::npos)
      << stalled;
  server.Shutdown();
}

TEST(ServeSmoke, GracefulShutdownDrainsInFlight) {
  HttpServerOptions options;
  options.port = 0;
  options.num_workers = 2;
  HttpServer server(options);
  std::atomic<int> slow_entered{0};
  server.Route("POST", "/slow", [&](const HttpRequest&) {
    slow_entered.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return HttpResponse{200, "application/json", "{\"slow\":true}"};
  });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::atomic<bool> drained_ok{false};
  std::thread in_flight([&] {
    HttpClient client("127.0.0.1", port);
    auto response = client.Post("/slow", "{}");
    drained_ok.store(response.ok() && response->status == 200);
  });
  // Wait until the request is genuinely in flight, then drain.
  while (slow_entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Shutdown();
  // Shutdown must not have cut the in-flight request off.
  in_flight.join();
  EXPECT_TRUE(drained_ok.load());
  EXPECT_FALSE(server.running());

  // The listen socket is gone: new connections are refused.
  HttpClient late("127.0.0.1", port);
  EXPECT_FALSE(late.Get("/healthz").ok());
}

// ---------------------------------------------------------------------------
// Multi-tenant registry endpoints: /v1/graphs CRUD, edge updates, hot
// swap — covered end to end over real sockets.
// ---------------------------------------------------------------------------

// The 6-node ring graph used as the second tenant, as raw edges (kept
// sorted so the reference GraphBuilder output matches the registry's
// canonical snapshots byte for byte).
std::vector<std::pair<NodeId, NodeId>> RingEdges() {
  return {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}};
}

std::vector<double> DirectScoresWith(const Graph& graph,
                                     const SimPushOptions& options,
                                     NodeId u) {
  EngineCore core(graph, options);
  QueryWorkspace workspace;
  QueryRunner runner(core, &workspace);
  auto result = runner.Query(u);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->scores;
}

std::vector<double> DirectScoresOn(const Graph& graph, NodeId u) {
  return DirectScoresWith(graph, FastOptions(), u);
}

TEST(ServeMultiGraph, CreateQuerySwapDeleteEndToEnd) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  // Create a second tenant from inline edges.
  auto created = client.Post(
      "/v1/graphs",
      "{\"name\":\"ring\",\"nodes\":6,"
      "\"edges\":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  auto created_doc = ParseJson(created->body);
  ASSERT_TRUE(created_doc.ok());
  EXPECT_EQ(created_doc->Find("nodes")->AsIndex().value(), 6u);
  EXPECT_EQ(created_doc->Find("edges")->AsIndex().value(), 6u);
  const uint64_t generation1 =
      created_doc->Find("generation")->AsIndex().value();

  // Both tenants are listed.
  auto list = client.Get("/v1/graphs");
  ASSERT_TRUE(list.ok());
  auto list_doc = ParseJson(list->body);
  ASSERT_TRUE(list_doc.ok());
  ASSERT_EQ(list_doc->Find("graphs")->array_items().size(), 2u);

  // Queries route by the "graph" field and are bit-identical to a
  // direct engine on the same graph.
  Graph ring = testing_util::MakeGraph(6, RingEdges());
  auto response =
      client.Post("/v1/query", "{\"node\": 2, \"graph\": \"ring\"}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  EXPECT_EQ(ScoresFromBody(response->body), DirectScoresOn(ring, 2));
  {
    auto doc = ParseJson(response->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->Find("graph")->string_value(), "ring");
    EXPECT_EQ(doc->Find("generation")->AsIndex().value(), generation1);
  }
  // The default tenant still serves without a "graph" field.
  EXPECT_EQ(ScoresFromBody(client.Post("/v1/query", "{\"node\": 1}")->body),
            fixture.DirectScores(1));

  // Stage updates: applied to the master but NOT served until a swap.
  auto updated = client.Post("/v1/graphs/ring/edges",
                             "{\"add\":[[2,0],[0,3]],\"remove\":[[5,0]]}");
  ASSERT_TRUE(updated.ok());
  ASSERT_EQ(updated->status, 200) << updated->body;
  auto updated_doc = ParseJson(updated->body);
  ASSERT_TRUE(updated_doc.ok());
  EXPECT_EQ(updated_doc->Find("applied")->AsIndex().value(), 3u);
  EXPECT_EQ(updated_doc->Find("pending")->AsIndex().value(), 3u);
  EXPECT_FALSE(updated_doc->Find("swapped")->bool_value());
  EXPECT_EQ(ScoresFromBody(
                client.Post("/v1/query", "{\"node\":2,\"graph\":\"ring\"}")
                    ->body),
            DirectScoresOn(ring, 2))
      << "pre-swap queries must still serve the old generation";

  // Swap publishes the staged generation; queries now match a direct
  // engine on the updated graph (canonical snapshot = sorted builder).
  auto swapped = client.Post("/v1/graphs/ring/swap", "");
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ(swapped->status, 200) << swapped->body;
  auto swapped_doc = ParseJson(swapped->body);
  ASSERT_TRUE(swapped_doc.ok());
  EXPECT_TRUE(swapped_doc->Find("swapped")->bool_value());
  EXPECT_EQ(swapped_doc->Find("pending")->AsIndex().value(), 0u);
  EXPECT_GT(swapped_doc->Find("generation")->AsIndex().value(), generation1);
  Graph ring2 = testing_util::MakeGraph(
      6, {{0, 1}, {0, 3}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}});
  EXPECT_EQ(ScoresFromBody(
                client.Post("/v1/query", "{\"node\":2,\"graph\":\"ring\"}")
                    ->body),
            DirectScoresOn(ring2, 2));

  // Per-tenant stats section reflects the swap.
  auto graph_stats = client.Get("/v1/graphs/ring");
  ASSERT_TRUE(graph_stats.ok());
  ASSERT_EQ(graph_stats->status, 200);
  auto stats_doc = ParseJson(graph_stats->body);
  ASSERT_TRUE(stats_doc.ok());
  const JsonValue* section = stats_doc->Find("stats");
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->Find("swap_count")->AsIndex().value(), 2u);
  EXPECT_EQ(section->Find("edges")->AsIndex().value(), 7u);
  EXPECT_EQ(section->Find("pending_updates")->AsIndex().value(), 0u);

  // Delete: the tenant vanishes, the default tenant is untouched, and
  // the name can be reused.
  auto deleted = client.Request("DELETE", "/v1/graphs/ring");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->status, 200) << deleted->body;
  EXPECT_EQ(client.Post("/v1/query", "{\"node\":0,\"graph\":\"ring\"}")
                ->status,
            404);
  EXPECT_EQ(client.Get("/v1/graphs/ring")->status, 404);
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 1}")->status, 200);
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"ring\",\"nodes\":2,\"edges\":[[0,1]]}")
                ->status,
            201);
}

// Atomic edges batches over the wire: a 4xx batch whose valid prefix
// would have applied must leave the master untouched, so a swap right
// after serves the PRE-batch graph bit-identically — never half a
// batch. Also pins the delta-publish stats keys in the tenant section.
TEST(ServeMultiGraph, RejectedEdgesBatchIsAtomicThroughSwap) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());
  ASSERT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"ring\",\"nodes\":6,"
                      "\"edges\":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}")
                ->status,
            201);

  // Valid adds up front, an absent-edge remove at the end: 400, and
  // the response says no updates were applied.
  auto rejected = client.Post(
      "/v1/graphs/ring/edges",
      "{\"add\":[[2,0],[0,3]],\"remove\":[[1,5]]}");  // (1,5) absent.
  ASSERT_TRUE(rejected.ok());
  ASSERT_EQ(rejected->status, 400) << rejected->body;
  EXPECT_NE(rejected->body.find("no updates applied"), std::string::npos)
      << rejected->body;

  // A swap after the rejected batch publishes the pre-batch bytes:
  // scores match a direct engine on the ORIGINAL ring.
  ASSERT_EQ(client.Post("/v1/graphs/ring/swap", "")->status, 200);
  Graph ring = testing_util::MakeGraph(6, RingEdges());
  EXPECT_EQ(ScoresFromBody(
                client.Post("/v1/query", "{\"node\":2,\"graph\":\"ring\"}")
                    ->body),
            DirectScoresOn(ring, 2))
      << "swap after a rejected batch must serve pre-batch bytes";

  auto graph_stats = client.Get("/v1/graphs/ring");
  ASSERT_TRUE(graph_stats.ok());
  auto stats_doc = ParseJson(graph_stats->body);
  ASSERT_TRUE(stats_doc.ok());
  const JsonValue* section = stats_doc->Find("stats");
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->Find("updates_applied")->AsIndex().value(), 0u);
  EXPECT_EQ(section->Find("edges")->AsIndex().value(), 6u);
  // Delta-publish observability keys: the forced swap above had a live
  // base and a clean master, so it counted as a delta swap, and the
  // publish timing is recorded.
  ASSERT_NE(section->Find("delta_swaps"), nullptr);
  EXPECT_EQ(section->Find("delta_swaps")->AsIndex().value(), 1u);
  ASSERT_NE(section->Find("dirty_vertices"), nullptr);
  EXPECT_EQ(section->Find("dirty_vertices")->AsIndex().value(), 0u);
  ASSERT_NE(section->Find("last_swap_ms"), nullptr);
  EXPECT_GE(section->Find("last_swap_ms")->number_value(), 0.0);
}

TEST(ServeMultiGraph, AdminErrorResponses) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  // Creating over an existing name conflicts.
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"default\",\"nodes\":2,\"edges\":[[0,1]]}")
                ->status,
            409);
  // Bad names, bad bodies.
  EXPECT_EQ(client.Post("/v1/graphs", "{\"nodes\":2}")->status, 400);
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"a/b\",\"nodes\":2,\"edges\":[]}")
                ->status,
            400);
  EXPECT_EQ(client.Post("/v1/graphs", "{\"name\":\"g\"}")->status, 400);
  // Inline creates are size-capped: a tiny request must not be able to
  // command a multi-GB CSR allocation (load big graphs via "path").
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"big\",\"nodes\":4294967295,\"edges\":[]}")
                ->status,
            400);  // kInvalidNode sentinel.
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"big\",\"nodes\":2000000,\"edges\":[]}")
                ->status,
            413);
  // Path-based creation is an arbitrary-file-read surface; it is off
  // unless the operator opted in with --allow-path-create.
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"f\",\"path\":\"/etc/passwd\"}")
                ->status,
            403);
  EXPECT_EQ(client
                .Post("/v1/graphs",
                      "{\"name\":\"g\",\"nodes\":2,\"edges\":[[0]]}")
                ->status,
            400);
  // Unknown tenants: queries and admin ops both 404.
  EXPECT_EQ(client.Post("/v1/query", "{\"node\":0,\"graph\":\"nope\"}")
                ->status,
            404);
  EXPECT_EQ(client.Post("/v1/topk", "{\"node\":0,\"graph\":\"nope\"}")
                ->status,
            404);
  EXPECT_EQ(
      client.Post("/v1/batch", "{\"nodes\":[0],\"graph\":\"nope\"}")->status,
      404);
  EXPECT_EQ(client.Post("/v1/graphs/nope/swap", "")->status, 404);
  EXPECT_EQ(client.Post("/v1/graphs/nope/edges", "{\"add\":[[0,1]]}")
                ->status,
            404);
  EXPECT_EQ(client.Request("DELETE", "/v1/graphs/nope")->status, 404);
  // Known tenant, bad update payloads.
  EXPECT_EQ(client.Post("/v1/graphs/default/edges", "{}")->status, 400);
  EXPECT_EQ(client.Post("/v1/graphs/default/edges",
                        "{\"remove\":[[7,9]]}")  // Edge not present.
                ->status,
            400);
  // Unknown sub-operation and wrong methods.
  EXPECT_EQ(client.Post("/v1/graphs/default/nope", "{}")->status, 404);
  EXPECT_EQ(client.Get("/v1/graphs/default/edges")->status, 405);
  EXPECT_EQ(client.Request("DELETE", "/v1/graphs")->status, 405);
  // The service survives all of it.
  EXPECT_EQ(client.Get("/healthz")->status, 200);
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 1}")->status, 200);
}

// Auto-swap at the configured pending-update threshold, exercised
// through the handlers directly (no sockets needed).
TEST(ServeMultiGraph, AutoSwapAtThreshold) {
  Graph graph = testing_util::MakeFixtureGraph();
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  options.swap_threshold = 3;
  SimPushService service(graph, options);

  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/graphs/default/edges";
  request.body = "{\"add\":[[0,5],[1,6]]}";
  HttpResponse response = service.HandleGraphOp(request);
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(doc->Find("swapped")->bool_value());
  EXPECT_EQ(doc->Find("pending")->AsIndex().value(), 2u);

  request.body = "{\"add\":[[2,7]]}";  // Third pending update: swap.
  response = service.HandleGraphOp(request);
  ASSERT_EQ(response.status, 200) << response.body;
  doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->Find("swapped")->bool_value());
  EXPECT_EQ(doc->Find("pending")->AsIndex().value(), 0u);

  // The served graph now has the three extra edges.
  auto stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_edges, graph.num_edges() + 3);
  EXPECT_EQ(stats->swap_count, 2u);

  // An explicit "swap":true forces publication below the threshold.
  request.body = "{\"add\":[[3,8]],\"swap\":true}";
  response = service.HandleGraphOp(request);
  ASSERT_EQ(response.status, 200) << response.body;
  doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->Find("swapped")->bool_value());
}

// Update-size admission control: oversized edge batches get 413.
TEST(ServeMultiGraph, OversizedUpdateRejected413) {
  Graph graph = testing_util::MakeFixtureGraph();
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  options.max_update_edges = 4;
  SimPushService service(graph, options);

  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/graphs/default/edges";
  request.body = "{\"add\":[[0,1],[0,2],[0,3],[0,4],[0,5]]}";
  EXPECT_EQ(service.HandleGraphOp(request).status, 413);
  request.body = "{\"add\":[[0,1],[0,2],[0,3],[0,4]]}";
  EXPECT_EQ(service.HandleGraphOp(request).status, 200);
}

// ---------------------------------------------------------------------------
// Per-tenant engine options and the per-request ε override.
// ---------------------------------------------------------------------------

// The bounded per-request "epsilon" override: runs through a fresh
// core on the leased generation, matches a direct QueryRunner built
// with that ε, and leaves the tenant's pooled hot path bit-identical.
TEST(ServeSmoke, PerRequestEpsilonOverride) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  SimPushOptions override_options = FastOptions();
  override_options.epsilon = 0.25;

  // Pooled baseline before any override traffic.
  const std::vector<double> baseline = fixture.DirectScores(3);
  EXPECT_EQ(ScoresFromBody(client.Post("/v1/query", "{\"node\": 3}")->body),
            baseline);

  // Override query: scores match a direct runner with ε = 0.25, and
  // the response reports the ε that actually ran.
  auto response =
      client.Post("/v1/query", "{\"node\": 3, \"epsilon\": 0.25}");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  EXPECT_EQ(ScoresFromBody(response->body),
            DirectScoresWith(fixture.graph(), override_options, 3));
  {
    auto doc = ParseJson(response->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->Find("epsilon")->number_value(), 0.25);
  }

  // The override must actually change the answer (otherwise this test
  // proves nothing) and must NOT perturb the tenant's pooled hot path.
  EXPECT_NE(ScoresFromBody(response->body), baseline);
  EXPECT_EQ(ScoresFromBody(client.Post("/v1/query", "{\"node\": 3}")->body),
            baseline);

  // /v1/topk honors the same override.
  auto topk = client.Post("/v1/topk",
                          "{\"node\": 5, \"k\": 3, \"epsilon\": 0.25}");
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->status, 200) << topk->body;
  {
    EngineCore core(fixture.graph(), override_options);
    QueryWorkspace workspace;
    QueryRunner runner(core, &workspace);
    auto direct = QueryTopK(&runner, 5, 3);
    ASSERT_TRUE(direct.ok());
    auto doc = ParseJson(topk->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->Find("epsilon")->number_value(), 0.25);
    const JsonValue* top = doc->Find("top");
    ASSERT_NE(top, nullptr);
    ASSERT_EQ(top->array_items().size(), direct->entries.size());
    for (size_t i = 0; i < direct->entries.size(); ++i) {
      EXPECT_EQ(top->array_items()[i].Find("node")->AsIndex().value(),
                direct->entries[i].node);
      EXPECT_EQ(top->array_items()[i].Find("score")->number_value(),
                direct->entries[i].score);
    }
  }
}

// Override validation at the HTTP boundary: non-numbers, out-of-range
// values and sub-floor values are 400s that name the field — never a
// query that runs with a garbage ε.
TEST(ServeSmoke, EpsilonOverrideValidation) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  for (const char* body : {
           "{\"node\": 3, \"epsilon\": \"small\"}",
           "{\"node\": 3, \"epsilon\": 0}",
           "{\"node\": 3, \"epsilon\": -0.1}",
           "{\"node\": 3, \"epsilon\": 1}",
           "{\"node\": 3, \"epsilon\": 1.5}",
           "{\"node\": 3, \"epsilon\": null}",
           "{\"node\": 3, \"epsilon\": 0.0001}",  // Below the 1e-3 floor.
       }) {
    auto response = client.Post("/v1/query", body);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 400) << body << " -> " << response->body;
    EXPECT_NE(response->body.find("epsilon"), std::string::npos)
        << "error must name the field: " << response->body;
    EXPECT_EQ(client.Post("/v1/topk", body)->status, 400);
  }
  // The service still serves afterwards.
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 3}")->status, 200);
}

// Per-tenant options end to end: create tenants with an "options"
// object, observe distinct-ε answers, per-tenant stats, and options
// surviving a hot swap.
TEST(ServeMultiGraph, PerTenantOptionsEndToEnd) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  // Two tenants, same graph (the 10-node fixture, whose cross scores
  // are nonzero and ε-sensitive — a plain ring's are all zero): one
  // with its own ε and seed, one inheriting the process defaults.
  const char* kFixtureEdges =
      "[[1,0],[2,0],[3,0],[4,1],[5,1],[5,2],[6,2],[6,3],[7,4],[8,4],"
      "[8,5],[9,5],[9,6],[0,7],[2,9],[1,8]]";
  auto created = client.Post(
      "/v1/graphs",
      std::string("{\"name\":\"coarse\",\"nodes\":10,\"edges\":") +
          kFixtureEdges +
          ",\"options\":{\"epsilon\":0.4,\"seed\":7}}");
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  {
    auto doc = ParseJson(created->body);
    ASSERT_TRUE(doc.ok());
    const JsonValue* options = doc->Find("options");
    ASSERT_NE(options, nullptr) << created->body;
    EXPECT_EQ(options->Find("epsilon")->number_value(), 0.4);
    EXPECT_EQ(options->Find("seed")->AsIndex().value(), 7u);
    // Unspecified fields inherit the process defaults.
    EXPECT_EQ(options->Find("decay")->number_value(), FastOptions().decay);
  }
  ASSERT_EQ(client
                .Post("/v1/graphs",
                      std::string(
                          "{\"name\":\"plain\",\"nodes\":10,\"edges\":") +
                          kFixtureEdges + "}")
                ->status,
            201);

  SimPushOptions coarse_options = FastOptions();
  coarse_options.epsilon = 0.4;
  coarse_options.seed = 7;
  const Graph& reference = fixture.graph();  // Same edges, same builder.

  // Each tenant answers with its own configuration, bit-identical to a
  // direct engine with those options; over a few probe nodes the two
  // configurations must disagree somewhere.
  std::string coarse_body;
  bool any_difference = false;
  for (const NodeId u : {NodeId{1}, NodeId{3}, NodeId{7}}) {
    const std::string request =
        "{\"node\": " + std::to_string(u) + ", \"graph\": \"";
    auto coarse = client.Post("/v1/query", request + "coarse\"}");
    auto plain = client.Post("/v1/query", request + "plain\"}");
    ASSERT_TRUE(coarse.ok());
    ASSERT_TRUE(plain.ok());
    ASSERT_EQ(coarse->status, 200) << coarse->body;
    ASSERT_EQ(plain->status, 200) << plain->body;
    EXPECT_EQ(ScoresFromBody(coarse->body),
              DirectScoresWith(reference, coarse_options, u));
    EXPECT_EQ(ScoresFromBody(plain->body), DirectScoresOn(reference, u));
    if (ScoresFromBody(coarse->body) != ScoresFromBody(plain->body)) {
      any_difference = true;
    }
    EXPECT_EQ(ParseJson(coarse->body)->Find("epsilon")->number_value(), 0.4);
    EXPECT_EQ(ParseJson(plain->body)->Find("epsilon")->number_value(),
              FastOptions().epsilon);
    if (u == 3) {
      coarse_body = coarse->body;
    }
  }
  EXPECT_TRUE(any_difference)
      << "distinct per-tenant ε must change some answer";

  // /v1/stats: each tenant section reports its own effective options
  // and the generation they took effect in.
  auto stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto stats_doc = ParseJson(stats->body);
  ASSERT_TRUE(stats_doc.ok()) << stats->body;
  const JsonValue* graphs = stats_doc->Find("graphs");
  ASSERT_NE(graphs, nullptr);
  const JsonValue* coarse_section = graphs->Find("coarse");
  const JsonValue* plain_section = graphs->Find("plain");
  ASSERT_NE(coarse_section, nullptr);
  ASSERT_NE(plain_section, nullptr);
  EXPECT_EQ(coarse_section->Find("options")->Find("epsilon")->number_value(),
            0.4);
  EXPECT_EQ(coarse_section->Find("options")->Find("seed")->AsIndex().value(),
            7u);
  EXPECT_EQ(coarse_section->Find("options_generation")->AsIndex().value(),
            coarse_section->Find("generation")->AsIndex().value());
  EXPECT_EQ(plain_section->Find("options")->Find("epsilon")->number_value(),
            FastOptions().epsilon);

  // A hot swap preserves the tenant's options: same bits after a
  // no-update swap (new generation, same canonical graph, same ε/seed).
  auto swapped = client.Post("/v1/graphs/coarse/swap", "");
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ(swapped->status, 200) << swapped->body;
  auto after = client.Post("/v1/query", "{\"node\": 3, \"graph\": \"coarse\"}");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->status, 200) << after->body;
  EXPECT_GT(ParseJson(after->body)->Find("generation")->AsIndex().value(),
            ParseJson(coarse_body)->Find("generation")->AsIndex().value());
  EXPECT_EQ(ScoresFromBody(after->body), ScoresFromBody(coarse_body));
}

// Option-validation gaps at the HTTP boundary: every malformed
// "options" payload is a 400 naming the offending field, and nothing
// is registered.
TEST(ServeMultiGraph, InvalidOptionsRejected400) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  const std::pair<const char*, const char*> kCases[] = {
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"epsilon\":0}}",
       "epsilon"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"epsilon\":1.5}}",
       "epsilon"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"epsilon\":\"tiny\"}}",
       "epsilon"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"decay\":-0.5}}",
       "decay"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"delta\":2}}",
       "delta"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"seed\":-1}}",
       "seed"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"eps\":0.1}}",
       "unknown option"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":3}",
       "options"},
      // Network-supplied cost bounds: a tiny tenant ε or an uncapped
      // walk budget would let any client buy arbitrarily expensive
      // queries through a cheap create call.
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"epsilon\":0.0001}}",
       "min_request_epsilon"},
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"walk_budget_cap\":0}}",
       "walk_budget_cap"},
      // A huge positive cap is arithmetically the same as uncapped;
      // clients may only lower the cap below the server default
      // (FastOptions sets 20000).
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"walk_budget_cap\":9007199254740991}}",
       "walk_budget_cap"},
      // decay → 1 makes walk length diverge and the walk cap does not
      // bound it; clients may not raise decay above the default (0.6).
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"decay\":0.9999999}}",
       "decay"},
      // num_walks grows with log(1/δ); clients may not lower delta
      // below the default (1e-4).
      {"{\"name\":\"bad\",\"nodes\":2,\"edges\":[[0,1]],"
       "\"options\":{\"delta\":1e-12}}",
       "delta"},
  };
  for (const auto& [body, field] : kCases) {
    auto response = client.Post("/v1/graphs", body);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 400) << body << " -> " << response->body;
    EXPECT_NE(response->body.find(field), std::string::npos)
        << "error must name \"" << field << "\": " << response->body;
  }
  // Nothing got registered, and the service is intact.
  EXPECT_EQ(client.Get("/v1/graphs/bad")->status, 404);
  EXPECT_EQ(client.Get("/healthz")->status, 200);
  EXPECT_EQ(client.Post("/v1/query", "{\"node\": 1}")->status, 200);
}

// A failed default-graph install must not be swallowed: /healthz turns
// 503, /v1/stats names the error, and a successful re-install of the
// default graph recovers. Exercised through the handlers directly.
TEST(ServeStartup, FailedDefaultGraphSurfaces503) {
  Graph graph = testing_util::MakeFixtureGraph();
  ServiceOptions options;
  options.query = FastOptions();
  options.query.epsilon = std::nan("");  // NaN must not pass validation.
  options.num_threads = 2;
  SimPushService service(graph, options);

  EXPECT_FALSE(service.startup_status().ok());
  HttpRequest request;
  EXPECT_EQ(service.HandleHealth(request).status, 503);
  EXPECT_NE(service.HandleHealth(request).body.find("epsilon"),
            std::string::npos);
  const HttpResponse stats = service.HandleStats(request);
  EXPECT_NE(stats.body.find("startup_error"), std::string::npos);
  // No default tenant: queries 404 rather than silently serving.
  SimPushResult result;
  EXPECT_EQ(service.RunQuery(3, &result).code(), StatusCode::kNotFound);

  // Installing the default graph with valid options recovers health.
  ASSERT_TRUE(service
                  .AddGraph("default", testing_util::MakeFixtureGraph(),
                            FastOptions())
                  .ok());
  EXPECT_TRUE(service.startup_status().ok());
  EXPECT_EQ(service.HandleHealth(request).status, 200);
  EXPECT_EQ(service.HandleStats(request).body.find("startup_error"),
            std::string::npos);
  EXPECT_TRUE(service.RunQuery(3, &result).ok());
}

// The serve hot path — lease a pooled workspace, QueryInto reused
// buffers, return the lease — performs zero heap allocations once
// workspace and result are warm. Guarded by the counting operator
// new/delete in simpush_alloc_hook, which this test binary links.
TEST(ServeZeroAlloc, QueryPathSteadyState) {
  Graph graph = testing_util::MakeFixtureGraph();
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  SimPushService service(graph, options);

  SimPushResult result;
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_TRUE(service.RunQuery(3, &result).ok());
  }
  const AllocationStats before = GetAllocationStats();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(service.RunQuery(3, &result).ok());
  }
  const AllocationStats after = GetAllocationStats();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "steady-state serve query path allocated";
}

// ---------------------------------------------------------------------------
// Generation-keyed result cache, end to end.
// ---------------------------------------------------------------------------

// Repeat query: the second response is served from the cache, stamped
// "cached": true, and — modulo that stamp — byte-identical to the
// computed response. Stats surface the hit.
TEST(ServeCache, CachedResponseIsByteIdenticalPlusStamp) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto first = client.Post("/v1/query", "{\"node\": 4}");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 200) << first->body;
  EXPECT_EQ(first->body.find("\"cached\""), std::string::npos)
      << "first request computed, must not be stamped: " << first->body;

  auto second = client.Post("/v1/query", "{\"node\": 4}");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->status, 200) << second->body;
  std::string body = second->body;
  const std::string stamp = ",\"cached\":true";
  const size_t at = body.find(stamp);
  ASSERT_NE(at, std::string::npos) << body;
  body.erase(at, stamp.size());
  EXPECT_EQ(body, first->body)
      << "cached response must be byte-identical modulo the stamp";

  // /v1/topk serves from the same entry and stamps too.
  auto topk = client.Post("/v1/topk", "{\"node\": 4, \"k\": 3}");
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->status, 200) << topk->body;
  EXPECT_NE(topk->body.find("\"cached\":true"), std::string::npos)
      << topk->body;

  // The tenant stats section reports the hits.
  auto stats = client.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  auto doc = ParseJson(stats->body);
  ASSERT_TRUE(doc.ok()) << stats->body;
  const JsonValue* cache =
      doc->Find("graphs")->Find("default")->Find("cache");
  ASSERT_NE(cache, nullptr) << stats->body;
  EXPECT_TRUE(cache->Find("enabled")->bool_value());
  EXPECT_GE(cache->Find("hits")->AsIndex().value(), 2u);
  EXPECT_GE(cache->Find("inserts")->AsIndex().value(), 1u);
  EXPECT_GE(cache->Find("entries")->AsIndex().value(), 1u);
  EXPECT_GT(cache->Find("bytes")->AsIndex().value(), 0u);
}

// The ε override participates in keying: an explicit ε equal to the
// tenant's canonicalizes to the tenant entry; a different ε keys its
// own entry and never contaminates the tenant's.
TEST(ServeCache, EpsilonOverrideKeysSeparately) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  // Warm the tenant-options entry for node 3.
  auto baseline = client.Post("/v1/query", "{\"node\": 3}");
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->status, 200) << baseline->body;
  const std::vector<double> base_scores = ScoresFromBody(baseline->body);

  // Explicit ε == tenant ε (FastOptions: 0.1) is the same key —
  // default-vs-explicit must hit the shared entry, not recompute.
  auto explicit_eps =
      client.Post("/v1/query", "{\"node\": 3, \"epsilon\": 0.1}");
  ASSERT_TRUE(explicit_eps.ok());
  ASSERT_EQ(explicit_eps->status, 200) << explicit_eps->body;
  EXPECT_NE(explicit_eps->body.find("\"cached\":true"), std::string::npos)
      << explicit_eps->body;
  EXPECT_EQ(ScoresFromBody(explicit_eps->body), base_scores);

  // A different ε misses (computed), then hits its own entry.
  auto coarse1 = client.Post("/v1/query", "{\"node\": 3, \"epsilon\": 0.25}");
  ASSERT_TRUE(coarse1.ok());
  ASSERT_EQ(coarse1->status, 200) << coarse1->body;
  EXPECT_EQ(coarse1->body.find("\"cached\""), std::string::npos)
      << coarse1->body;
  SimPushOptions coarse_options = FastOptions();
  coarse_options.epsilon = 0.25;
  EXPECT_EQ(ScoresFromBody(coarse1->body),
            DirectScoresWith(fixture.graph(), coarse_options, 3));

  auto coarse2 = client.Post("/v1/query", "{\"node\": 3, \"epsilon\": 0.25}");
  ASSERT_TRUE(coarse2.ok());
  ASSERT_EQ(coarse2->status, 200) << coarse2->body;
  EXPECT_NE(coarse2->body.find("\"cached\":true"), std::string::npos)
      << coarse2->body;
  EXPECT_EQ(ScoresFromBody(coarse2->body), ScoresFromBody(coarse1->body));

  // The tenant entry is untouched by the override traffic.
  auto after = client.Post("/v1/query", "{\"node\": 3}");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->body.find("\"cached\":true"), std::string::npos);
  EXPECT_EQ(ScoresFromBody(after->body), base_scores);
}

// /v1/batch deduplicates repeated sources: N positions, M ≤ N distinct
// nodes scored, every position's entries bit-identical to the
// no-duplicate request.
TEST(ServeCache, BatchDeduplicatesRepeatedSources) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto deduped = client.Post("/v1/batch",
                             "{\"nodes\": [3, 5, 3, 3, 5, 7], \"k\": 3}");
  ASSERT_TRUE(deduped.ok());
  ASSERT_EQ(deduped->status, 200) << deduped->body;
  auto doc = ParseJson(deduped->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("nodes")->AsIndex().value(), 6u);
  EXPECT_EQ(doc->Find("unique_nodes")->AsIndex().value(), 3u);
  const JsonValue* results = doc->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array_items().size(), 6u);

  const NodeId nodes[] = {3, 5, 3, 3, 5, 7};
  for (size_t i = 0; i < 6; ++i) {
    const JsonValue& result = results->array_items()[i];
    EXPECT_EQ(result.Find("node")->AsIndex().value(), nodes[i]) << i;
    const TopKResult direct = fixture.DirectTopK(nodes[i], 3);
    const JsonValue* top = result.Find("top");
    ASSERT_NE(top, nullptr);
    ASSERT_EQ(top->array_items().size(), direct.entries.size()) << i;
    for (size_t j = 0; j < direct.entries.size(); ++j) {
      EXPECT_EQ(top->array_items()[j].Find("node")->AsIndex().value(),
                direct.entries[j].node)
          << "position " << i << " rank " << j;
      EXPECT_EQ(top->array_items()[j].Find("score")->number_value(),
                direct.entries[j].score)
          << "position " << i << " rank " << j;
    }
  }
}

// /v1/batch runs each source through the single-source path, so it
// fills the result cache: a later /v1/query for a batched source is a
// hit, stamped, with scores bit-identical to a direct computation.
TEST(ServeCache, BatchFillsCacheForLaterQuery) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());

  auto batch = client.Post("/v1/batch", "{\"nodes\":[3,5]}");
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->status, 200) << batch->body;

  auto query = client.Post("/v1/query", "{\"node\":3}");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->status, 200) << query->body;
  EXPECT_NE(query->body.find("\"cached\":true"), std::string::npos)
      << "a batched source must be served from the cache: " << query->body;
  EXPECT_EQ(ScoresFromBody(query->body), fixture.DirectScores(3));
}

// Engine work done for a batch is counted in /v1/stats like any other
// query's: engine.walks_sampled rises after a batch of fresh sources.
TEST(ServeCache, BatchWalksCountInEngineStats) {
  ServeFixture fixture;
  HttpClient client("127.0.0.1", fixture.port());
  auto walks_sampled = [&fixture]() -> uint64_t {
    auto doc = ParseJson(fixture.service().HandleStats(HttpRequest{}).body);
    EXPECT_TRUE(doc.ok());
    return doc.ok()
               ? doc->Find("engine")->Find("walks_sampled")->AsIndex().value()
               : 0;
  };

  const uint64_t before = walks_sampled();
  auto batch = client.Post("/v1/batch", "{\"nodes\":[3,5]}");
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->status, 200) << batch->body;
  EXPECT_GT(walks_sampled(), before);
}

// --cache-off equivalent: cache_bytes = 0 disables caching — repeat
// queries recompute (never stamped) and stats say so.
TEST(ServeCache, DisabledCacheNeverStamps) {
  Graph graph = testing_util::MakeFixtureGraph();
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  options.cache_bytes = 0;
  SimPushService service(graph, options);

  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/query";
  request.body = "{\"node\": 3}";
  const HttpResponse first = service.HandleQuery(request);
  ASSERT_EQ(first.status, 200) << first.body;
  const HttpResponse second = service.HandleQuery(request);
  ASSERT_EQ(second.status, 200) << second.body;
  EXPECT_EQ(second.body.find("\"cached\""), std::string::npos) << second.body;
  EXPECT_EQ(second.body, first.body);  // Still deterministic.

  auto stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cache_budget_bytes, 0u);
  EXPECT_EQ(stats->cache_hits, 0u);
  EXPECT_EQ(stats->cache_inserts, 0u);
}

// The headline lifecycle test: hammer a hot node while another thread
// hot-swaps the graph underneath it. Every response must carry scores
// bit-identical to a direct engine run on the exact graph its
// generation id names — a cache that ever resurfaced a dead
// generation's entry fails the replay. Runs under the concurrency
// label (TSan in CI).
TEST(ServeCache, CacheUnderHotSwapServesOnlyItsGeneration) {
  // A 60-node ring; each swap adds a chord (10+k -> 3), changing node
  // 3's in-neighborhood and therefore its score vector.
  constexpr NodeId kRing = 60;
  std::vector<std::pair<NodeId, NodeId>> base_edges;
  for (NodeId i = 0; i < kRing; ++i) {
    base_edges.push_back({i, (i + 1) % kRing});
  }
  Graph graph = testing_util::MakeGraph(kRing, base_edges);

  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  SimPushService service(graph, options);

  constexpr int kSwaps = 6;
  constexpr int kHammerThreads = 4;
  constexpr int kItersPerThread = 120;

  std::mutex mu;
  std::map<uint64_t, std::vector<double>> first_seen;  // gen -> scores
  std::atomic<int> mismatches{0};
  std::atomic<int> cached_responses{0};
  std::atomic<bool> swapping{true};

  std::thread swapper([&] {
    for (int k = 0; k < kSwaps; ++k) {
      const std::vector<EdgeUpdate> updates = {
          {EdgeUpdate::Kind::kInsert, static_cast<NodeId>(10 + k), 3}};
      auto outcome = service.registry().ApplyUpdates("default", updates,
                                                     /*force_swap=*/true);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      ASSERT_TRUE(outcome->swapped);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    swapping.store(false);
  });

  std::vector<std::thread> hammers;
  hammers.reserve(kHammerThreads);
  for (int t = 0; t < kHammerThreads; ++t) {
    hammers.emplace_back([&] {
      HttpRequest request;
      request.method = "POST";
      request.target = "/v1/query";
      request.body = "{\"node\": 3}";
      for (int i = 0; i < kItersPerThread || swapping.load(); ++i) {
        const HttpResponse response = service.HandleQuery(request);
        if (response.status != 200) {
          mismatches.fetch_add(1);
          continue;
        }
        auto doc = ParseJson(response.body);
        if (!doc.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const uint64_t generation =
            doc->Find("generation")->AsIndex().value();
        const std::vector<double> scores = ScoresFromBody(response.body);
        if (doc->Find("cached") != nullptr) cached_responses.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        const auto [it, inserted] = first_seen.emplace(generation, scores);
        // Within one generation every response is identical — cached
        // or computed, before or after later swaps.
        if (!inserted && it->second != scores) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& hammer : hammers) hammer.join();
  swapper.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(cached_responses.load(), 0);
  ASSERT_GE(first_seen.size(), 2u) << "hammer must straddle >= 2 swaps";

  // Replay: the single tenant publishes sequential generation ids
  // (1 = the base ring, id g carries chords k < g - 1). Each observed
  // vector must be bit-identical to a fresh engine on that graph.
  std::set<std::vector<double>> distinct;
  for (const auto& [generation, scores] : first_seen) {
    ASSERT_GE(generation, 1u);
    ASSERT_LE(generation, static_cast<uint64_t>(kSwaps) + 1);
    std::vector<std::pair<NodeId, NodeId>> edges = base_edges;
    for (uint64_t k = 0; k + 1 < generation; ++k) {
      edges.push_back({static_cast<NodeId>(10 + k), 3});
    }
    std::sort(edges.begin(), edges.end());
    const Graph replica = testing_util::MakeGraph(kRing, edges);
    EXPECT_EQ(scores, DirectScoresOn(replica, 3))
        << "generation " << generation
        << " served scores that do not match its own graph";
    distinct.insert(scores);
  }
  // The swaps genuinely changed the answer — otherwise the replay
  // proves nothing about isolation.
  EXPECT_GE(distinct.size(), 2u);

  // No generation leaked: only the current one is alive afterwards.
  EXPECT_EQ(service.registry().live_generations(), 1);
  auto stats = service.registry().Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->cache_hits, static_cast<uint64_t>(cached_responses.load()));
  EXPECT_GE(stats->cache_inserts, first_seen.size());
}

// ---------------------------------------------------------------------------
// Golden reject table: every reject branch of the query and admin
// endpoints, called through the handlers directly. Each row pins the
// exact status, the exact body bytes, and the /v1/stats "bad" delta
// (1 for each 4xx, 0 otherwise). Rows with two faults pin the order in
// which an endpoint checks them.
// ---------------------------------------------------------------------------

struct GoldenRow {
  const char* method;
  const char* target;
  const char* body;
  int status;
  // Exact response body without the trailing newline; nullptr for the
  // few 200 rows whose body carries engine scores or timings.
  const char* expected;
};

HttpResponse Dispatch(SimPushService& service, const GoldenRow& row) {
  HttpRequest request;
  request.method = row.method;
  request.target = row.target;
  request.body = row.body;
  const std::string_view target = row.target;
  if (target == "/v1/query") return service.HandleQuery(request);
  if (target == "/v1/topk") return service.HandleTopK(request);
  if (target == "/v1/batch") return service.HandleBatch(request);
  if (target == "/v1/graphs") return service.HandleGraphCreate(request);
  return service.HandleGraphOp(request);
}

uint64_t RequestCounter(SimPushService& service, std::string_view key) {
  const HttpResponse response = service.HandleStats(HttpRequest{});
  auto doc = ParseJson(response.body);
  EXPECT_TRUE(doc.ok()) << response.body;
  const JsonValue* requests = doc->Find("requests");
  EXPECT_NE(requests, nullptr);
  return requests->Find(key)->AsIndex().value();
}

void ExpectGoldenRows(SimPushService& service,
                      const std::vector<GoldenRow>& rows) {
  for (const GoldenRow& row : rows) {
    SCOPED_TRACE(std::string(row.method) + " " + row.target + " " +
                 row.body);
    const uint64_t bad_before = RequestCounter(service, "bad");
    const HttpResponse response = Dispatch(service, row);
    EXPECT_EQ(response.status, row.status);
    if (row.expected != nullptr) {
      EXPECT_EQ(response.body, std::string(row.expected) + "\n");
    }
    const bool rejected = row.status >= 400 && row.status < 499;
    EXPECT_EQ(RequestCounter(service, "bad") - bad_before,
              rejected ? 1u : 0u);
  }
}

ServiceOptions GoldenOptions() {
  ServiceOptions options;
  options.query = FastOptions();
  options.num_threads = 2;
  options.max_batch_nodes = 4;
  options.max_update_edges = 2;
  options.max_inline_nodes = 100;
  options.max_graphs = 2;
  return options;
}

TEST(ServeGoldenRejects, QueryEndpoints) {
  SimPushService service(testing_util::MakeFixtureGraph(), GoldenOptions());
  ExpectGoldenRows(service, {
      // /v1/query
      {"POST", "/v1/query", "{not json", 400,
       R"j({"error":"JSON parse error at byte 1: expected object key )j"
       R"j(string"})j"},
      {"POST", "/v1/query", "[1,2]", 400,
       R"j({"error":"request body must be a JSON object"})j"},
      {"POST", "/v1/query", "{}", 400,
       R"j({"error":"missing \"node\" field"})j"},
      {"POST", "/v1/query", R"j({"node":-1})j", 400,
       R"j({"error":"\"node\": expected a non-negative integer"})j"},
      {"POST", "/v1/query", R"j({"node":1.5})j", 400,
       R"j({"error":"\"node\": expected a non-negative integer"})j"},
      {"POST", "/v1/query", R"j({"node":1,"top_k":"x"})j", 400,
       R"j({"error":"\"top_k\": expected a number"})j"},
      {"POST", "/v1/query", R"j({"node":1,"graph":5})j", 400,
       R"j({"error":"\"graph\" must be a string"})j"},
      {"POST", "/v1/query", R"j({"node":1,"graph":"nope"})j", 404,
       R"j({"error":"no graph named \"nope\""})j"},
      {"POST", "/v1/query", R"j({"node":10})j", 400,
       R"j({"error":"node 10 out of range [0, 10)"})j"},
      {"POST", "/v1/query", R"j({"node":4294967301})j", 400,
       R"j({"error":"node 4294967301 out of range [0, 10)"})j"},
      {"POST", "/v1/query", R"j({"node":1,"deadline_ms":0})j", 400,
       R"j({"error":"\"deadline_ms\" must be in [1, 60000]"})j"},
      {"POST", "/v1/query", R"j({"node":1,"deadline_ms":"soon"})j", 400,
       R"j({"error":"\"deadline_ms\": expected a number"})j"},
      {"POST", "/v1/query", R"j({"node":1,"epsilon":2})j", 400,
       R"j({"error":"\"epsilon\" must be in (0,1)"})j"},
      {"POST", "/v1/query", R"j({"node":1,"epsilon":1e-9})j", 400,
       R"j({"error":"\"epsilon\" below the server's floor )j"
       R"j((min_request_epsilon=0.001)"})j"},
      {"POST", "/v1/query", R"j({"node":1,"epsilon":"big"})j", 400,
       R"j({"error":"\"epsilon\": expected a number"})j"},
      {"POST", "/v1/query", R"j({"node":1,"with_stats":"yes"})j", 400,
       R"j({"error":"\"with_stats\" must be a boolean"})j"},
      {"POST", "/v1/query", R"j({"node":1,"with_stats":1})j", 400,
       R"j({"error":"\"with_stats\" must be a boolean"})j"},
      {"POST", "/v1/query",
       R"j({"rid":"r1","node":1,"top_k":2,"with_stats":false})j",
       200, nullptr},
      // Two faults: node before top_k, lease before range, range before
      // with_stats, deadline before epsilon.
      {"POST", "/v1/query", R"j({"top_k":-1})j", 400,
       R"j({"error":"missing \"node\" field"})j"},
      {"POST", "/v1/query", R"j({"node":10,"graph":"nope"})j", 404,
       R"j({"error":"no graph named \"nope\""})j"},
      {"POST", "/v1/query", R"j({"node":10,"with_stats":"yes"})j", 400,
       R"j({"error":"node 10 out of range [0, 10)"})j"},
      {"POST", "/v1/query", R"j({"node":1,"deadline_ms":0,"epsilon":2})j", 400,
       R"j({"error":"\"deadline_ms\" must be in [1, 60000]"})j"},
      // /v1/topk
      {"POST", "/v1/topk", "{not json", 400,
       R"j({"error":"JSON parse error at byte 1: expected object key )j"
       R"j(string"})j"},
      {"POST", "/v1/topk", "[]", 400,
       R"j({"error":"request body must be a JSON object"})j"},
      {"POST", "/v1/topk", R"j({"k":1})j", 400,
       R"j({"error":"missing \"node\" field"})j"},
      {"POST", "/v1/topk", R"j({"node":1,"k":-1})j", 400,
       R"j({"error":"\"k\": expected a non-negative integer"})j"},
      {"POST", "/v1/topk", R"j({"node":1,"graph":"nope"})j", 404,
       R"j({"error":"no graph named \"nope\""})j"},
      {"POST", "/v1/topk", R"j({"node":4294967301})j", 400,
       R"j({"error":"node 4294967301 out of range [0, 10)"})j"},
      {"POST", "/v1/topk", R"j({"node":1,"deadline_ms":60001})j", 400,
       R"j({"error":"\"deadline_ms\" must be in [1, 60000]"})j"},
      {"POST", "/v1/topk", R"j({"node":1,"epsilon":0})j", 400,
       R"j({"error":"\"epsilon\" must be in (0,1)"})j"},
      {"POST", "/v1/topk", R"j({"rid":"r2","node":2,"k":0})j", 200,
       R"j({"node":2,"graph":"default","generation":1,"epsilon":0.1,"k":0,)j"
       R"j("top":[]})j"},
      // Two faults: node before k, range before deadline.
      {"POST", "/v1/topk", R"j({"node":"x","k":"y"})j", 400,
       R"j({"error":"\"node\": expected a number"})j"},
      {"POST", "/v1/topk", R"j({"node":10,"deadline_ms":0})j", 400,
       R"j({"error":"node 10 out of range [0, 10)"})j"},
      // /v1/batch
      {"POST", "/v1/batch", "{not json", 400,
       R"j({"error":"JSON parse error at byte 1: expected object key )j"
       R"j(string"})j"},
      {"POST", "/v1/batch", "3", 400,
       R"j({"error":"request body must be a JSON object"})j"},
      {"POST", "/v1/batch", "{}", 400,
       R"j({"error":"missing \"nodes\" array"})j"},
      {"POST", "/v1/batch", R"j({"nodes":5})j", 400,
       R"j({"error":"missing \"nodes\" array"})j"},
      {"POST", "/v1/batch", R"j({"nodes":[0,1,2,3,4]})j", 413,
       R"j({"error":"batch exceeds max_batch_nodes (4)"})j"},
      {"POST", "/v1/batch", R"j({"nodes":[0],"k":-1})j", 400,
       R"j({"error":"\"k\": expected a non-negative integer"})j"},
      {"POST", "/v1/batch", R"j({"nodes":[0],"graph":"nope"})j", 404,
       R"j({"error":"no graph named \"nope\""})j"},
      {"POST", "/v1/batch", R"j({"nodes":[0,99]})j", 400,
       R"j({"error":"\"nodes\" entries must be node ids in [0, 10)"})j"},
      {"POST", "/v1/batch", R"j({"nodes":[0,"x"]})j", 400,
       R"j({"error":"\"nodes\" entries must be node ids in [0, 10)"})j"},
      {"POST", "/v1/batch", R"j({"nodes":[0],"deadline_ms":0})j", 400,
       R"j({"error":"\"deadline_ms\" must be in [1, 60000]"})j"},
      {"POST", "/v1/batch", R"j({"rid":"r3","nodes":[0,0],"k":1})j", 200,
       nullptr},
      // Two faults: size cap before k, lease before node entries.
      {"POST", "/v1/batch", R"j({"nodes":[0,1,2,3,4],"k":-1})j", 413,
       R"j({"error":"batch exceeds max_batch_nodes (4)"})j"},
      {"POST", "/v1/batch", R"j({"nodes":[99],"graph":"nope"})j", 404,
       R"j({"error":"no graph named \"nope\""})j"},
  });
}

TEST(ServeGoldenRejects, AdminEndpoints) {
  SimPushService service(testing_util::MakeFixtureGraph(), GoldenOptions());
  ExpectGoldenRows(service, {
      // POST /v1/graphs
      {"POST", "/v1/graphs", "{not json", 400,
       R"j({"error":"JSON parse error at byte 1: expected object key )j"
       R"j(string"})j"},
      {"POST", "/v1/graphs", "[]", 400,
       R"j({"error":"request body must be a JSON object"})j"},
      {"POST", "/v1/graphs", R"j({"nodes":2})j", 400,
       R"j({"error":"missing \"name\" string field"})j"},
      {"POST", "/v1/graphs", R"j({"name":"a/b","nodes":2,"edges":[]})j", 400,
       R"j({"error":"graph name must be 1-64 chars of [A-Za-z0-9._-]"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","options":5})j", 400,
       R"j({"error":"\"options\" must be an object"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","options":{"bogus":1}})j", 400,
       R"j({"error":"unknown option \"bogus\" (expected )j"
       R"j(epsilon|decay|delta|seed|walk_budget_cap)"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","options":{"epsilon":"x"}})j", 400,
       R"j({"error":"\"options.epsilon\": expected a number"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","options":{"seed":-1}})j", 400,
       R"j({"error":"\"options.seed\": expected a non-negative integer"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","options":{"epsilon":2}})j", 400,
       R"j({"error":"\"options\": epsilon must be in (0,1)"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","options":{"epsilon":1e-9}})j",
       400,
       R"j({"error":"\"options.epsilon\" below the server's floor )j"
       R"j((min_request_epsilon=0.001)"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","options":{"decay":0.7}})j", 400,
       R"j({"error":"\"options.decay\" above the server default (0.6); )j"
       R"j(raising the decay is operator-only"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","options":{"delta":1e-9}})j", 400,
       R"j({"error":"\"options.delta\" below the server default (1e-04); )j"
       R"j(lowering the delta is operator-only"})j"},
      {"POST", "/v1/graphs",
       R"j({"name":"g","options":{"walk_budget_cap":0}})j", 400,
       R"j({"error":"\"options.walk_budget_cap\" must be positive (0 = )j"
       R"j(uncapped is operator-only)"})j"},
      {"POST", "/v1/graphs",
       R"j({"name":"g","options":{"walk_budget_cap":20001}})j", 400,
       R"j({"error":"\"options.walk_budget_cap\" above the server default )j"
       R"j((20000); raising the cap is operator-only"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","path":"graph.txt"})j", 403,
       R"j({"error":"path-based graph creation is disabled (start with )j"
       R"j(--allow-path-create 1, or send inline edges)"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g"})j", 400,
       R"j({"error":"InvalidArgument: provide either \"path\" (edge list or )j"
       R"j(.spg) or \"nodes\"+\"edges\""})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","edges":[]})j", 400,
       R"j({"error":"inline graphs need a \"nodes\" count"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","nodes":4294967295,"edges":[]})j",
       400,
       R"j({"error":"inline graphs need a \"nodes\" count"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","nodes":101,"edges":[]})j", 413,
       R"j({"error":"inline graph exceeds max_inline_nodes (100); load large )j"
       R"j(graphs via \"path\""})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","nodes":2,"edges":5})j", 400,
       R"j({"error":"edge list must be an array of [src,dst]"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","nodes":2,"edges":[[0]]})j", 400,
       R"j({"error":"edge list entries must be [src,dst] pairs"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","nodes":2,"edges":[[0,-1]]})j",
       400,
       R"j({"error":"edge endpoints must be node ids"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","nodes":2,"edges":[[0,5]]})j", 400,
       R"j({"error":"InvalidArgument: edge endpoint out of range: 0->5 with )j"
       R"j(n=2"})j"},
      {"POST", "/v1/graphs",
       R"j({"name":"default","nodes":2,"edges":[[0,1]]})j", 409,
       R"j({"error":"graph \"default\" already exists"})j"},
      {"POST", "/v1/graphs", R"j({"name":"tiny","nodes":2,"edges":[[0,1]]})j",
       201,
       R"j({"graph":"tiny","generation":3,"nodes":2,"edges":1,)j"
       R"j("options":{"epsilon":0.1,"decay":0.6,"delta":1e-04,"seed":42,)j"
       R"j("walk_budget_cap":20000}})j"},
      {"POST", "/v1/graphs", R"j({"name":"tiny2","nodes":2,"edges":[[0,1]]})j",
       409,
       R"j({"error":"graph limit reached (2)"})j"},
      // Two faults: name before options, options before the path gate.
      {"POST", "/v1/graphs", R"j({"name":"a/b","options":5})j", 400,
       R"j({"error":"graph name must be 1-64 chars of [A-Za-z0-9._-]"})j"},
      {"POST", "/v1/graphs", R"j({"name":"g","path":"graph.txt","options":5})j",
       400,
       R"j({"error":"\"options\" must be an object"})j"},
      // /v1/graphs/{name}
      {"GET", "/v1/graphs/a$b", "", 400,
       R"j({"error":"graph name must be 1-64 chars of [A-Za-z0-9._-]"})j"},
      {"GET", "/v1/graphs/nope", "", 404,
       R"j({"error":"no graph named \"nope\""})j"},
      {"DELETE", "/v1/graphs/nope", "", 404,
       R"j({"error":"no graph named \"nope\""})j"},
      {"POST", "/v1/graphs/default", "{}", 405,
       R"j({"error":"method not allowed"})j"},
      {"POST", "/v1/graphs/default/nope", "{}", 404,
       R"j({"error":"unknown graph operation \"nope\" (expected )j"
       R"j(edges|swap|options)"})j"},
      // Two faults: the name is checked before the operation.
      {"POST", "/v1/graphs/a$b/nope", "{}", 400,
       R"j({"error":"graph name must be 1-64 chars of [A-Za-z0-9._-]"})j"},
      // /v1/graphs/{name}/swap
      {"GET", "/v1/graphs/default/swap", "", 405,
       R"j({"error":"method not allowed"})j"},
      {"POST", "/v1/graphs/nope/swap", "", 404,
       R"j({"error":"no graph named \"nope\""})j"},
      // /v1/graphs/{name}/edges
      {"GET", "/v1/graphs/default/edges", "", 405,
       R"j({"error":"method not allowed"})j"},
      {"POST", "/v1/graphs/default/edges", "{not json", 400,
       R"j({"error":"JSON parse error at byte 1: expected object key )j"
       R"j(string"})j"},
      {"POST", "/v1/graphs/default/edges", "[]", 400,
       R"j({"error":"request body must be a JSON object"})j"},
      {"POST", "/v1/graphs/default/edges", R"j({"add":5})j", 400,
       R"j({"error":"edge list must be an array of [src,dst]"})j"},
      {"POST", "/v1/graphs/default/edges", R"j({"remove":[[0]]})j", 400,
       R"j({"error":"edge list entries must be [src,dst] pairs"})j"},
      {"POST", "/v1/graphs/default/edges", "{}", 400,
       R"j({"error":"provide \"add\" and/or \"remove\" [src,dst] lists"})j"},
      {"POST", "/v1/graphs/default/edges", R"j({"add":[[0,1],[1,2],[2,3]]})j",
       413,
       R"j({"error":"update exceeds max_update_edges (2)"})j"},
      {"POST", "/v1/graphs/default/edges", R"j({"remove":[[7,9]]})j", 400,
       R"j({"error":"batch rejected: update 0 rejected (no updates applied): )j"
       R"j(edge not present"})j"},
      {"POST", "/v1/graphs/default/edges", R"j({"add":[[0,50]]})j", 400,
       R"j({"error":"batch rejected: update 0 rejected (no updates applied): )j"
       R"j(edge endpoint out of range"})j"},
      {"POST", "/v1/graphs/nope/edges", R"j({"add":[[0,1]]})j", 404,
       R"j({"error":"no graph named \"nope\""})j"},
      {"POST", "/v1/graphs/default/edges",
       R"j({"rid":"r4","add":[[0,5]],"swap":false})j", 200,
       R"j({"graph":"default","applied":1,"pending":1,"swapped":false,)j"
       R"j("generation":1})j"},
      {"POST", "/v1/graphs/default/edges", R"j({"add":[[0,5]],"swap":1})j", 400,
       R"j({"error":"\"swap\" must be a boolean"})j"},
      {"POST", "/v1/graphs/default/edges", R"j({"add":[[0,5]],"swap":"yes"})j",
       400,
       R"j({"error":"\"swap\" must be a boolean"})j"},
      // Two faults: add before remove, size cap before the swap flag,
      // the body before the tenant.
      {"POST", "/v1/graphs/default/edges", R"j({"add":5,"remove":[[0]]})j", 400,
       R"j({"error":"edge list must be an array of [src,dst]"})j"},
      {"POST", "/v1/graphs/default/edges",
       R"j({"add":[[0,1],[1,2],[2,3]],"swap":1})j", 413,
       R"j({"error":"update exceeds max_update_edges (2)"})j"},
      {"POST", "/v1/graphs/nope/edges", "{}", 400,
       R"j({"error":"provide \"add\" and/or \"remove\" [src,dst] lists"})j"},
      // /v1/graphs/{name}/options
      {"GET", "/v1/graphs/default/options", "", 405,
       R"j({"error":"method not allowed"})j"},
      {"PATCH", "/v1/graphs/default/options", "{not json", 400,
       R"j({"error":"JSON parse error at byte 1: expected object key )j"
       R"j(string"})j"},
      {"PATCH", "/v1/graphs/default/options", "[]", 400,
       R"j({"error":"request body must be a JSON object"})j"},
      {"PATCH", "/v1/graphs/default/options", R"j({"options":{"bogus":1}})j",
       400,
       R"j({"error":"unknown option \"bogus\" (expected )j"
       R"j(epsilon|decay|delta|seed|walk_budget_cap)"})j"},
      {"PATCH", "/v1/graphs/default/options", "{}", 400,
       R"j({"error":"missing \"options\" object"})j"},
      {"PATCH", "/v1/graphs/nope/options", R"j({"options":{}})j", 404,
       R"j({"error":"no graph named \"nope\""})j"},
      // Two faults: options are parsed before the tenant is looked up.
      {"PATCH", "/v1/graphs/nope/options", R"j({"options":{"bogus":1}})j", 400,
       R"j({"error":"unknown option \"bogus\" (expected )j"
       R"j(epsilon|decay|delta|seed|walk_budget_cap)"})j"},
  });
}

// The path-create branch (opt-in) and its "undirected" flag.
TEST(ServeGoldenRejects, PathCreate) {
  ServiceOptions options = GoldenOptions();
  options.allow_path_create = true;
  SimPushService service(testing_util::MakeFixtureGraph(), options);
  ExpectGoldenRows(service, {
      {"POST", "/v1/graphs", R"j({"name":"g","path":"no-such-graph.txt"})j",
       400,
       R"j({"error":"IOError: cannot open 'no-such-graph.txt'"})j"},
      {"POST", "/v1/graphs",
       R"j({"name":"g","path":"no-such-graph.txt","undirected":1})j", 400,
       R"j({"error":"\"undirected\" must be a boolean"})j"},
  });
}

// A 504 is not a bad request: it bumps deadline_expired and leaves
// "bad" alone.
TEST(ServeGoldenRejects, DeadlineIs504NotBad) {
  SimPushService service(testing_util::MakeFixtureGraph(), GoldenOptions());
  // elapsed_ms is a measurement; every other byte is pinned.
  const std::string prefix = R"j({"error":"deadline exceeded","elapsed_ms":)j";
  const std::string suffix =
      R"j(,"deadline_ms":20,"graph":"default","generation":1})j" "\n";
  for (const GoldenRow& row : std::vector<GoldenRow>{
           {"POST", "/v1/query", R"j({"node":8,"deadline_ms":20})j", 504,
            nullptr},
           {"POST", "/v1/batch", R"j({"nodes":[8,9],"deadline_ms":20})j",
            504, nullptr},
       }) {
    SCOPED_TRACE(row.target);
    const uint64_t bad_before = RequestCounter(service, "bad");
    const uint64_t expired_before =
        RequestCounter(service, "deadline_expired");
    ASSERT_TRUE(FailpointRegistry::Get()
                    .Activate("workspace_pool.acquire", "sleep:60")
                    .ok());
    const HttpResponse response = Dispatch(service, row);
    FailpointRegistry::Get().DeactivateAll();
    EXPECT_EQ(response.status, row.status);
    ASSERT_GT(response.body.size(), prefix.size() + suffix.size());
    EXPECT_EQ(response.body.substr(0, prefix.size()), prefix);
    EXPECT_EQ(response.body.substr(response.body.size() - suffix.size()),
              suffix);
    EXPECT_EQ(RequestCounter(service, "bad"), bad_before);
    EXPECT_EQ(RequestCounter(service, "deadline_expired"),
              expired_before + 1);
  }
}

// An ε-override query runs on the tenant's workspace pool like every
// other query, so pool_capacity bounds it: while the only workspace is
// held it waits and times out (504, not bad), and once the workspace
// is back it answers with the scores of a direct run at that ε. The
// pool never builds a second workspace for it.
TEST(ServePool, EpsilonOverrideWaitsOnTheTenantPool) {
  ServiceOptions options = GoldenOptions();
  options.pool_capacity = 1;
  SimPushService service(testing_util::MakeFixtureGraph(), options);
  auto generation = service.registry().Lease("default");
  ASSERT_TRUE(generation.ok()) << generation.status().ToString();
  WorkspacePool& pool = (*generation)->workspaces();
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/query";
  request.body = R"j({"node":3,"epsilon":0.25,"deadline_ms":50})j";

  WorkspaceLease held = pool.Acquire();
  ASSERT_TRUE(held);
  const uint64_t bad_before = RequestCounter(service, "bad");
  const uint64_t expired_before = RequestCounter(service, "deadline_expired");
  const HttpResponse waited = service.HandleQuery(request);
  EXPECT_EQ(waited.status, 504) << waited.body;
  EXPECT_EQ(RequestCounter(service, "deadline_expired"), expired_before + 1);
  EXPECT_EQ(RequestCounter(service, "bad"), bad_before);
  EXPECT_EQ(pool.created(), 1u);

  held.Release();
  const HttpResponse served = service.HandleQuery(request);
  ASSERT_EQ(served.status, 200) << served.body;
  SimPushOptions override_options = FastOptions();
  override_options.epsilon = 0.25;
  EXPECT_EQ(ScoresFromBody(served.body),
            DirectScoresWith(testing_util::MakeFixtureGraph(),
                             override_options, 3));
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace simpush
