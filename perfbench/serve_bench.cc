// RAM-scale serving benchmark for simpush.
//
// Runs the whole serving stack in one process — SimPushService plus
// HttpServer on an ephemeral port — on a 2M-node Chung–Lu graph and
// drives it over loopback with closed-loop reader clients and, on
// update_mix_ram, an open-loop writer. Every response is checked while
// the run goes on, and a seeded sample is recomputed afterwards with a
// fresh SimPushEngine on the generation that served it.
//
//   serve_bench --generate-graph PATH
//       Generates the benchmark graph once and writes it in SPG1 form.
//   serve_bench --graph PATH --workload NAME --seed N --seconds S
//               [--trace 0|1 --spans FILE]
//       Runs one workload and prints one JSON object on stdout.
//
// With --trace 1 the run has three parts: an untraced pass (for the
// tracing-overhead ratio), a traced pass whose HTTP routes wrap the
// service handlers in spans, and an in-process replay of the traced
// pass's sources through the registry, the result cache, the workspace
// pool, QueryRunner::QueryInto and the four SimPush stage functions.
// Spans go to --spans as JSON lines; perfbench/run.py derives the span
// metrics (self times, stage sums) from that file.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/memory.h"
#include "common/rng.h"
#include "eval/metrics.h"
#include "graph/binary_io.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "simpush/hitting.h"
#include "simpush/last_meeting.h"
#include "simpush/reverse_push.h"
#include "simpush/simpush.h"
#include "simpush/source_push.h"

namespace simpush {
namespace {

using serve::HttpClient;
using serve::HttpRequest;
using serve::HttpResponse;
using serve::HttpServer;
using serve::JsonValue;
using serve::JsonWriter;
using serve::SimPushService;

// --- Fixed benchmark parameters --------------------------------------------

constexpr NodeId kNodes = 2'000'000;
constexpr EdgeId kEdges = 24'000'000;
constexpr double kBeta = 2.2;
constexpr uint64_t kGraphSeed = 1;
constexpr double kEpsilon = 0.05;
constexpr uint64_t kWalkCap = 100'000;
constexpr size_t kReaders = 3;
constexpr int kSetups = 3;
constexpr size_t kUpdateBatch = 1000;
constexpr double kDeleteFraction = 0.3;
constexpr double kUpdatePeriodS = 2.0;
// Swaps timed after the read window on workloads without a writer, so
// update_p50_ms exists on every workload (on an idle server there).
constexpr size_t kIdleUpdates = 2;
// Per reader, the sampled request index is drawn from [0, kSampleSpan).
constexpr size_t kSampleSpan = 6;
constexpr size_t kReplayThreads = 3;

struct Workload {
  const char* name;
  double zipf_s;     // 0 = uniform sources.
  size_t top_k;      // 0 = full dense score vector.
  bool writer;       // Open-loop writer beside the readers.
};

constexpr Workload kWorkloads[] = {
    {"uniform_ram", 0.0, 10, false},
    {"zipf_ram", 1.1, 0, false},
    {"update_mix_ram", 1.1, 10, true},
};

SimPushOptions EngineOptions() {
  SimPushOptions options;
  options.epsilon = kEpsilon;
  options.walk_budget_cap = kWalkCap;
  return options;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Linear-interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

// Collects correctness failures from every thread.
class Failures {
 public:
  void Add(std::string message) {
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 20) messages_.push_back(std::move(message));
    ++count_;
  }
  size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
  size_t count_ = 0;
};

// --- Spans -----------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root.
  uint64_t request = 0;  // Shared by all spans of one request.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string attrs;     // JSON object body, may be empty.
};

class Tracer {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1); }
  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3);
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << s.start_ns / 1e3
          << ",\"end_us\":" << s.end_ns / 1e3 << ",\"attrs\":{" << s.attrs
          << "}}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  // HTTP spans derive their ids from the request id (see ClientSpanId);
  // everything else draws from above that range.
  std::atomic<uint64_t> next_id_{uint64_t{1} << 40};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// The client span of request `rid` and the handler span nested in it.
uint64_t ClientSpanId(uint64_t rid) { return 2 * rid + 1; }
uint64_t HandlerSpanId(uint64_t rid) { return 2 * rid + 2; }

// Request bodies start with {"rid":N so the traced handler can find the
// request id without parsing the whole body.
uint64_t BodyRid(std::string_view body) {
  constexpr std::string_view kKey = "{\"rid\":";
  if (body.substr(0, kKey.size()) != kKey) return 0;
  uint64_t rid = 0;
  std::from_chars(body.data() + kKey.size(), body.data() + body.size(), rid);
  return rid;
}

// --- Sources ---------------------------------------------------------------

// Zipf(s) over ranks mapped to nodes through a seeded permutation, so
// the hot set is spread over the id space.
class SourcePicker {
 public:
  SourcePicker(NodeId n, double zipf_s, uint64_t seed) : n_(n) {
    if (zipf_s <= 0) return;
    cdf_.resize(n);
    double total = 0;
    for (NodeId r = 0; r < n; ++r) {
      total += std::pow(static_cast<double>(r) + 1.0, -zipf_s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), NodeId{0});
    std::mt19937_64 shuffle(DeriveStreamSeed(seed, 7));
    std::shuffle(perm_.begin(), perm_.end(), shuffle);
  }

  NodeId Pick(Rng* rng) const {
    if (cdf_.empty()) return static_cast<NodeId>(rng->NextBounded(n_));
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng->NextDouble());
    const size_t rank = it == cdf_.end() ? cdf_.size() - 1
                                         : static_cast<size_t>(it - cdf_.begin());
    return perm_[rank];
  }

 private:
  NodeId n_;
  std::vector<double> cdf_;
  std::vector<NodeId> perm_;
};

// --- Serving stack ---------------------------------------------------------

struct Stack {
  std::unique_ptr<SimPushService> service;
  std::unique_ptr<HttpServer> server;  // Destroyed (drained) first.
  double setup_s = 0;
  double load_s = 0;

  ~Stack() {
    if (server != nullptr) server->Shutdown();
  }
};

serve::HttpHandler Traced(SimPushService* service,
                          HttpResponse (SimPushService::*handler)(
                              const HttpRequest&),
                          const char* name, Tracer* tracer) {
  return [=](const HttpRequest& request) {
    const int64_t start = NowNs();
    HttpResponse response = (service->*handler)(request);
    const int64_t end = NowNs();
    const uint64_t rid = BodyRid(request.body);
    tracer->Add({HandlerSpanId(rid), ClientSpanId(rid), rid, name, start, end,
                 {}});
    return response;
  };
}

// Loads the graph, registers it and starts the server; returns once
// /healthz answers. `tracer` non-null wraps the handlers in spans.
std::unique_ptr<Stack> SetUp(const std::string& graph_path, Tracer* tracer,
                             std::string* error) {
  auto stack = std::make_unique<Stack>();
  const int64_t start = NowNs();
  auto graph = LoadBinaryGraph(graph_path);
  if (!graph.ok()) {
    *error = "graph load failed: " + graph.status().ToString();
    return nullptr;
  }
  stack->load_s = (NowNs() - start) * 1e-9;
  serve::ServiceOptions options;
  options.query = EngineOptions();
  stack->service = std::make_unique<SimPushService>(options);
  const Status added = stack->service->AddGraph("default", *std::move(graph));
  if (!added.ok()) {
    *error = "AddGraph failed: " + added.ToString();
    return nullptr;
  }
  stack->server = std::make_unique<HttpServer>(serve::HttpServerOptions{});
  SimPushService* service = stack->service.get();
  if (tracer == nullptr) {
    service->RegisterRoutes(stack->server.get());
  } else {
    HttpServer* server = stack->server.get();
    server->Route("POST", "/v1/query",
                  Traced(service, &SimPushService::HandleQuery,
                         "service.handle", tracer));
    server->RoutePrefix("POST", "/v1/graphs/",
                        Traced(service, &SimPushService::HandleGraphOp,
                               "service.graph_op", tracer));
    server->Route("GET", "/v1/stats", [service](const HttpRequest& r) {
      return service->HandleStats(r);
    });
    server->Route("GET", "/healthz", [service](const HttpRequest& r) {
      return service->HandleHealth(r);
    });
  }
  const Status started = stack->server->Start();
  if (!started.ok()) {
    *error = "server start failed: " + started.ToString();
    return nullptr;
  }
  HttpClient probe("127.0.0.1", stack->server->port());
  auto health = probe.Get("/healthz");
  if (!health.ok() || health->status != 200) {
    *error = "server not healthy after start";
    return nullptr;
  }
  stack->setup_s = (NowNs() - start) * 1e-9;
  return stack;
}

// --- One pass of the HTTP workload -----------------------------------------

struct ReadRecord {
  uint64_t rid = 0;
  NodeId node = 0;
  bool warmup = false;
  bool ok = false;
  bool cached = false;
  uint64_t generation = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  size_t bytes = 0;
  double engine_ms = 0;
  uint64_t body_hash = 0;
};

struct UpdateRecord {
  double due_to_ack_ms = 0;
  double late_ms = 0;
  double last_swap_ms = -1;  // From /v1/stats; traced pass only.
  size_t dirty_vertices = 0;
};

// A served response kept for the untimed recompute.
struct Sample {
  NodeId node = 0;
  uint64_t generation = 0;
  size_t top_k = 0;
  std::vector<double> scores;                     // top_k == 0.
  std::vector<std::pair<NodeId, double>> top;     // top_k > 0.
};

// One update batch in the order the service applies it (adds, then
// removes), with its request body.
struct Batch {
  std::vector<EdgeUpdate> updates;
  std::string body_tail;  // Everything after {"rid":N.
  size_t dirty_vertices = 0;
};

struct PassResult {
  std::vector<ReadRecord> reads;
  std::vector<UpdateRecord> updates;
  std::vector<Sample> samples;
  std::vector<size_t> batches_acked;  // Index into the batch list, in order.
  uint64_t attempted = 0;
  double throughput_qps = 0;
  double cpu_s = 0;
  uint64_t requests_ok = 0;
  double peak_rss_mb = 0;
  serve::TenantStats tenant;
  serve::HttpServerCounters http;
  size_t queue_depth_max = 0;
  int64_t live_generations_max = 0;
};

struct PassConfig {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  Tracer* tracer = nullptr;
  const std::vector<Batch>* batches = nullptr;
};

std::vector<Batch> MakeBatches(const Graph& graph, size_t count,
                               uint64_t seed) {
  const std::vector<EdgeUpdate> stream = GenerateUpdateStream(
      graph, count * kUpdateBatch, kDeleteFraction, DeriveStreamSeed(seed, 3));
  std::vector<Batch> batches(count);
  for (size_t b = 0; b < count; ++b) {
    const auto first = stream.begin() + b * kUpdateBatch;
    std::vector<EdgeUpdate> chunk(first, first + kUpdateBatch);
    std::string add, remove;
    std::vector<NodeId> touched;
    for (const EdgeUpdate& u : chunk) {
      std::string& list = u.kind == EdgeUpdate::Kind::kInsert ? add : remove;
      list += list.empty() ? "[[" : ",[";
      list += std::to_string(u.src) + "," + std::to_string(u.dst) + "]";
      touched.push_back(u.src);
      touched.push_back(u.dst);
    }
    std::stable_partition(chunk.begin(), chunk.end(), [](const EdgeUpdate& u) {
      return u.kind == EdgeUpdate::Kind::kInsert;
    });
    std::sort(touched.begin(), touched.end());
    batches[b].dirty_vertices = static_cast<size_t>(
        std::unique(touched.begin(), touched.end()) - touched.begin());
    batches[b].updates = std::move(chunk);
    batches[b].body_tail = ",\"add\":" + (add.empty() ? "[" : add) +
                           "],\"remove\":" + (remove.empty() ? "[" : remove) +
                           "],\"swap\":true}";
  }
  return batches;
}

// Hash of a /v1/query body with the `"cached":true,` stamp taken out, so
// a hit and the computed response it came from hash alike.
uint64_t UnstampedHash(std::string_view body) {
  constexpr std::string_view kStamp = "\"cached\":true,";
  size_t cut = body.find(kStamp);
  size_t skip = kStamp.size();
  if (cut == std::string_view::npos) {
    cut = body.find("\"top\":");
    if (cut == std::string_view::npos) cut = body.find("\"scores\":");
    skip = 0;
  }
  if (cut == std::string_view::npos) return std::hash<std::string_view>{}(body);
  const uint64_t a = std::hash<std::string_view>{}(body.substr(0, cut));
  const uint64_t b = std::hash<std::string_view>{}(body.substr(cut + skip));
  return a ^ (b * 0x9E3779B97F4A7C15ull);
}

// Parses one /v1/query response and checks it: node and generation
// echoed, every score in [0, 1], `top` non-increasing. A full score
// vector is scanned in place (it is ~6 MB); the rest goes through the
// service's own JSON parser. Returns "" when the response is correct.
std::string CheckRead(const std::string& body, NodeId node, size_t top_k,
                      uint64_t gen_lo, uint64_t gen_hi, ReadRecord* record,
                      Sample* sample) {
  std::string head;
  if (top_k == 0) {
    constexpr std::string_view kKey = "\"scores\":[";
    const size_t open = body.find(kKey);
    const size_t begin = open == std::string::npos ? open : open + kKey.size();
    const size_t close =
        begin == std::string::npos ? begin : body.find(']', begin);
    if (close == std::string::npos) return "no scores array";
    NodeId count = 0;
    const char* p = body.data() + begin;
    const char* end = body.data() + close;
    bool self_is_one = false;
    while (p < end) {
      double v = 0;
      const auto parsed = std::from_chars(p, end, v);
      if (parsed.ec != std::errc() || !(v >= 0.0 && v <= 1.0)) {
        return "score " + std::to_string(count) + " not in [0, 1]";
      }
      if (count == node) self_is_one = v == 1.0;
      if (sample != nullptr) sample->scores.push_back(v);
      ++count;
      p = parsed.ptr;
      if (p < end && *p++ != ',') return "malformed scores array";
    }
    if (count != kNodes) return "scores array has " + std::to_string(count) + " entries";
    if (!self_is_one) return "score of the source is not 1";
    head = body.substr(0, begin) + body.substr(close);
  }
  auto doc = serve::ParseJson(top_k == 0 ? std::string_view(head)
                                         : std::string_view(body));
  if (!doc.ok() || !doc->is_object()) return "response does not parse";
  const JsonValue* echoed = doc->Find("node");
  const JsonValue* gen = doc->Find("generation");
  if (echoed == nullptr || !echoed->is_number() ||
      echoed->number_value() != node) {
    return "node not echoed";
  }
  if (gen == nullptr || !gen->is_number()) return "no generation";
  record->generation = static_cast<uint64_t>(gen->number_value());
  if (record->generation < gen_lo || record->generation > gen_hi) {
    return "generation " + std::to_string(record->generation) +
           " outside [" + std::to_string(gen_lo) + ", " +
           std::to_string(gen_hi) + "]";
  }
  const JsonValue* cached = doc->Find("cached");
  record->cached = cached != nullptr && cached->is_bool() && cached->bool_value();
  const JsonValue* stats = doc->Find("stats");
  const JsonValue* total = stats != nullptr ? stats->Find("total_ms") : nullptr;
  record->engine_ms =
      record->cached || total == nullptr ? 0.0 : total->number_value();
  if (top_k > 0) {
    const JsonValue* top = doc->Find("top");
    if (top == nullptr || !top->is_array()) return "no top array";
    if (top->array_items().size() > top_k) return "top longer than top_k";
    double previous = 1.0;
    for (const JsonValue& entry : top->array_items()) {
      const JsonValue* v = entry.Find("node");
      const JsonValue* s = entry.Find("score");
      if (v == nullptr || s == nullptr || !v->is_number() || !s->is_number()) {
        return "malformed top entry";
      }
      const double score = s->number_value();
      if (!(score >= 0.0 && score <= 1.0)) return "top score not in [0, 1]";
      if (score > previous) return "top is not non-increasing";
      if (v->number_value() == node || v->number_value() >= kNodes) {
        return "bad node in top";
      }
      previous = score;
      if (sample != nullptr) {
        sample->top.emplace_back(static_cast<NodeId>(v->number_value()), score);
      }
    }
  }
  if (sample != nullptr) {
    sample->node = node;
    sample->generation = record->generation;
    sample->top_k = top_k;
  }
  return "";
}

class Pass {
 public:
  Pass(const PassConfig& config, Stack* stack, Failures* failures)
      : config_(config), stack_(stack), failures_(failures),
        picker_(kNodes, config.workload->zipf_s, config.seed) {}

  PassResult Run() {
    PassResult result;
    auto stats = stack_->service->registry().Stats("default");
    acked_gen_ = posted_gen_ = stats.ok() ? stats->generation : 0;
    const Workload& w = *config_.workload;

    std::vector<std::vector<ReadRecord>> reads(kReaders);
    std::vector<Sample> samples(kReaders);
    std::vector<size_t> sample_index(kReaders);
    Rng sample_rng(DeriveStreamSeed(config_.seed, 5));
    for (size_t& index : sample_index) index = sample_rng.NextBounded(kSampleSpan);

    std::atomic<bool> monitor_stop{false};
    std::thread monitor;
    if (config_.tracer != nullptr) {
      monitor = std::thread([&] {
        while (!monitor_stop.load()) {
          result.queue_depth_max =
              std::max(result.queue_depth_max, stack_->server->queue_depth());
          result.live_generations_max =
              std::max(result.live_generations_max,
                       stack_->service->registry().live_generations());
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
    }

    std::latch warmed(kReaders);
    std::latch go(1);
    std::vector<std::thread> readers;
    for (size_t c = 0; c < kReaders; ++c) {
      readers.emplace_back([&, c] {
        HttpClient client("127.0.0.1", stack_->server->port());
        Rng rng(DeriveStreamSeed(config_.seed, 100 + c));
        Read(&client, picker_.Pick(&rng), /*warmup=*/true, nullptr, &reads[c]);
        warmed.count_down();
        go.wait();
        for (size_t i = 0; NowNs() < deadline_ns_; ++i) {
          Read(&client, picker_.Pick(&rng), false,
               i == sample_index[c] ? &samples[c] : nullptr, &reads[c]);
        }
      });
    }
    warmed.wait();
    const double cpu_start = ProcessCpuSeconds();
    t0_ns_ = NowNs();
    deadline_ns_ = t0_ns_ + static_cast<int64_t>(config_.seconds * 1e9);
    go.count_down();

    std::thread writer;
    if (w.writer) writer = std::thread([&] { Write(&result, true); });
    for (std::thread& t : readers) t.join();
    if (writer.joinable()) writer.join();
    // Each reader's completed reads over the time it took to finish
    // them, summed: no reader is charged for a request still in flight.
    for (const auto& list : reads) {
      size_t done = 0;
      int64_t last_end = t0_ns_;
      for (const ReadRecord& r : list) {
        if (r.warmup || !r.ok) continue;
        ++done;
        last_end = std::max(last_end, r.end_ns);
      }
      if (last_end > t0_ns_) result.throughput_qps += done / ((last_end - t0_ns_) * 1e-9);
    }
    result.cpu_s = ProcessCpuSeconds() - cpu_start;
    if (!w.writer) Write(&result, false);
    result.peak_rss_mb = static_cast<double>(PeakRssBytes()) / (1 << 20);
    monitor_stop.store(true);
    if (monitor.joinable()) monitor.join();

    for (auto& list : reads) {
      for (ReadRecord& r : list) {
        if (!r.warmup && r.ok) ++result.requests_ok;
        result.reads.push_back(r);
      }
    }
    if (w.writer) result.requests_ok += result.updates.size();
    for (Sample& s : samples) {
      if (s.generation != 0) result.samples.push_back(std::move(s));
    }
    result.attempted = attempted_.load();
    stats = stack_->service->registry().Stats("default");
    if (stats.ok()) result.tenant = *stats;
    result.http = stack_->server->counters();
    CheckCacheHits(result);
    return result;
  }

 private:
  void Read(HttpClient* client, NodeId node, bool warmup, Sample* sample,
            std::vector<ReadRecord>* out) {
    const Workload& w = *config_.workload;
    ReadRecord record;
    record.rid = next_rid_.fetch_add(1);
    record.node = node;
    record.warmup = warmup;
    std::string body = "{\"rid\":" + std::to_string(record.rid) +
                       ",\"node\":" + std::to_string(node) +
                       ",\"with_stats\":true";
    if (w.top_k > 0) body += ",\"top_k\":" + std::to_string(w.top_k);
    body += "}";
    attempted_.fetch_add(1);
    const uint64_t gen_lo = acked_gen_.load();
    record.start_ns = NowNs();
    auto response = client->Post("/v1/query", body);
    record.end_ns = NowNs();
    const uint64_t gen_hi = posted_gen_.load();
    std::string error;
    if (!response.ok()) {
      error = response.status().ToString();
    } else if (response->status != 200) {
      error = "status " + std::to_string(response->status);
    } else {
      record.bytes = response->body.size();
      error = CheckRead(response->body, node, w.top_k, gen_lo, gen_hi, &record,
                        sample);
      record.body_hash = UnstampedHash(response->body);
    }
    record.ok = error.empty();
    if (!record.ok) {
      failures_->Add("read rid=" + std::to_string(record.rid) + " node=" +
                     std::to_string(node) + ": " + error);
      if (sample != nullptr) *sample = Sample{};
    }
    if (config_.tracer != nullptr) {
      char attrs[160];
      std::snprintf(attrs, sizeof(attrs),
                    "\"kind\":\"read\",\"warmup\":%s,\"cached\":%s,"
                    "\"engine_ms\":%.6f,\"bytes\":%zu,\"ok\":%s",
                    warmup ? "true" : "false", record.cached ? "true" : "false",
                    record.engine_ms, record.bytes, record.ok ? "true" : "false");
      config_.tracer->Add({ClientSpanId(record.rid), 0, record.rid,
                           "client.request", record.start_ns, record.end_ns,
                           attrs});
    }
    out->push_back(record);
  }

  // Posts update batches with "swap":true. Under load the schedule is
  // open loop (one batch per kUpdatePeriodS from the window start, each
  // timed from when it was due); on an idle server the batches go back
  // to back after the read window.
  void Write(PassResult* result, bool under_load) {
    HttpClient client("127.0.0.1", stack_->server->port(),
                      serve::HttpRetryOptions{1, 10, 250});
    const std::vector<Batch>& batches = *config_.batches;
    int64_t due = NowNs();
    for (size_t k = 0; k < batches.size(); ++k) {
      if (under_load) {
        due = t0_ns_ + static_cast<int64_t>(k * kUpdatePeriodS * 1e9);
        if (due >= deadline_ns_) break;
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      } else if (k == kIdleUpdates) {
        break;
      }
      const uint64_t rid = next_rid_.fetch_add(1);
      const std::string body =
          "{\"rid\":" + std::to_string(rid) + batches[k].body_tail;
      UpdateRecord record;
      record.dirty_vertices = batches[k].dirty_vertices;
      const uint64_t expected = posted_gen_.fetch_add(1) + 1;
      attempted_.fetch_add(1);
      const int64_t sent = NowNs();
      auto response = client.Post("/v1/graphs/default/edges", body);
      const int64_t acked = NowNs();
      record.late_ms = (sent - due) * 1e-6;
      record.due_to_ack_ms = (acked - due) * 1e-6;
      std::string error;
      if (!response.ok() || response->status != 200) {
        error = response.ok() ? "status " + std::to_string(response->status) +
                                    " " + response->body.substr(0, 200)
                              : response.status().ToString();
      } else {
        auto doc = serve::ParseJson(response->body);
        const JsonValue* swapped = doc.ok() ? doc->Find("swapped") : nullptr;
        const JsonValue* gen = doc.ok() ? doc->Find("generation") : nullptr;
        if (swapped == nullptr || !swapped->is_bool() || !swapped->bool_value() ||
            gen == nullptr || gen->number_value() != expected) {
          error = "ack is not a swap to generation " + std::to_string(expected);
        }
      }
      if (config_.tracer != nullptr) {
        config_.tracer->Add({ClientSpanId(rid), 0, rid, "client.update", sent,
                             acked, "\"kind\":\"update\""});
      }
      if (!error.empty()) {
        failures_->Add("update " + std::to_string(k) + ": " + error);
        posted_gen_.fetch_sub(1);
        continue;
      }
      acked_gen_.store(expected);
      result->batches_acked.push_back(k);
      if (config_.tracer != nullptr) {
        auto stats = client.Get("/v1/stats");
        auto doc = stats.ok() ? serve::ParseJson(stats->body)
                              : StatusOr<JsonValue>(stats.status());
        const JsonValue* graphs = doc.ok() ? doc->Find("graphs") : nullptr;
        const JsonValue* tenant = graphs ? graphs->Find("default") : nullptr;
        const JsonValue* ms = tenant ? tenant->Find("last_swap_ms") : nullptr;
        if (ms != nullptr && ms->is_number()) record.last_swap_ms = ms->number_value();
      }
      result->updates.push_back(record);
      if (!under_load) due = NowNs();
    }
  }

  // A cache hit must equal the computed response it came from, apart
  // from the "cached" stamp.
  void CheckCacheHits(const PassResult& result) {
    std::map<std::pair<uint64_t, NodeId>, uint64_t> computed;
    for (const ReadRecord& r : result.reads) {
      if (r.ok && !r.cached) computed[{r.generation, r.node}] = r.body_hash;
    }
    for (const ReadRecord& r : result.reads) {
      if (!r.ok || !r.cached) continue;
      const auto it = computed.find({r.generation, r.node});
      if (it == computed.end() || it->second != r.body_hash) {
        failures_->Add("cache hit for node " + std::to_string(r.node) +
                       " differs from the computed response");
      }
    }
  }

  const PassConfig config_;
  Stack* const stack_;
  Failures* const failures_;
  const SourcePicker picker_;
  std::atomic<uint64_t> next_rid_{1};
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> acked_gen_{0};
  std::atomic<uint64_t> posted_gen_{0};
  int64_t t0_ns_ = 0;
  std::atomic<int64_t> deadline_ns_{INT64_MAX};
};

// --- Untimed recompute of sampled responses --------------------------------

std::string CompareSample(const Sample& sample, const Graph& graph) {
  SimPushEngine engine(graph, EngineOptions());
  SimPushResult fresh;
  const Status status = engine.QueryInto(sample.node, &fresh);
  if (!status.ok()) return "recompute failed: " + status.ToString();
  if (sample.top_k == 0) {
    if (sample.scores.size() != fresh.scores.size() ||
        std::memcmp(sample.scores.data(), fresh.scores.data(),
                    fresh.scores.size() * sizeof(double)) != 0) {
      return "served scores differ from a fresh engine";
    }
    return "";
  }
  std::vector<std::pair<NodeId, double>> expected;
  for (NodeId v : TopK(fresh.scores, sample.top_k, sample.node)) {
    if (fresh.scores[v] <= 0.0) break;
    expected.emplace_back(v, fresh.scores[v]);
  }
  if (expected.size() != sample.top.size()) return "served top has wrong size";
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].first != sample.top[i].first ||
        std::memcmp(&expected[i].second, &sample.top[i].second,
                    sizeof(double)) != 0) {
      return "served top differs from a fresh engine";
    }
  }
  return "";
}

// Recomputes every sample on the graph of the generation that served
// it. Earlier generations are rebuilt from the current one by undoing
// the acked batches newest first (snapshots are canonical, so the
// rebuilt graph is byte-identical to the one that served).
size_t VerifySamples(const PassResult& pass, const std::vector<Batch>& batches,
                     const serve::GenerationLease& current,
                     Failures* failures) {
  std::map<uint64_t, std::vector<const Sample*>, std::greater<>> by_gen;
  for (const Sample& s : pass.samples) by_gen[s.generation].push_back(&s);
  std::unique_ptr<DynamicGraph> rewind;
  uint64_t rewound_to = current->id();
  size_t acked = pass.batches_acked.size();
  size_t verified = 0;
  for (const auto& [gen, samples] : by_gen) {
    std::unique_ptr<Graph> rebuilt;
    if (gen != current->id()) {
      if (rewind == nullptr) {
        rewind = std::make_unique<DynamicGraph>(
            DynamicGraph::FromGraph(current->graph()));
      }
      while (rewound_to > gen && acked > 0) {
        std::vector<EdgeUpdate> undo;
        for (const EdgeUpdate& u : batches[pass.batches_acked[--acked]].updates) {
          undo.push_back(u);
          undo.back().kind = u.kind == EdgeUpdate::Kind::kInsert
                                 ? EdgeUpdate::Kind::kDelete
                                 : EdgeUpdate::Kind::kInsert;
        }
        // Re-insert the removed edges before deleting the added ones.
        std::stable_partition(undo.begin(), undo.end(), [](const EdgeUpdate& u) {
          return u.kind == EdgeUpdate::Kind::kInsert;
        });
        const Status undone = rewind->Apply(undo);
        if (!undone.ok()) {
          failures->Add("cannot rewind a batch: " + undone.ToString());
          return verified;
        }
        --rewound_to;
      }
      auto snapshot = rewind->SnapshotDelta(current->graph());
      if (!snapshot.ok()) snapshot = rewind->Snapshot();
      if (rewound_to != gen || !snapshot.ok()) {
        failures->Add("cannot rebuild generation " + std::to_string(gen));
        continue;
      }
      rebuilt = std::make_unique<Graph>(*std::move(snapshot));
    }
    const Graph& graph = rebuilt != nullptr ? *rebuilt : current->graph();
    std::vector<std::thread> threads;
    for (const Sample* sample : samples) {
      threads.emplace_back([&, sample] {
        const std::string error = CompareSample(*sample, graph);
        if (!error.empty()) {
          failures->Add("sample node " + std::to_string(sample->node) +
                        " generation " + std::to_string(sample->generation) +
                        ": " + error);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    verified += samples.size();
  }
  return verified;
}

// --- In-process replay (traced runs) ---------------------------------------

struct ReplayRecord {
  bool done = false;
  double cpu_ms = 0;
  size_t gu_occurrences = 0;
  size_t attention = 0;
  uint64_t walks = 0;
  uint64_t reverse_edges = 0;
  size_t nonzeros = 0;
};

// Times one call as a span under `parent` and returns its result.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, uint64_t parent, uint64_t request,
           Fn&& fn) {
  const int64_t start = NowNs();
  auto result = fn();
  tracer->Add({tracer->NextId(), parent, request, name, start, NowNs(), {}});
  return result;
}

// Mirrors QueryRunner::QueryInto stage by stage, with a span per stage.
Status RunStages(const EngineCore& core, NodeId u, QueryWorkspace* workspace,
                 std::vector<double>* scores, Tracer* tracer, uint64_t parent,
                 uint64_t request) {
  const Graph& graph = core.graph();
  const SimPushOptions& options = core.options();
  const DerivedParams& derived = core.derived();
  Rng rng(core.QuerySeed(u));
  SourceGraph& gu = workspace->source_graph;
  SourcePushStats sp_stats;
  SIMPUSH_RETURN_NOT_OK(Timed(tracer, "simpush.source_push", parent, request, [&] {
    return SourcePushInto(graph, u, options, derived, &rng, workspace, &gu,
                          &sp_stats);
  }));
  if (options.use_gamma_correction) {
    Timed(tracer, "simpush.hitting", parent, request, [&] {
      ComputeHittingTable(graph, gu, derived.sqrt_c, workspace,
                          &workspace->hitting_table);
      return 0;
    });
    Timed(tracer, "simpush.last_meeting", parent, request, [&] {
      ComputeLastMeetingProbabilities(gu, workspace->hitting_table, workspace,
                                      &workspace->gamma);
      return 0;
    });
  } else {
    workspace->gamma.assign(gu.num_attention(), 1.0);
  }
  scores->assign(graph.num_nodes(), 0.0);
  ReversePushStats rp_stats;
  SIMPUSH_RETURN_NOT_OK(Timed(tracer, "simpush.reverse_push", parent, request, [&] {
    return ReversePush(graph, gu, workspace->gamma, derived.sqrt_c,
                       derived.eps_h, workspace, scores, &rp_stats);
  }));
  (*scores)[u] = 1.0;
  return Status::OK();
}

std::vector<ReplayRecord> Replay(SimPushService* service,
                                 const std::vector<NodeId>& sources,
                                 double budget_s, Tracer* tracer,
                                 Failures* failures) {
  std::vector<ReplayRecord> records(sources.size());
  std::atomic<size_t> next{0};
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReplayThreads; ++t) {
    threads.emplace_back([&] {
      SimPushResult cached, computed;
      std::vector<double> staged;
      bool first = true;
      while (first || NowNs() < deadline) {
        first = false;
        const size_t i = next.fetch_add(1);
        if (i >= sources.size()) return;
        const NodeId u = sources[i];
        const uint64_t request = tracer->NextId();
        const uint64_t root = tracer->NextId();
        const int64_t root_start = NowNs();
        auto lease = Timed(tracer, "registry.lease", root, request, [&] {
          return service->registry().Lease("default");
        });
        if (!lease.ok()) {
          failures->Add("replay lease failed");
          return;
        }
        const serve::GraphGeneration& generation = **lease;
        const bool hit = Timed(tracer, "cache.get", root, request, [&] {
          return generation.cache() != nullptr &&
                 generation.cache()->Get(u, generation.options_fingerprint(),
                                         &cached);
        });
        WorkspaceLease workspace = Timed(tracer, "pool.acquire", root, request,
                                         [&] { return generation.workspaces().Acquire(); });
        QueryRunner runner(generation.core(), workspace.get());
        Status ran, staged_ok;
        auto run_query = [&] {
          const double cpu_start = ThreadCpuSeconds();
          ran = Timed(tracer, "runner.query_into", root, request,
                      [&] { return runner.QueryInto(u, &computed); });
          records[i].cpu_ms = (ThreadCpuSeconds() - cpu_start) * 1e3;
        };
        auto run_stages = [&] {
          const uint64_t stages = tracer->NextId();
          const int64_t stages_start = NowNs();
          staged_ok = RunStages(generation.core(), u, workspace.get(), &staged,
                                tracer, stages, request);
          tracer->Add({stages, root, request, "replay.stages", stages_start,
                       NowNs(), {}});
        };
        // The second run of a source finds its data warm in L3, so the
        // order alternates to keep the stage-sum ratio unbiased.
        if (i % 2 == 0) {
          run_query();
          run_stages();
        } else {
          run_stages();
          run_query();
        }
        workspace.Release();
        tracer->Add({root, 0, request, "replay.request", root_start, NowNs(),
                     "\"kind\":\"replay\""});
        if (!ran.ok() || !staged_ok.ok() ||
            staged.size() != computed.scores.size() ||
            std::memcmp(staged.data(), computed.scores.data(),
                        staged.size() * sizeof(double)) != 0) {
          failures->Add("replayed stages differ from QueryInto for node " +
                        std::to_string(u));
        }
        if (hit && (cached.scores.size() != computed.scores.size() ||
                    std::memcmp(cached.scores.data(), computed.scores.data(),
                                cached.scores.size() * sizeof(double)) != 0)) {
          failures->Add("cached scores differ from QueryInto for node " +
                        std::to_string(u));
        }
        ReplayRecord& r = records[i];
        r.gu_occurrences = computed.stats.gu_node_occurrences;
        r.attention = computed.stats.num_attention;
        r.walks = computed.stats.walks_sampled;
        r.reverse_edges = computed.stats.reverse_edges;
        r.nonzeros = static_cast<size_t>(std::count_if(
            computed.scores.begin(), computed.scores.end(),
            [](double s) { return s != 0.0; }));
        r.done = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<ReplayRecord> finished;
  for (const ReplayRecord& r : records) {
    if (r.done) finished.push_back(r);
  }
  return finished;
}

// --- Output ----------------------------------------------------------------

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit,
           size_t samples = 1) {
    writer_.Key(name);
    writer_.BeginObject();
    writer_.Key("value");
    writer_.Double(value);
    writer_.Key("unit");
    writer_.String(unit);
    writer_.Key("samples");
    writer_.Uint(samples);
    writer_.EndObject();
  }
  JsonWriter& writer() { return writer_; }

 private:
  JsonWriter writer_;
};

std::vector<double> ReadLatencies(const PassResult& pass, int cached) {
  std::vector<double> ms;
  for (const ReadRecord& r : pass.reads) {
    if (r.warmup || !r.ok) continue;
    if (cached >= 0 && r.cached != (cached == 1)) continue;
    ms.push_back((r.end_ns - r.start_ns) * 1e-6);
  }
  return ms;
}

void AddEndToEnd(Metrics* m, const PassResult& pass,
                 const std::vector<double>& setups, uint64_t attempted,
                 uint64_t failed) {
  const std::vector<double> all = ReadLatencies(pass, -1);
  const std::vector<double> computed = ReadLatencies(pass, 0);
  std::vector<double> updates;
  for (const UpdateRecord& u : pass.updates) updates.push_back(u.due_to_ack_ms);
  m->Add("setup_s", Quantile(setups, 0.5), "s", setups.size());
  m->Add("throughput_qps", pass.throughput_qps, "1/s", all.size());
  m->Add("latency_p50_ms", Quantile(all, 0.5), "ms", all.size());
  m->Add("latency_p90_ms", Quantile(all, 0.90), "ms", all.size());
  m->Add("latency_p95_ms", Quantile(all, 0.95), "ms", all.size());
  m->Add("computed_p50_ms", Quantile(computed, 0.5), "ms", computed.size());
  m->Add("error_rate", attempted > 0 ? double(failed) / attempted : 0.0,
         "ratio", attempted);
  m->Add("cpu_ms_per_request",
         pass.requests_ok > 0 ? pass.cpu_s * 1e3 / pass.requests_ok : 0.0, "ms",
         pass.requests_ok);
  m->Add("peak_rss_mb", pass.peak_rss_mb, "MB");
  m->Add("update_p50_ms", Quantile(updates, 0.5), "ms", updates.size());
}

void AddPerLayer(Metrics* m, const PassResult& untraced, const PassResult& traced,
                 const std::vector<ReplayRecord>& replay, double load_s,
                 size_t csr_bytes) {
  const serve::TenantStats& t = traced.tenant;
  std::vector<double> bytes, hit_ms, last_swap, dirty, late;
  for (const ReadRecord& r : traced.reads) {
    if (r.warmup || !r.ok) continue;
    bytes.push_back(static_cast<double>(r.bytes));
    if (r.cached) hit_ms.push_back((r.end_ns - r.start_ns) * 1e-6);
  }
  for (const UpdateRecord& u : traced.updates) {
    if (u.last_swap_ms >= 0) last_swap.push_back(u.last_swap_ms);
    dirty.push_back(static_cast<double>(u.dirty_vertices));
    late.push_back(u.late_ms);
  }
  const double misses = static_cast<double>(t.cache_misses);
  m->Add("http.rejected_503", static_cast<double>(traced.http.rejected_503), "count");
  m->Add("http.queue_depth_max", static_cast<double>(traced.queue_depth_max), "count");
  m->Add("json.response_bytes_p50", Quantile(bytes, 0.5), "bytes", bytes.size());
  m->Add("cache.hit_rate", t.cache_hits + misses > 0 ? t.cache_hits / (t.cache_hits + misses) : 0,
         "ratio", t.cache_hits + t.cache_misses);
  m->Add("cache.insert_rate", misses > 0 ? t.cache_inserts / misses : 0, "ratio",
         t.cache_misses);
  m->Add("cache.misses", misses, "count");
  m->Add("cache.admission_rejects", static_cast<double>(t.cache_admission_rejects), "count");
  m->Add("cache.evictions", static_cast<double>(t.cache_evictions), "count");
  m->Add("cache.bytes", static_cast<double>(t.cache_bytes), "bytes");
  m->Add("cache.hit_request_p50_ms", Quantile(hit_ms, 0.5), "ms", hit_ms.size());
  m->Add("registry.delta_swaps", static_cast<double>(t.delta_swaps), "count");
  m->Add("registry.full_swaps",
         static_cast<double>(t.swap_count - 1 - t.delta_swaps), "count");
  m->Add("registry.live_generations_max",
         static_cast<double>(traced.live_generations_max), "count");
  m->Add("graph.last_swap_ms_p50", Quantile(last_swap, 0.5), "ms", last_swap.size());
  m->Add("graph.dirty_vertices_p50", Quantile(dirty, 0.5), "count", dirty.size());
  m->Add("graph.load_s", load_s, "s");
  m->Add("graph.csr_bytes", static_cast<double>(csr_bytes), "bytes");
  m->Add("loadgen.writer_late_ms_max",
         late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()), "ms",
         late.size());
  m->Add("trace.overhead_ratio",
         traced.throughput_qps > 0
             ? untraced.throughput_qps / traced.throughput_qps
             : 0,
         "ratio");
  std::vector<double> cpu, gu, attention, walks, edges, nonzeros;
  double attention_sum = 0, gu_sum = 0;
  for (const ReplayRecord& r : replay) {
    cpu.push_back(r.cpu_ms);
    gu.push_back(static_cast<double>(r.gu_occurrences));
    attention.push_back(static_cast<double>(r.attention));
    walks.push_back(static_cast<double>(r.walks));
    edges.push_back(static_cast<double>(r.reverse_edges));
    nonzeros.push_back(static_cast<double>(r.nonzeros));
    attention_sum += r.attention;
    gu_sum += r.gu_occurrences;
  }
  const size_t n = replay.size();
  m->Add("engine.cpu_ms_per_query",
         n > 0 ? std::accumulate(cpu.begin(), cpu.end(), 0.0) / n : 0, "ms", n);
  m->Add("simpush.gu_occurrences_p50", Quantile(gu, 0.5), "count", n);
  m->Add("simpush.attention_p50", Quantile(attention, 0.5), "count", n);
  m->Add("simpush.attention_per_gu", gu_sum > 0 ? attention_sum / gu_sum : 0,
         "ratio", n);
  m->Add("simpush.walks_per_query",
         n > 0 ? std::accumulate(walks.begin(), walks.end(), 0.0) / n : 0,
         "count", n);
  m->Add("simpush.reverse_edges_p50", Quantile(edges, 0.5), "count", n);
  m->Add("simpush.score_nonzeros_p50", Quantile(nonzeros, 0.5), "count", n);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "serve_bench: %s\n", message.c_str());
  return 1;
}

std::string Flag(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

int GenerateGraph(const std::string& path) {
  auto graph = GenerateChungLu(kNodes, kEdges, kBeta, kGraphSeed);
  if (!graph.ok()) return Fail("generation failed: " + graph.status().ToString());
  const std::string tmp = path + ".tmp";
  const Status saved = SaveBinaryGraph(*graph, tmp);
  if (!saved.ok()) return Fail("save failed: " + saved.ToString());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) return Fail("rename failed");
  return 0;
}

int Main(int argc, char** argv) {
  const std::string generate = Flag(argc, argv, "--generate-graph", "");
  if (!generate.empty()) return GenerateGraph(generate);
  const std::string graph_path = Flag(argc, argv, "--graph", "");
  const std::string name = Flag(argc, argv, "--workload", "");
  const uint64_t seed = std::strtoull(Flag(argc, argv, "--seed", "1").c_str(), nullptr, 10);
  const double seconds = std::atof(Flag(argc, argv, "--seconds", "10").c_str());
  const bool trace = Flag(argc, argv, "--trace", "0") == "1";
  const std::string spans_path = Flag(argc, argv, "--spans", "spans.jsonl");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) return Fail("unknown --workload '" + name + "'");
  if (!(seconds > 0)) return Fail("--seconds must be positive");

  Failures failures;
  Tracer tracer;
  std::string error;
  std::vector<double> setups, loads;
  // Batches cover the whole window under load, kIdleUpdates otherwise.
  const size_t batch_count =
      workload->writer ? static_cast<size_t>(seconds / kUpdatePeriodS) + 1
                       : kIdleUpdates;
  std::vector<Batch> batches;
  PassConfig config{workload, seed, seconds, nullptr, &batches};

  // Untraced: several set-ups (median reported), the last one measured.
  // Traced: an untraced pass for the overhead ratio, then a traced one.
  const int setups_needed = trace ? 2 : kSetups;
  std::unique_ptr<Stack> stack;
  PassResult untraced, measured;
  uint64_t attempted = 0;
  for (int i = 0; i < setups_needed; ++i) {
    stack.reset();
    const bool traced_stack = trace && i == setups_needed - 1;
    stack = SetUp(graph_path, traced_stack ? &tracer : nullptr, &error);
    if (stack == nullptr) return Fail(error);
    setups.push_back(stack->setup_s);
    loads.push_back(stack->load_s);
    if (batches.empty()) {
      auto lease = stack->service->registry().Lease("default");
      if (!lease.ok()) return Fail("no default graph");
      batches = MakeBatches((*lease)->graph(), batch_count, seed);
    }
    if (trace && i == 0) {
      untraced = Pass(config, stack.get(), &failures).Run();
      attempted += untraced.attempted;
    }
  }
  config.tracer = trace ? &tracer : nullptr;
  measured = Pass(config, stack.get(), &failures).Run();
  attempted += measured.attempted;

  std::vector<ReplayRecord> replay;
  if (trace) {
    std::vector<NodeId> sources;
    for (const ReadRecord& r : measured.reads) {
      if (!r.warmup) sources.push_back(r.node);
    }
    replay = Replay(stack->service.get(), sources, seconds / 2, &tracer, &failures);
    attempted += replay.size();
  }
  auto current = stack->service->registry().Lease("default");
  if (!current.ok()) return Fail("no default graph after the run");
  const serve::GenerationLease generation = *std::move(current);
  const size_t csr_bytes = generation->graph().MemoryBytes();
  stack.reset();  // The recompute needs the graph only.
  const size_t verified =
      VerifySamples(measured, batches, generation, &failures);
  attempted += verified;
  if (verified == 0) failures.Add("no sampled response was recomputed");
  if (trace && !tracer.Write(spans_path)) return Fail("cannot write " + spans_path);

  const uint64_t failed = failures.count();
  Metrics m;
  JsonWriter& w = m.writer();
  w.BeginObject();
  w.Key("workload");
  w.String(workload->name);
  w.Key("attempted");
  w.Uint(attempted);
  w.Key("failed");
  w.Uint(failed);
  w.Key("samples_verified");
  w.Uint(verified);
  w.Key("failures");
  w.BeginArray();
  for (const std::string& f : failures.messages()) w.String(f);
  w.EndArray();
  w.Key("end_to_end");
  w.BeginObject();
  AddEndToEnd(&m, trace ? untraced : measured, setups, attempted, failed);
  w.EndObject();
  if (trace) {
    w.Key("per_layer");
    w.BeginObject();
    AddPerLayer(&m, untraced, measured, replay, Quantile(loads, 0.5), csr_bytes);
    w.EndObject();
  }
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace simpush

int main(int argc, char** argv) { return simpush::Main(argc, argv); }
