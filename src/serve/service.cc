#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/memory.h"
#include "common/thread_pool.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "serve/json.h"
#include "simpush/topk.h"

namespace simpush {
namespace serve {

namespace {

// The 400 message for a name IsValidGraphName rejects.
constexpr char kGraphNameRule[] =
    "graph name must be 1-64 chars of [A-Za-z0-9._-]";

// Reads a required non-negative integer field.
StatusOr<uint64_t> RequireIndex(const JsonValue& doc, std::string_view key) {
  const JsonValue* field = doc.Find(key);
  if (field == nullptr) {
    return Status::InvalidArgument("missing \"" + std::string(key) +
                                   "\" field");
  }
  auto index = field->AsIndex();
  if (!index.ok()) {
    return Status::InvalidArgument("\"" + std::string(key) +
                                   "\": " + index.status().message());
  }
  return index;
}

// Reads an optional non-negative integer field with a default.
StatusOr<uint64_t> OptionalIndex(const JsonValue& doc, std::string_view key,
                                 uint64_t fallback) {
  const JsonValue* field = doc.Find(key);
  if (field == nullptr) return fallback;
  auto index = field->AsIndex();
  if (!index.ok()) {
    return Status::InvalidArgument("\"" + std::string(key) +
                                   "\": " + index.status().message());
  }
  return index;
}

// Reads an optional boolean field (absent = false). Any other JSON type
// is an error naming the field: silently reading "swap":1 as false
// would stage an update the client believes was published.
StatusOr<bool> OptionalBool(const JsonValue& doc, std::string_view key) {
  const JsonValue* field = doc.Find(key);
  if (field == nullptr) return false;
  if (!field->is_bool()) {
    return Status::InvalidArgument("\"" + std::string(key) +
                                   "\" must be a boolean");
  }
  return field->bool_value();
}

// Parses a request body that must be one JSON object.
StatusOr<JsonValue> ParseObject(std::string_view body) {
  auto doc = ParseJson(body);
  if (doc.ok() && !doc->is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  return doc;
}

void WriteTopEntries(JsonWriter* writer, const std::vector<TopKEntry>& top) {
  writer->BeginArray();
  for (const TopKEntry& entry : top) {
    writer->BeginObject();
    writer->Key("node");
    writer->Uint(entry.node);
    writer->Key("score");
    writer->Double(entry.score);
    writer->EndObject();
  }
  writer->EndArray();
}

void WriteQueryStats(JsonWriter* writer, const SimPushQueryStats& stats) {
  writer->BeginObject();
  writer->Key("max_level");
  writer->Uint(stats.max_level);
  writer->Key("num_attention");
  writer->Uint(stats.num_attention);
  writer->Key("walks_sampled");
  writer->Uint(stats.walks_sampled);
  writer->Key("reverse_pushes");
  writer->Uint(stats.reverse_pushes);
  writer->Key("total_ms");
  writer->Double(stats.total_seconds * 1e3);
  writer->EndObject();
}

void WriteLatency(JsonWriter* writer, const LatencySnapshot& latency) {
  writer->BeginObject();
  writer->Key("samples");
  writer->Uint(latency.samples);
  writer->Key("p50");
  writer->Double(latency.p50_ms);
  writer->Key("p90");
  writer->Double(latency.p90_ms);
  writer->Key("p99");
  writer->Double(latency.p99_ms);
  writer->Key("max");
  writer->Double(latency.max_ms);
  writer->EndObject();
}

// Writes the "pool": {capacity, created, outstanding} gauges — shared
// by the per-tenant sections and the single-graph compatibility block.
void WritePoolGauges(JsonWriter* writer, const TenantStats& stats) {
  writer->Key("pool");
  writer->BeginObject();
  writer->Key("capacity");
  writer->Uint(stats.pool_capacity);
  writer->Key("created");
  writer->Uint(stats.pool_created);
  writer->Key("outstanding");
  writer->Uint(stats.pool_outstanding);
  writer->EndObject();
}

// Reads [[src,dst],...] into `updates` as `kind` entries (an absent
// list reads as empty). Pair entries must be two-element arrays of
// valid node indices (range-checked against the registry master later,
// where n is known).
Status ReadEdgePairs(const JsonValue* field, EdgeUpdate::Kind kind,
                     std::vector<EdgeUpdate>* updates) {
  if (field == nullptr) return Status::OK();
  if (!field->is_array()) {
    return Status::InvalidArgument("edge list must be an array of [src,dst]");
  }
  for (const JsonValue& pair : field->array_items()) {
    if (!pair.is_array() || pair.array_items().size() != 2) {
      return Status::InvalidArgument(
          "edge list entries must be [src,dst] pairs");
    }
    auto src = pair.array_items()[0].AsIndex();
    auto dst = pair.array_items()[1].AsIndex();
    if (!src.ok() || !dst.ok() || *src > kInvalidNode || *dst > kInvalidNode) {
      return Status::InvalidArgument("edge endpoints must be node ids");
    }
    updates->push_back({kind, static_cast<NodeId>(*src),
                        static_cast<NodeId>(*dst)});
  }
  return Status::OK();
}

// The ε cost floor shared by the per-request override and the tenant
// "options" of POST /v1/graphs. Written fail-closed — `!(value >=
// floor)` — so an embedder that misconfigures min_request_epsilon as
// NaN rejects every network-supplied ε instead of accepting all of
// them (NaN makes `value < floor` false for every value).
Status CheckEpsilonFloor(double value, double min_epsilon,
                         std::string_view field) {
  if (!(value >= min_epsilon)) {
    JsonWriter number;  // Shortest round-trip form for the message.
    number.Double(min_epsilon);
    return Status::InvalidArgument(
        "\"" + std::string(field) +
        "\" below the server's floor (min_request_epsilon=" +
        number.Take() + ")");
  }
  return Status::OK();
}

// Reads the optional per-request "deadline_ms" budget for /v1/query,
// /v1/topk and /v1/batch. Absent → the operator's request_timeout_ms
// default (0 = no deadline). Present → an integer in
// [1, max_deadline_ms]; the field is network-controlled, so values
// above the operator cap are a 400, not a clamp — silent clamping
// would let a client believe it bought more time than it got.
StatusOr<int64_t> ReadDeadlineMs(const JsonValue& doc,
                                 const ServiceOptions& options) {
  const JsonValue* field = doc.Find("deadline_ms");
  if (field == nullptr) {
    return static_cast<int64_t>(options.request_timeout_ms);
  }
  auto value = field->AsIndex();
  if (!value.ok()) {
    return Status::InvalidArgument("\"deadline_ms\": " +
                                   value.status().message());
  }
  if (*value < 1 ||
      *value > static_cast<uint64_t>(options.max_deadline_ms)) {
    return Status::InvalidArgument(
        "\"deadline_ms\" must be in [1, " +
        std::to_string(options.max_deadline_ms) + "]");
  }
  return static_cast<int64_t>(*value);
}

// 504/499 body: the error plus partial timing, so a client (or its
// operator) can see how far past the budget the query got and which
// generation it ran against.
void WriteTimeout(JsonWriter* writer, std::string_view message,
                  double elapsed_ms, int64_t deadline_ms,
                  std::string_view graph, uint64_t generation) {
  writer->BeginObject();
  writer->Key("error");
  writer->String(message);
  writer->Key("elapsed_ms");
  writer->Double(elapsed_ms);
  writer->Key("deadline_ms");
  writer->Uint(deadline_ms > 0 ? static_cast<uint64_t>(deadline_ms) : 0);
  writer->Key("graph");
  writer->String(graph);
  writer->Key("generation");
  writer->Uint(generation);
  writer->EndObject();
}

// Reads the optional per-request "epsilon" override for /v1/query and
// /v1/topk (absent → no override). Present → must be a finite number
// in (0,1) and at least `min_epsilon` (the override is
// network-controlled, and query cost explodes as ε shrinks); any
// violation is an error naming the field, so it surfaces as a 400 at
// the HTTP boundary rather than a per-query engine error.
StatusOr<std::optional<double>> ReadEpsilonOverride(const JsonValue& doc,
                                                    double min_epsilon) {
  const JsonValue* field = doc.Find("epsilon");
  if (field == nullptr) return std::optional<double>();
  auto value = field->AsDouble();
  if (!value.ok()) {
    return Status::InvalidArgument("\"epsilon\": " +
                                   value.status().message());
  }
  if (!(*value > 0.0 && *value < 1.0)) {
    return Status::InvalidArgument("\"epsilon\" must be in (0,1)");
  }
  SIMPUSH_RETURN_NOT_OK(CheckEpsilonFloor(*value, min_epsilon, "epsilon"));
  return std::optional<double>(*value);
}

// Parses the optional "options" object of POST /v1/graphs into
// `options` (fields not named keep their process-default values).
// Unknown keys are rejected — an engine knob typo must not silently
// fall back to the defaults — and the merged result runs through
// SimPushOptions::Validate so a bad or non-finite ε/c/δ is a 400
// naming the field here, not an engine error on every later query.
// These options arrive FROM THE NETWORK, so every knob that can buy
// CPU is bounded against the operator configuration: ε is floored at
// `min_epsilon`; a client-supplied walk_budget_cap may only LOWER the
// walk budget relative to the operator default — 0 (= the paper's
// uncapped worst-case formula, billions of walks at small ε) and cap
// raises are refused; decay may not be RAISED above the operator
// default, because walk length (~1/(1-√c)) and L* both diverge as
// c → 1 and the walk cap bounds neither; and delta may not be LOWERED
// below the operator default, because num_walks grows with log(1/δ)
// and is unbounded when the operator runs uncapped. Moving any of
// these in the expensive direction is operator-only (CLI / AddGraph).
// Tenants that omit a field inherit whatever the operator configured.
Status ReadTenantOptions(const JsonValue& doc, double min_epsilon,
                         SimPushOptions* options) {
  const JsonValue* field = doc.Find("options");
  if (field == nullptr) return Status::OK();
  if (!field->is_object()) {
    return Status::InvalidArgument("\"options\" must be an object");
  }
  const uint64_t default_walk_cap = options->walk_budget_cap;
  const double default_decay = options->decay;
  const double default_delta = options->delta;
  bool epsilon_given = false;
  bool decay_given = false;
  bool delta_given = false;
  bool walk_cap_given = false;
  for (const auto& [key, value] : field->object_members()) {
    if (key == "epsilon" || key == "decay" || key == "delta") {
      auto number = value.AsDouble();
      if (!number.ok()) {
        return Status::InvalidArgument("\"options." + key +
                                       "\": " + number.status().message());
      }
      if (key == "epsilon") {
        options->epsilon = *number;
        epsilon_given = true;
      } else if (key == "decay") {
        options->decay = *number;
        decay_given = true;
      } else {
        options->delta = *number;
        delta_given = true;
      }
    } else if (key == "seed" || key == "walk_budget_cap") {
      auto number = value.AsIndex();
      if (!number.ok()) {
        return Status::InvalidArgument("\"options." + key +
                                       "\": " + number.status().message());
      }
      if (key == "seed") {
        options->seed = *number;
      } else {
        options->walk_budget_cap = *number;
        walk_cap_given = true;
      }
    } else {
      return Status::InvalidArgument(
          "unknown option \"" + key +
          "\" (expected epsilon|decay|delta|seed|walk_budget_cap)");
    }
  }
  const Status valid = options->Validate();
  if (!valid.ok()) {
    return Status::InvalidArgument("\"options\": " + valid.message());
  }
  if (epsilon_given) {
    SIMPUSH_RETURN_NOT_OK(
        CheckEpsilonFloor(options->epsilon, min_epsilon, "options.epsilon"));
  }
  if (decay_given && options->decay > default_decay) {
    JsonWriter number;
    number.Double(default_decay);
    return Status::InvalidArgument(
        "\"options.decay\" above the server default (" + number.Take() +
        "); raising the decay is operator-only");
  }
  if (delta_given && options->delta < default_delta) {
    JsonWriter number;
    number.Double(default_delta);
    return Status::InvalidArgument(
        "\"options.delta\" below the server default (" + number.Take() +
        "); lowering the delta is operator-only");
  }
  if (walk_cap_given) {
    if (options->walk_budget_cap == 0) {
      return Status::InvalidArgument(
          "\"options.walk_budget_cap\" must be positive (0 = uncapped is "
          "operator-only)");
    }
    if (default_walk_cap != 0 &&
        options->walk_budget_cap > default_walk_cap) {
      return Status::InvalidArgument(
          "\"options.walk_budget_cap\" above the server default (" +
          std::to_string(default_walk_cap) +
          "); raising the cap is operator-only");
    }
  }
  return Status::OK();
}

// Writes the epsilon/decay/delta/seed/walk_budget_cap members into the
// writer's currently-open object — the one field list shared by the
// process-default and per-tenant options sections of /v1/stats, so the
// two shapes cannot drift.
void WriteEngineOptionFields(JsonWriter* writer,
                             const SimPushOptions& options) {
  writer->Key("epsilon");
  writer->Double(options.epsilon);
  writer->Key("decay");
  writer->Double(options.decay);
  writer->Key("delta");
  writer->Double(options.delta);
  writer->Key("seed");
  writer->Uint(options.seed);
  writer->Key("walk_budget_cap");
  writer->Uint(options.walk_budget_cap);
}

// The same fields as a complete object (per-tenant sections, the
// graph-create echo).
void WriteEngineOptions(JsonWriter* writer, const SimPushOptions& options) {
  writer->BeginObject();
  WriteEngineOptionFields(writer, options);
  writer->EndObject();
}

RegistryOptions ToRegistryOptions(const ServiceOptions& options) {
  RegistryOptions registry_options;
  registry_options.query = options.query;
  registry_options.num_threads = options.num_threads;
  registry_options.pool_capacity = options.pool_capacity;
  registry_options.swap_threshold = options.swap_threshold;
  registry_options.max_graphs = options.max_graphs;
  registry_options.cache_bytes = options.cache_bytes;
  return registry_options;
}

}  // namespace

SimPushService::SimPushService(const ServiceOptions& options)
    : options_(options),
      registry_(ToRegistryOptions(options)),
      latency_(options.latency_ring_size) {}

SimPushService::SimPushService(const Graph& graph,
                               const ServiceOptions& options)
    : SimPushService(options) {
  // Compatibility shape: one tenant under the default name. A copy is
  // taken so the registry owns its master/generation lifecycle. A
  // rejection (bad options / bad default name) is RECORDED, not
  // swallowed: /healthz turns 503 and /v1/stats carries the error
  // until a later AddGraph installs the default graph. Tools should
  // additionally check AddGraph up front and exit non-zero, as
  // simpush_serve does.
  const Status added = AddGraph(options_.default_graph, graph);
  if (!added.ok()) {
    MutexLock lock(&startup_mu_);
    startup_status_ = added;
  }
}

Status SimPushService::startup_status() const {
  MutexLock lock(&startup_mu_);
  return startup_status_;
}

// The metrics map must track the registry under concurrent add/remove
// of one name WITHOUT metrics_mu_ ever covering the registry's O(n+m)
// build (that would stall every handler's FindMetrics for the whole
// build). AddGraph installs a FRESH metrics object only after the
// registry accepted the name; RemoveGraph erases only the exact object
// it observed before removing, so a racing re-add's fresh metrics can
// never be deleted out from under the new graph, and a re-added graph
// can never inherit the old graph's counters.
Status SimPushService::AddGraph(const std::string& name, Graph graph) {
  return AddGraph(name, std::move(graph), options_.query);
}

Status SimPushService::AddGraph(const std::string& name, Graph graph,
                                const SimPushOptions& tenant_options) {
  SIMPUSH_RETURN_NOT_OK(registry_.Add(name, std::move(graph),
                                      tenant_options));
  {
    MutexLock lock(&metrics_mu_);
    tenant_metrics_.insert_or_assign(
        name, std::make_shared<TenantMetrics>(options_.latency_ring_size));
  }
  if (name == options_.default_graph) {
    // The default graph is installed: a startup failure (if any) is no
    // longer the serving truth, so /healthz may recover.
    MutexLock lock(&startup_mu_);
    startup_status_ = Status::OK();
  }
  return Status::OK();
}

Status SimPushService::RemoveGraph(std::string_view name) {
  const std::shared_ptr<TenantMetrics> observed = FindMetrics(name);
  SIMPUSH_RETURN_NOT_OK(registry_.Remove(name));
  MutexLock lock(&metrics_mu_);
  const auto it = tenant_metrics_.find(name);
  if (it != tenant_metrics_.end() && it->second == observed) {
    tenant_metrics_.erase(it);
  }
  return Status::OK();
}

void SimPushService::RegisterRoutes(HttpServer* server) {
  server_ = server;
  server->Route("POST", "/v1/query",
                [this](const HttpRequest& r) { return HandleQuery(r); });
  server->Route("POST", "/v1/topk",
                [this](const HttpRequest& r) { return HandleTopK(r); });
  server->Route("POST", "/v1/batch",
                [this](const HttpRequest& r) { return HandleBatch(r); });
  server->Route("GET", "/v1/stats",
                [this](const HttpRequest& r) { return HandleStats(r); });
  server->Route("GET", "/healthz",
                [this](const HttpRequest& r) { return HandleHealth(r); });
  server->Route("GET", "/v1/graphs",
                [this](const HttpRequest& r) { return HandleGraphList(r); });
  server->Route("POST", "/v1/graphs",
                [this](const HttpRequest& r) { return HandleGraphCreate(r); });
  for (const char* method : {"GET", "POST", "DELETE", "PATCH"}) {
    server->RoutePrefix(method, "/v1/graphs/", [this](const HttpRequest& r) {
      return HandleGraphOp(r);
    });
  }
}

std::shared_ptr<SimPushService::TenantMetrics> SimPushService::FindMetrics(
    std::string_view name) const {
  MutexLock lock(&metrics_mu_);
  const auto it = tenant_metrics_.find(name);
  return it == tenant_metrics_.end() ? nullptr : it->second;
}

// Maps a registry Status onto the admin API's HTTP vocabulary.
SimPushService::HttpError SimPushService::HttpError::FromRegistry(
    const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound: return {404, status.message()};
    case StatusCode::kFailedPrecondition:  // Name taken.
    case StatusCode::kOutOfRange:          // Graph limit.
      return {409, status.message()};
    default: return {400, status.message()};
  }
}

// One parsed /v1/query, /v1/topk or /v1/batch request: everything the
// execute and finish steps need, read from the body exactly once.
struct SimPushService::QueryRequest {
  Endpoint endpoint = Endpoint::kQuery;
  std::string graph_name;
  GenerationLease lease;
  std::vector<NodeId> nodes;      // The source, or the batch in order.
  uint64_t k = 0;                 // Top-k size; 0 = full score vector.
  bool with_stats = false;        // /v1/query only.
  int64_t deadline_ms = 0;        // 0 = no deadline.
  std::optional<double> epsilon;  // Per-request ε override.
};

StatusOr<bool> SimPushService::RunSingleSource(
    const GraphGeneration& generation, NodeId u,
    std::optional<double> epsilon, const CancelToken* cancel,
    SimPushResult* result) {
  // Cache key: the fingerprint of the MERGED effective options. With
  // no override this is the generation's precomputed fingerprint; an
  // override re-fingerprints the tenant options with the request's ε,
  // so an override that merely restates the tenant's own ε
  // canonicalizes onto the same entry, while a different ε keys
  // separately. Either way a hit is sound: scores are a bit-exact
  // function of (generation, effective options, node), independent of
  // which execution path would have computed them.
  ResultCache* const cache = generation.cache();
  SimPushOptions merged = generation.core().options();
  if (epsilon.has_value()) merged.epsilon = *epsilon;
  const uint64_t fingerprint = epsilon.has_value()
                                   ? OptionsFingerprint(merged)
                                   : generation.options_fingerprint();
  if (cache != nullptr && cache->Get(u, fingerprint, result)) return true;
  // An override runs on a throwaway core for its ε over the leased
  // generation's graph (derived parameters are cheap to recompute).
  // Either way the query leases one of the generation's pooled
  // workspaces: construction blocks while all `pool_capacity` are in
  // flight, which is the backpressure that bounds query-scratch memory
  // under load (a fired `cancel` unblocks the wait). Which workspace
  // runs a query cannot change its scores. The caller's generation
  // lease is what a hot swap can never invalidate.
  std::optional<EngineCore> override_core;
  if (epsilon.has_value()) override_core.emplace(generation.graph(), merged);
  QueryRunner runner(override_core ? *override_core : generation.core(),
                     generation.workspaces(), cancel);
  const double cpu_start = ThreadCpuSeconds();
  SIMPUSH_RETURN_NOT_OK(runner.QueryInto(u, result));
  AccumulateEngineTotals(ThreadCpuSeconds() - cpu_start, result->stats);
  // Best-effort: a rejected insert (budget, admission duel, injected
  // failure) just means this computed answer is served uncached.
  if (cache != nullptr) cache->Insert(u, fingerprint, *result);
  return false;
}

Status SimPushService::RunQuery(std::string_view graph_name, NodeId u,
                                SimPushResult* result) {
  auto lease = registry_.Lease(graph_name);
  if (!lease.ok()) return lease.status();
  return RunSingleSource(**lease, u, std::nullopt, nullptr, result).status();
}

Status SimPushService::RunQuery(NodeId u, SimPushResult* result) {
  return RunQuery(options_.default_graph, u, result);
}

void SimPushService::AccumulateEngineTotals(double cpu_seconds,
                                            const SimPushQueryStats& stats) {
  engine_query_nanos_.fetch_add(static_cast<uint64_t>(cpu_seconds * 1e9));
  engine_walks_.fetch_add(stats.walks_sampled);
}

StatusOr<GenerationLease> SimPushService::LeaseFor(const JsonValue& doc,
                                                   std::string* name_out) {
  std::string_view name = options_.default_graph;
  if (const JsonValue* field = doc.Find("graph")) {
    if (!field->is_string()) {
      return Status::InvalidArgument("\"graph\" must be a string");
    }
    name = field->string_value();
  }
  if (name_out != nullptr) *name_out = name;
  return registry_.Lease(name);
}

HttpResponse SimPushService::HandleQuery(const HttpRequest& request) {
  return ServeQuery(Endpoint::kQuery, request);
}

HttpResponse SimPushService::HandleTopK(const HttpRequest& request) {
  return ServeQuery(Endpoint::kTopK, request);
}

HttpResponse SimPushService::HandleBatch(const HttpRequest& request) {
  return ServeQuery(Endpoint::kBatch, request);
}

HttpResponse SimPushService::ServeQuery(Endpoint endpoint,
                                        const HttpRequest& request) {
  Timer wall;
  JsonWriter writer;
  QueryRequest query;
  query.endpoint = endpoint;
  if (const MaybeError error = ParseQueryRequest(request.body, &query)) {
    return Finish(error, &writer);
  }
  // Token before guard: the guard must die first (it unregisters the
  // raw token pointer from the watcher's poll set).
  CancelToken token(Deadline::After(query.deadline_ms));
  const auto watch = watcher_.Watch(request.client_fd, &token);
  const auto metrics = FindMetrics(query.graph_name);

  const Status status = endpoint == Endpoint::kBatch
                            ? ExecuteBatch(query, &token, &writer)
                            : ExecuteSingle(query, &token, &writer);

  // kCancelled beats kDeadlineExceeded in CancelToken::Check, so a
  // request that was BOTH late and abandoned counts as abandoned — the
  // 499 is best-effort (nobody is reading it), but the counter is the
  // operator's signal that clients are hanging up, not timing out.
  const bool abandoned = status.code() == StatusCode::kCancelled;
  if (abandoned || status.code() == StatusCode::kDeadlineExceeded) {
    (abandoned ? client_abandoned_ : deadline_expired_).fetch_add(1);
    if (metrics != nullptr) {
      (abandoned ? metrics->client_abandoned : metrics->deadline_expired)
          .fetch_add(1);
    }
    WriteTimeout(&writer,
                 abandoned ? "client closed request" : "deadline exceeded",
                 wall.ElapsedSeconds() * 1e3, query.deadline_ms,
                 query.graph_name, query.lease->id());
    return Finish(std::nullopt, &writer, abandoned ? 499 : 504);
  }
  if (!status.ok()) return Finish(HttpError{400, status.message()}, &writer);
  (endpoint == Endpoint::kQuery  ? query_requests_
   : endpoint == Endpoint::kTopK ? topk_requests_
                                 : batch_requests_)
      .fetch_add(1);
  nodes_scored_.fetch_add(query.nodes.size());
  if (metrics != nullptr) {
    metrics->requests.fetch_add(1);
    metrics->nodes_scored.fetch_add(query.nodes.size());
  }
  HttpResponse response = Finish(std::nullopt, &writer);
  RecordLatency(metrics, wall.ElapsedSeconds());
  return response;
}

// Checks run in a fixed order — body, node(s), k, tenant, node range,
// with_stats, deadline, ε — so the first fault in a request decides its
// status and message (serve_test's golden reject table pins it).
SimPushService::MaybeError SimPushService::ParseQueryRequest(
    const std::string& body, QueryRequest* query) {
  const auto doc = ParseObject(body);
  if (!doc.ok()) return HttpError{400, doc.status().message()};
  const bool batch = query->endpoint == Endpoint::kBatch;
  const JsonValue* nodes = doc->Find("nodes");
  if (batch && (nodes == nullptr || !nodes->is_array())) {
    return HttpError{400, "missing \"nodes\" array"};
  }
  if (batch && nodes->array_items().size() > options_.max_batch_nodes) {
    return HttpError{413, "batch exceeds max_batch_nodes (" +
                              std::to_string(options_.max_batch_nodes) +
                              ")"};
  }
  uint64_t node = 0;
  if (!batch) {
    const auto required = RequireIndex(*doc, "node");
    if (!required.ok()) return HttpError{400, required.status().message()};
    node = *required;
  }
  // /v1/query sends the full score vector unless "top_k" asks for a
  // prefix; the top-k endpoints default to k = 10.
  const auto k = query->endpoint == Endpoint::kQuery
                     ? OptionalIndex(*doc, "top_k", 0)
                     : OptionalIndex(*doc, "k", 10);
  if (!k.ok()) return HttpError{400, k.status().message()};
  query->k = *k;
  auto lease = LeaseFor(*doc, &query->graph_name);
  if (!lease.ok()) {
    return HttpError::FromRegistry(lease.status());
  }
  query->lease = *std::move(lease);
  const uint64_t n = query->lease->graph().num_nodes();
  if (batch) {
    query->nodes.reserve(nodes->array_items().size());
    for (const JsonValue& item : nodes->array_items()) {
      const auto id = item.AsIndex();
      if (!id.ok() || *id >= n) {
        return HttpError{400, "\"nodes\" entries must be node ids in [0, " +
                                  std::to_string(n) + ")"};
      }
      query->nodes.push_back(static_cast<NodeId>(*id));
    }
  } else if (node >= n) {
    // Range-check before narrowing to NodeId — a 64-bit id must not
    // wrap into a valid node and silently answer for the wrong vertex.
    return HttpError{400, "node " + std::to_string(node) +
                              " out of range [0, " + std::to_string(n) +
                              ")"};
  } else {
    query->nodes.push_back(static_cast<NodeId>(node));
  }
  if (query->endpoint == Endpoint::kQuery) {
    const auto with_stats = OptionalBool(*doc, "with_stats");
    if (!with_stats.ok()) {
      return HttpError{400, with_stats.status().message()};
    }
    query->with_stats = *with_stats;
  }
  const auto deadline_ms = ReadDeadlineMs(*doc, options_);
  if (!deadline_ms.ok()) return HttpError{400, deadline_ms.status().message()};
  query->deadline_ms = *deadline_ms;
  if (batch) return std::nullopt;  // /v1/batch runs at the tenant's ε.
  const auto epsilon = ReadEpsilonOverride(*doc, options_.min_request_epsilon);
  if (!epsilon.ok()) return HttpError{400, epsilon.status().message()};
  query->epsilon = *epsilon;
  return std::nullopt;
}

Status SimPushService::ExecuteSingle(const QueryRequest& query,
                                     const CancelToken* cancel,
                                     JsonWriter* writer) {
  // Reused per HTTP worker thread: after warm-up the full-vector query
  // path below performs zero heap allocations (see serve_test's
  // alloc-hook check). A top-k answer allocates in SelectTopK (its
  // candidate list and the k entries), and an override request builds
  // a throwaway core for its ε (see RunSingleSource).
  static thread_local SimPushResult result;
  const GraphGeneration& generation = *query.lease;
  const NodeId u = query.nodes[0];
  const StatusOr<bool> cached =
      RunSingleSource(generation, u, query.epsilon, cancel, &result);
  if (!cached.ok()) return cached.status();

  writer->BeginObject();
  writer->Key("node");
  writer->Uint(u);
  writer->Key("graph");
  writer->String(query.graph_name);
  writer->Key("generation");
  writer->Uint(generation.id());
  // The ε that actually produced these scores: request override >
  // tenant options (never the process-wide default).
  writer->Key("epsilon");
  writer->Double(query.epsilon.value_or(generation.core().options().epsilon));
  // Stamped only when served from the result cache; the scores are
  // byte-identical to a computed response either way.
  if (*cached) {
    writer->Key("cached");
    writer->Bool(true);
  }
  const bool topk = query.endpoint == Endpoint::kTopK;
  if (topk) {
    writer->Key("k");
    writer->Uint(query.k);
  }
  if (topk || query.k > 0) {
    writer->Key("top");
    WriteTopEntries(writer, SelectTopK(result.scores, u, query.k));
  } else {
    writer->Key("scores");
    writer->BeginArray();
    for (const double score : result.scores) writer->Double(score);
    writer->EndArray();
  }
  if (query.with_stats) {
    writer->Key("stats");
    WriteQueryStats(writer, result.stats);
  }
  writer->EndObject();
  return Status::OK();
}

Status SimPushService::ExecuteBatch(const QueryRequest& query,
                                    const CancelToken* cancel,
                                    JsonWriter* writer) {
  const std::vector<NodeId>& nodes = query.nodes;
  // Deduplicate repeated sources: each distinct node is scored once
  // and its result fanned back to every position that asked for it —
  // sound for the same reason the cache is (scores are a pure function
  // of (generation, options, node)). slot[i] maps input position i to
  // its entry in unique_nodes, which preserves first-occurrence order.
  std::vector<NodeId> unique_nodes;
  std::vector<size_t> slot(nodes.size());
  {
    std::unordered_map<NodeId, size_t> first_index;
    first_index.reserve(nodes.size());
    unique_nodes.reserve(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      const auto [it, inserted] =
          first_index.emplace(nodes[i], unique_nodes.size());
      if (inserted) unique_nodes.push_back(nodes[i]);
      slot[i] = it->second;
    }
  }

  // Fan the distinct sources out across the registry's shared thread
  // pool. Each one runs the single-source path — cache Get, pooled
  // run, best-effort Insert, engine totals — so a batch reads and
  // fills the same cache entries as /v1/query and /v1/topk. The lease
  // pins the generation for the whole fan-out, so every source scores
  // the same graph even if a swap lands mid-batch. A fired token skips
  // the sources not yet started and stops running ones inside their
  // push loops.
  const GraphGeneration& generation = *query.lease;
  std::vector<std::vector<TopKEntry>> tops(unique_nodes.size());
  Mutex error_mu;
  Status error;  // Guarded by error_mu (locals cannot be annotated).
  Timer wall;
  ParallelFor(registry_.thread_pool(), 0, unique_nodes.size(),
              [&](size_t i) {
                if (ShouldStop(cancel)) return;
                const NodeId u = unique_nodes[i];
                SimPushResult result;
                const StatusOr<bool> cached = RunSingleSource(
                    generation, u, std::nullopt, cancel, &result);
                if (!cached.ok()) {
                  MutexLock lock(&error_mu);
                  error = cached.status();
                  return;
                }
                tops[i] = SelectTopK(result.scores, u, query.k);
              });
  const double wall_ms = wall.ElapsedSeconds() * 1e3;
  // A fired token wins over a source's error: the batch answers with
  // the deadline or disconnect, never with a partial result.
  if (cancel != nullptr) SIMPUSH_RETURN_NOT_OK(cancel->Check());
  SIMPUSH_RETURN_NOT_OK(error);

  writer->BeginObject();
  writer->Key("graph");
  writer->String(query.graph_name);
  writer->Key("generation");
  writer->Uint(query.lease->id());
  writer->Key("k");
  writer->Uint(query.k);
  writer->Key("wall_ms");
  writer->Double(wall_ms);
  // How much the dedup saved is visible per response: M ≤ N distinct
  // sources were actually scored for the N requested positions.
  writer->Key("nodes");
  writer->Uint(nodes.size());
  writer->Key("unique_nodes");
  writer->Uint(unique_nodes.size());
  writer->Key("results");
  writer->BeginArray();
  for (size_t i = 0; i < nodes.size(); ++i) {
    writer->BeginObject();
    writer->Key("node");
    writer->Uint(nodes[i]);
    writer->Key("top");
    WriteTopEntries(writer, tops[slot[i]]);
    writer->EndObject();
  }
  writer->EndArray();
  writer->EndObject();
  return Status::OK();
}

HttpResponse SimPushService::Finish(const MaybeError& error,
                                    JsonWriter* writer, int status) {
  if (error.has_value()) {
    bad_requests_.fetch_add(1);
    status = error->status;
    writer->Reset();
    writer->BeginObject();
    writer->Key("error");
    writer->String(error->message);
    writer->EndObject();
  }
  HttpResponse response;
  response.status = status;
  response.body = writer->Take();
  response.body.push_back('\n');
  return response;
}

void SimPushService::WriteTenantSection(JsonWriter* writer,
                                        const std::string& name) {
  auto stats = registry_.Stats(name);
  writer->BeginObject();
  if (stats.ok()) {
    writer->Key("generation");
    writer->Uint(stats->generation);
    // THIS tenant's effective engine options (not the process-wide
    // defaults) and the generation they took effect in.
    writer->Key("options");
    WriteEngineOptions(writer, stats->options);
    writer->Key("options_generation");
    writer->Uint(stats->options_generation);
    writer->Key("swap_count");
    writer->Uint(stats->swap_count);
    // Delta-publish observability: how many swaps took the incremental
    // path, how long the last publish took, and the dirty-row cost the
    // next one will pay.
    writer->Key("delta_swaps");
    writer->Uint(stats->delta_swaps);
    writer->Key("last_swap_ms");
    writer->Double(stats->last_swap_ms);
    writer->Key("dirty_vertices");
    writer->Uint(stats->dirty_vertices);
    writer->Key("pending_updates");
    writer->Uint(stats->pending_updates);
    writer->Key("updates_applied");
    writer->Uint(stats->updates_applied);
    writer->Key("nodes");
    writer->Uint(stats->num_nodes);
    writer->Key("edges");
    writer->Uint(stats->num_edges);
    writer->Key("master_edges");
    writer->Uint(stats->master_edges);
    WritePoolGauges(writer, *stats);
    // Result-cache stats: counters are tenant-lifetime (they survive
    // swaps), occupancy is the current generation's cache.
    writer->Key("cache");
    writer->BeginObject();
    writer->Key("enabled");
    writer->Bool(stats->cache_budget_bytes > 0);
    writer->Key("budget_bytes");
    writer->Uint(stats->cache_budget_bytes);
    writer->Key("bytes");
    writer->Uint(stats->cache_bytes);
    writer->Key("entries");
    writer->Uint(stats->cache_entries);
    writer->Key("hits");
    writer->Uint(stats->cache_hits);
    writer->Key("misses");
    writer->Uint(stats->cache_misses);
    writer->Key("inserts");
    writer->Uint(stats->cache_inserts);
    writer->Key("evictions");
    writer->Uint(stats->cache_evictions);
    writer->Key("admission_rejects");
    writer->Uint(stats->cache_admission_rejects);
    writer->Key("oversize_rejects");
    writer->Uint(stats->cache_oversize_rejects);
    writer->Key("insert_failures");
    writer->Uint(stats->cache_insert_failures);
    writer->EndObject();
  }
  if (const auto metrics = FindMetrics(name)) {
    writer->Key("requests");
    writer->Uint(metrics->requests.load());
    writer->Key("nodes_scored");
    writer->Uint(metrics->nodes_scored.load());
    writer->Key("deadline_expired");
    writer->Uint(metrics->deadline_expired.load());
    writer->Key("client_abandoned");
    writer->Uint(metrics->client_abandoned.load());
    writer->Key("latency_ms");
    WriteLatency(writer, metrics->latency.Snapshot());
  }
  writer->EndObject();
}

HttpResponse SimPushService::HandleStats(const HttpRequest&) {
  const uint64_t query = query_requests_.load();
  const uint64_t topk = topk_requests_.load();
  const uint64_t batch = batch_requests_.load();
  const double uptime = uptime_.ElapsedSeconds();
  const LatencySnapshot latency = Latencies();

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("uptime_seconds");
  writer.Double(uptime);
  // Compatibility sections for the single-graph shape: the default
  // tenant's graph and pool, when it exists.
  if (auto stats = registry_.Stats(options_.default_graph); stats.ok()) {
    writer.Key("graph");
    writer.BeginObject();
    writer.Key("nodes");
    writer.Uint(stats->num_nodes);
    writer.Key("edges");
    writer.Uint(stats->num_edges);
    writer.EndObject();
    WritePoolGauges(&writer, *stats);
  }
  // Process-wide DEFAULTS for tenants created without "options" — each
  // tenant's effective knobs live in its own section under "graphs".
  writer.Key("options");
  writer.BeginObject();
  WriteEngineOptionFields(&writer, options_.query);
  writer.Key("min_request_epsilon");
  writer.Double(options_.min_request_epsilon);
  writer.Key("swap_threshold");
  writer.Uint(options_.swap_threshold);
  writer.Key("default_graph");
  writer.String(options_.default_graph);
  writer.EndObject();
  if (const Status startup = startup_status(); !startup.ok()) {
    writer.Key("startup_error");
    writer.String(startup.ToString());
  }
  writer.Key("requests");
  writer.BeginObject();
  writer.Key("query");
  writer.Uint(query);
  writer.Key("topk");
  writer.Uint(topk);
  writer.Key("batch");
  writer.Uint(batch);
  writer.Key("admin");
  writer.Uint(admin_requests_.load());
  writer.Key("bad");
  writer.Uint(bad_requests_.load());
  writer.Key("deadline_expired");
  writer.Uint(deadline_expired_.load());
  writer.Key("client_abandoned");
  writer.Uint(client_abandoned_.load());
  writer.Key("nodes_scored");
  writer.Uint(nodes_scored_.load());
  writer.EndObject();
  writer.Key("qps");
  writer.Double(uptime > 0 ? (query + topk + batch) / uptime : 0);
  writer.Key("latency_ms");
  WriteLatency(&writer, latency);
  // Per-tenant sections: generation id, pending updates, swap counts,
  // per-tenant latency rings.
  writer.Key("graphs");
  writer.BeginObject();
  for (const std::string& name : registry_.Names()) {
    writer.Key(name);
    WriteTenantSection(&writer, name);
  }
  writer.EndObject();
  writer.Key("live_generations");
  writer.Uint(static_cast<uint64_t>(
      std::max<int64_t>(0, registry_.live_generations())));
  writer.Key("engine");
  writer.BeginObject();
  writer.Key("cpu_query_seconds");
  writer.Double(engine_query_nanos_.load() / 1e9);
  writer.Key("walks_sampled");
  writer.Uint(engine_walks_.load());
  writer.EndObject();
  writer.Key("threads");
  writer.Uint(registry_.num_threads());
  if (server_ != nullptr) {
    const HttpServerCounters counters = server_->counters();
    writer.Key("http");
    writer.BeginObject();
    writer.Key("accepted");
    writer.Uint(counters.accepted);
    writer.Key("rejected_503");
    writer.Uint(counters.rejected_503);
    writer.Key("requests");
    writer.Uint(counters.requests);
    writer.Key("queue_depth");
    writer.Uint(server_->queue_depth());
    writer.EndObject();
  }
  writer.Key("memory");
  writer.BeginObject();
  writer.Key("peak_rss_bytes");
  writer.Uint(PeakRssBytes());
  writer.Key("current_rss_bytes");
  writer.Uint(CurrentRssBytes());
  writer.EndObject();
  writer.EndObject();

  return Finish(std::nullopt, &writer);
}

HttpResponse SimPushService::HandleHealth(const HttpRequest&) {
  // A failed default-graph install must fail the liveness probe: a
  // server whose configured graph never loaded should be restarted (or
  // repaired over /v1/graphs), not kept in a load balancer rotation.
  const Status startup = startup_status();
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("status");
  writer.String(startup.ok() ? "ok" : "unavailable");
  if (!startup.ok()) {
    writer.Key("error");
    writer.String(startup.ToString());
  }
  writer.EndObject();
  return Finish(std::nullopt, &writer, startup.ok() ? 200 : 503);
}

HttpResponse SimPushService::HandleGraphList(const HttpRequest&) {
  admin_requests_.fetch_add(1);
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("graphs");
  writer.BeginArray();
  for (const std::string& name : registry_.Names()) {
    auto stats = registry_.Stats(name);
    if (!stats.ok()) continue;  // Raced with a DELETE.
    writer.BeginObject();
    writer.Key("name");
    writer.String(name);
    writer.Key("generation");
    writer.Uint(stats->generation);
    writer.Key("nodes");
    writer.Uint(stats->num_nodes);
    writer.Key("edges");
    writer.Uint(stats->num_edges);
    writer.Key("pending_updates");
    writer.Uint(stats->pending_updates);
    writer.Key("swap_count");
    writer.Uint(stats->swap_count);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("default_graph");
  writer.String(options_.default_graph);
  writer.EndObject();

  return Finish(std::nullopt, &writer);
}

HttpResponse SimPushService::HandleGraphCreate(const HttpRequest& request) {
  admin_requests_.fetch_add(1);
  JsonWriter writer;
  const MaybeError error = CreateGraph(request, &writer);
  return Finish(error, &writer, 201);
}

SimPushService::MaybeError SimPushService::CreateGraph(
    const HttpRequest& request, JsonWriter* writer) {
  const auto doc = ParseObject(request.body);
  if (!doc.ok()) return HttpError{400, doc.status().message()};
  const JsonValue* name_field = doc->Find("name");
  if (name_field == nullptr || !name_field->is_string()) {
    return HttpError{400, "missing \"name\" string field"};
  }
  const std::string& name = name_field->string_value();
  if (!IsValidGraphName(name)) return HttpError{400, kGraphNameRule};
  // Per-tenant engine options: unspecified fields inherit the process
  // defaults; validation failures 400 before any graph is built.
  SimPushOptions tenant_options = options_.query;
  if (const Status parsed = ReadTenantOptions(
          *doc, options_.min_request_epsilon, &tenant_options);
      !parsed.ok()) {
    return HttpError{400, parsed.message()};
  }

  const JsonValue* path_field = doc->Find("path");
  const JsonValue* edges_field = doc->Find("edges");
  StatusOr<Graph> graph = Status::InvalidArgument(
      "provide either \"path\" (edge list or .spg) or \"nodes\"+\"edges\"");
  if (path_field != nullptr && path_field->is_string()) {
    if (!options_.allow_path_create) {
      return HttpError{403,
                       "path-based graph creation is disabled (start with "
                       "--allow-path-create 1, or send inline edges)"};
    }
    const auto undirected = OptionalBool(*doc, "undirected");
    if (!undirected.ok()) return HttpError{400, undirected.status().message()};
    EdgeListOptions load_options;
    load_options.undirected = *undirected;
    graph = LoadGraphAnyFormat(path_field->string_value(), load_options);
  } else if (edges_field != nullptr) {
    auto nodes = RequireIndex(*doc, "nodes");
    if (!nodes.ok() || *nodes >= kInvalidNode) {
      return HttpError{400, "inline graphs need a \"nodes\" count"};
    }
    if (*nodes > options_.max_inline_nodes) {
      return HttpError{413, "inline graph exceeds max_inline_nodes (" +
                                std::to_string(options_.max_inline_nodes) +
                                "); load large graphs via \"path\""};
    }
    std::vector<EdgeUpdate> edges;
    const Status parsed =
        ReadEdgePairs(edges_field, EdgeUpdate::Kind::kInsert, &edges);
    if (!parsed.ok()) return HttpError{400, parsed.message()};
    GraphBuilder builder(static_cast<NodeId>(*nodes));
    for (const EdgeUpdate& edge : edges) builder.AddEdge(edge.src, edge.dst);
    graph = std::move(builder).Build(/*dedupe=*/false);
  }
  if (!graph.ok()) return HttpError{400, graph.status().ToString()};

  const Status added = AddGraph(name, *std::move(graph), tenant_options);
  if (!added.ok()) return HttpError::FromRegistry(added);
  auto stats = registry_.Stats(name);

  writer->BeginObject();
  writer->Key("graph");
  writer->String(name);
  if (stats.ok()) {
    writer->Key("generation");
    writer->Uint(stats->generation);
    writer->Key("nodes");
    writer->Uint(stats->num_nodes);
    writer->Key("edges");
    writer->Uint(stats->num_edges);
  }
  // Echo the effective engine options so a client can confirm what the
  // tenant will actually run with (defaults merged in).
  writer->Key("options");
  WriteEngineOptions(writer, tenant_options);
  writer->EndObject();
  return std::nullopt;
}

HttpResponse SimPushService::HandleGraphOp(const HttpRequest& request) {
  admin_requests_.fetch_add(1);
  JsonWriter writer;
  const MaybeError error = ApplyGraphOp(request, &writer);
  return Finish(error, &writer);
}

SimPushService::MaybeError SimPushService::ApplyGraphOp(
    const HttpRequest& request, JsonWriter* writer) {
  // Target shape: /v1/graphs/{name}[/edges|/swap|/options].
  constexpr std::string_view kPrefix = "/v1/graphs/";
  std::string_view rest(request.target);
  rest.remove_prefix(kPrefix.size());
  const size_t slash = rest.find('/');
  const std::string_view name = rest.substr(0, slash);
  const std::string_view op =
      slash == std::string_view::npos ? std::string_view() : rest.substr(slash + 1);
  if (!IsValidGraphName(name)) return HttpError{400, kGraphNameRule};

  if (op.empty()) {
    if (request.method == "GET") {
      if (auto stats = registry_.Stats(name); !stats.ok()) {
        return HttpError::FromRegistry(stats.status());
      }
      writer->BeginObject();
      writer->Key("graph");
      writer->String(name);
      writer->Key("stats");
      WriteTenantSection(writer, std::string(name));
      writer->EndObject();
      return std::nullopt;
    }
    if (request.method == "DELETE") {
      const Status removed = RemoveGraph(name);
      if (!removed.ok()) {
        return HttpError::FromRegistry(removed);
      }
      writer->BeginObject();
      writer->Key("graph");
      writer->String(name);
      writer->Key("deleted");
      writer->Bool(true);
      writer->EndObject();
      return std::nullopt;
    }
    return HttpError{405, "method not allowed"};
  }

  if (op == "swap" || op == "edges") {
    if (request.method != "POST") return HttpError{405, "method not allowed"};
    StatusOr<UpdateOutcome> outcome =
        Status::InvalidArgument("unreachable");
    if (op == "swap") {
      outcome = registry_.Swap(name);
    } else {
      const auto doc = ParseObject(request.body);
      if (!doc.ok()) return HttpError{400, doc.status().message()};
      std::vector<EdgeUpdate> updates;
      Status parsed =
          ReadEdgePairs(doc->Find("add"), EdgeUpdate::Kind::kInsert, &updates);
      if (parsed.ok()) {
        parsed = ReadEdgePairs(doc->Find("remove"), EdgeUpdate::Kind::kDelete,
                               &updates);
      }
      if (!parsed.ok()) return HttpError{400, parsed.message()};
      if (updates.empty()) {
        return HttpError{400,
                         "provide \"add\" and/or \"remove\" [src,dst] lists"};
      }
      if (updates.size() > options_.max_update_edges) {
        return HttpError{413, "update exceeds max_update_edges (" +
                                  std::to_string(options_.max_update_edges) +
                                  ")"};
      }
      const auto swap = OptionalBool(*doc, "swap");
      if (!swap.ok()) return HttpError{400, swap.status().message()};
      outcome = registry_.ApplyUpdates(name, updates, *swap);
    }
    if (!outcome.ok()) {
      return HttpError::FromRegistry(outcome.status());
    }
    writer->BeginObject();
    writer->Key("graph");
    writer->String(name);
    writer->Key("applied");
    writer->Uint(outcome->applied);
    writer->Key("pending");
    writer->Uint(outcome->pending);
    writer->Key("swapped");
    writer->Bool(outcome->swapped);
    writer->Key("generation");
    writer->Uint(outcome->generation);
    writer->EndObject();
    return std::nullopt;
  }

  if (op == "options") {
    if (request.method != "PATCH") return HttpError{405, "method not allowed"};
    const auto doc = ParseObject(request.body);
    if (!doc.ok()) return HttpError{400, doc.status().message()};
    // REPLACE semantics against the process defaults — the same merge
    // and network bounds as POST /v1/graphs "options", so a field the
    // request omits reverts to the operator default rather than
    // sticking at whatever the tenant ran with before. Predictable
    // beats sticky for a knob any client can set.
    SimPushOptions tenant_options = options_.query;
    if (const Status parsed = ReadTenantOptions(
            *doc, options_.min_request_epsilon, &tenant_options);
        !parsed.ok()) {
      return HttpError{400, parsed.message()};
    }
    if (doc->Find("options") == nullptr) {
      return HttpError{400, "missing \"options\" object"};
    }
    auto outcome = registry_.UpdateOptions(name, tenant_options);
    if (!outcome.ok()) {
      return HttpError::FromRegistry(outcome.status());
    }
    writer->BeginObject();
    writer->Key("graph");
    writer->String(name);
    // Echo the effective (merged) options, as the create endpoint does.
    writer->Key("options");
    WriteEngineOptions(writer, tenant_options);
    writer->Key("swapped");
    writer->Bool(outcome->swapped);
    writer->Key("pending");
    writer->Uint(outcome->pending);
    writer->Key("generation");
    writer->Uint(outcome->generation);
    writer->EndObject();
    return std::nullopt;
  }

  return HttpError{404, "unknown graph operation \"" + std::string(op) +
                            "\" (expected edges|swap|options)"};
}


void SimPushService::LatencyRing::Record(double seconds) {
  MutexLock lock(&mu);
  ring[next] = seconds;
  next = (next + 1) % ring.size();
  filled = std::min(filled + 1, ring.size());
}

LatencySnapshot SimPushService::LatencyRing::Snapshot() const {
  std::vector<double> sorted;
  {
    MutexLock lock(&mu);
    sorted.assign(ring.begin(), ring.begin() + filled);
  }
  LatencySnapshot snapshot;
  snapshot.samples = sorted.size();
  if (sorted.empty()) return snapshot;
  std::sort(sorted.begin(), sorted.end());
  const auto percentile = [&sorted](double p) {
    const size_t index = static_cast<size_t>(p * (sorted.size() - 1));
    return sorted[index] * 1e3;
  };
  snapshot.p50_ms = percentile(0.50);
  snapshot.p90_ms = percentile(0.90);
  snapshot.p99_ms = percentile(0.99);
  snapshot.max_ms = sorted.back() * 1e3;
  return snapshot;
}

void SimPushService::RecordLatency(
    const std::shared_ptr<TenantMetrics>& metrics, double seconds) {
  latency_.Record(seconds);
  if (metrics != nullptr) metrics->latency.Record(seconds);
}

LatencySnapshot SimPushService::Latencies() const {
  return latency_.Snapshot();
}

// ---------------------------------------------------------------------------
// Shutdown signal plumbing (used by tools/simpush_serve.cc).
// ---------------------------------------------------------------------------

namespace {
volatile std::sig_atomic_t g_shutdown_requested = 0;
void OnShutdownSignal(int) { g_shutdown_requested = 1; }
}  // namespace

void InstallShutdownSignalHandlers() {
  struct sigaction action{};
  action.sa_handler = OnShutdownSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

bool ShutdownRequested() { return g_shutdown_requested != 0; }

void WaitForShutdownSignal() {
  while (!ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace serve
}  // namespace simpush
