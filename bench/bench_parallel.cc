// Parallel batch throughput bench (extension; the paper's §7 names
// batch SimRank processing as future work).
//
// Measures end-to-end wall time for a fixed batch of single-source
// queries at 1, 2, 4, and 8 worker threads, comparing two pool sizes:
//   pooled        — one shared immutable EngineCore + a WorkspacePool
//                   capped at the worker count (QueryExecutor);
//   pooled-half   — same, pool capped at half the workers: the
//                   memory/parallelism tradeoff only the pool exposes.
// Reported per row: wall time, aggregate and per-worker queries/second,
// speedup over one thread, summed per-query CPU time, and process peak
// RSS (monotone per process — within a thread count the half pool runs
// first so its reading is not inflated by the full pool's).
// Per-query results are bitwise independent of thread count and of
// pool size (seeded per query node), so accuracy columns are omitted —
// only scheduling changes. docs/performance.md has the one-time
// comparison against one full SimPushEngine per worker (parity).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "common/memory.h"
#include "simpush/parallel.h"

namespace simpush {
namespace bench {
namespace {

struct RunRow {
  ParallelBatchStats stats;
  size_t peak_rss = 0;
};

RunRow RunPooled(const Graph& graph, const SimPushOptions& options,
                 const std::vector<NodeId>& queries, size_t num_threads,
                 size_t pool_capacity, size_t* sink) {
  RunRow row;
  QueryExecutor executor(graph, options, num_threads, pool_capacity);
  row.stats = ParallelQueryBatch(
      executor, queries, [sink](NodeId, const SimPushResult& result) {
        *sink += result.scores.size();  // keep results alive to the end
      });
  row.peak_rss = PeakRssBytes();
  return row;
}

// Trajectory collector (active only with --json): one record per
// (dataset, model, thread count), sampled as per-query wall latency
// with throughput/RSS as counters.
std::map<std::string, BenchSamples>* g_trajectory = nullptr;

void PrintRow(const char* model, const RunRow& row, size_t batch,
              double baseline_wall, const std::string& dataset) {
  const double qps = batch / row.stats.wall_seconds;
  double rss = static_cast<double>(row.peak_rss);
  const char* unit = HumanBytesUnit(&rss);
  std::printf("%-14s %-8zu %11.3f %11.1f %14.1f %9.2f %12.3f %9.1f%s\n",
              model, row.stats.num_threads, row.stats.wall_seconds, qps,
              qps / row.stats.num_threads,
              baseline_wall / row.stats.wall_seconds,
              row.stats.cpu_query_seconds, rss, unit);
  if (g_trajectory != nullptr) {
    BenchSamples& samples =
        (*g_trajectory)[dataset + "/" + model + "/threads:" +
                        std::to_string(row.stats.num_threads)];
    samples.per_iter_ms.push_back(row.stats.wall_seconds / batch * 1e3);
    samples.counters["queries_per_s"] = qps;
    samples.counters["wall_s"] = row.stats.wall_seconds;
    samples.counters["cpu_sum_s"] = row.stats.cpu_query_seconds;
    samples.counters["peak_rss_bytes"] = double(row.peak_rss);
  }
}

void RunDataset(const DatasetSpec& spec) {
  Graph graph = MustBuildDataset(spec);
  const size_t batch = QuickMode() ? 8 : 32;
  std::vector<NodeId> queries =
      GenerateQuerySet(graph, batch, spec.seed ^ 0x5eedu);

  SimPushOptions options;
  options.epsilon = 0.02;
  options.walk_budget_cap = 30000;

  std::printf("\n-- %s: batch of %zu single-source queries --\n",
              spec.name.c_str(), queries.size());
  std::printf("%-14s %-8s %11s %11s %14s %9s %12s %10s\n", "model",
              "threads", "wall(s)", "queries/s", "q/s/worker", "speedup",
              "cpu-sum(s)", "peak-rss");

  size_t sink = 0;
  double pooled_baseline = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    // Peak RSS is process-monotone: every reading is a floor inherited
    // from all earlier runs (including previous thread counts), not a
    // per-pool measurement. Running the smaller pool first within a
    // thread count keeps its reading from being inflated by the LARGER
    // pool at the same count — enough to demonstrate the capped pool's
    // bound at the top thread count, not to detect small memory
    // regressions.
    //
    // Half-capacity pool first: same thread count, scratch bounded at
    // O(threads/2 · n).
    RunRow capped = RunPooled(graph, options, queries, threads,
                              std::max<size_t>(1, threads / 2), &sink);
    RunRow pooled =
        RunPooled(graph, options, queries, threads, threads, &sink);
    if (pooled.stats.queries_ok != queries.size()) {
      std::fprintf(stderr, "FATAL: %zu queries failed\n",
                   pooled.stats.queries_failed);
      std::exit(1);
    }
    if (threads == 1) pooled_baseline = pooled.stats.wall_seconds;
    PrintRow("pooled", pooled, queries.size(), pooled_baseline, spec.name);
    PrintRow("pooled-half", capped, queries.size(), pooled_baseline,
             spec.name);
    std::fflush(stdout);
  }
  if (sink == 0) std::printf("(unreachable sink: %zu)\n", sink);
}

}  // namespace
}  // namespace bench
}  // namespace simpush

int main(int argc, char** argv) {
  using namespace simpush;
  using namespace simpush::bench;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  std::map<std::string, BenchSamples> trajectory;
  if (!json_path.empty()) g_trajectory = &trajectory;
  std::printf("== Parallel batch throughput (extension bench) ==\n");
  std::printf(
      "(single-query latency is unchanged; this measures how an "
      "index-free method scales offline batch scoring, and what capping "
      "the workspace pool at half the workers costs)\n");
  for (const DatasetSpec& spec : SmallDatasets()) {
    RunDataset(spec);
  }
  if (!json_path.empty()) {
    if (!WriteTrajectoryJson(json_path, "bench_parallel", trajectory)) {
      return 1;
    }
    std::printf("trajectory written to %s\n", json_path.c_str());
  }
  return 0;
}
