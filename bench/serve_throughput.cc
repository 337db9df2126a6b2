// Service throughput benchmark: N client threads firing a Zipf-skewed query
// stream at (a) the bare model, one EstimateCard call per request — the
// pre-serving deployment — and (b) serve::EstimationService, which coalesces
// the same stream into micro-batches, with the result cache off and on.
//
// Emits BENCH_serve.json in the same schema as BENCH_kernels.json. The gated
// entry is `serve/service_Nt`: its `speedup_vs_ref` is service qps divided by
// the direct-call qps measured in the same process, so the ratio transfers
// across machines and bench/compare_bench.py can apply the usual >25%
// regression rule plus the 2x acceptance floor. The gated entry and its
// `serve/direct_Nt` reference also list every rep's qps as `qps_reps`, so the
// run-to-run spread behind the best-over-best ratio is on record.
//
// Usage:
//   bench_serve_throughput [--out=BENCH_serve.json] [--threads=8]
//                          [--per-thread=300] [--distinct=600] [--zipf=1.0]
//                          [--rows=4000] [--ps-samples=64] [--reps=3]
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/uae.h"
#include "data/synthetic.h"
#include "serve/service.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace uae::bench {
namespace {

struct Options {
  std::string out = "BENCH_serve.json";
  int threads = 8;
  // Workload shape: ~600 distinct queries against 2400 requests puts the
  // cache hit rate near 70%, so the gated service/direct qps ratio blends
  // compute (scales with cores like the baseline) and cache hits (lock/memory
  // bound) — keeping the ratio transferable across host core counts instead
  // of degenerating into a pure cache-throughput measurement.
  int per_thread = 300;   ///< Requests per client thread.
  int distinct = 600;     ///< Distinct queries in the pool.
  double zipf = 1.0;      ///< Skew of the request stream (0 = uniform).
  int rows = 4000;
  int ps_samples = 64;
  int reps = 3;           ///< Timed repetitions; the best (max qps) is kept.
};

/// Runs `client(t)` on `threads` OS threads and waits for all of them.
void RunClients(int threads, const std::function<void(int)>& client) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) workers.emplace_back([&, t] { client(t); });
  for (auto& w : workers) w.join();
}

/// Best-of-reps qps for one serving mode; the timed body is the whole
/// multi-thread client loop. `make_sink` builds the per-rep request sink
/// untimed (fresh service per rep so each rep starts cache-cold).
QpsReps MeasureMode(const Options& opt,
                    const std::vector<std::vector<const workload::Query*>>& streams,
                    const std::function<std::function<void(const workload::Query&)>()>&
                        make_sink) {
  std::function<void(const workload::Query&)> sink;
  return MeasureQps(
      opt.reps, static_cast<double>(opt.threads) * opt.per_thread,
      [&] {
        RunClients(opt.threads, [&](int t) {
          for (const workload::Query* q : streams[static_cast<size_t>(t)]) {
            sink(*q);
          }
        });
      },
      [&] { sink = make_sink(); });
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.out = flags.GetString("out", opt.out);
  opt.threads = std::max<int>(1, static_cast<int>(flags.GetInt("threads", opt.threads)));
  opt.per_thread = std::max<int>(1, static_cast<int>(flags.GetInt("per-thread", opt.per_thread)));
  opt.distinct = std::max<int>(1, static_cast<int>(flags.GetInt("distinct", opt.distinct)));
  opt.zipf = flags.GetDouble("zipf", opt.zipf);
  opt.rows = std::max<int>(100, static_cast<int>(flags.GetInt("rows", opt.rows)));
  opt.ps_samples = std::max<int>(8, static_cast<int>(flags.GetInt("ps-samples", opt.ps_samples)));
  opt.reps = std::max<int>(1, static_cast<int>(flags.GetInt("reps", opt.reps)));

  // Model under service: accuracy is irrelevant here, serving cost is not —
  // keep the architecture at defaults but train only briefly.
  data::Table table = data::TinyCorrelated(static_cast<size_t>(opt.rows), 4);
  core::UaeConfig config;
  config.hidden = 32;
  config.ps_samples = opt.ps_samples;
  config.seed = 3;
  auto model = std::make_shared<core::Uae>(table, config);
  model->TrainDataEpochs(1);

  // Distinct query pool + per-thread Zipf-skewed request streams (the shape
  // of production traffic: a hot head, a long tail). Streams are fixed
  // across modes and reps so every mode answers the identical workload.
  workload::GeneratorConfig gc;
  gc.min_filters = 1;
  gc.max_filters = 3;
  workload::QueryGenerator gen(table, gc, 37);
  std::vector<workload::Query> pool;
  pool.reserve(static_cast<size_t>(opt.distinct));
  for (int i = 0; i < opt.distinct; ++i) pool.push_back(gen.Generate());

  std::vector<std::vector<const workload::Query*>> streams(
      static_cast<size_t>(opt.threads));
  for (int t = 0; t < opt.threads; ++t) {
    util::Rng rng(1000 + static_cast<uint64_t>(t));
    auto& stream = streams[static_cast<size_t>(t)];
    stream.reserve(static_cast<size_t>(opt.per_thread));
    for (int i = 0; i < opt.per_thread; ++i) {
      size_t pick = static_cast<size_t>(
          rng.Zipf(static_cast<int64_t>(pool.size()), opt.zipf));
      stream.push_back(&pool[pick]);
    }
  }

  std::printf("serving %d threads x %d requests (%d distinct, zipf %.2f)\n",
              opt.threads, opt.per_thread, opt.distinct, opt.zipf);

  // (a) Baseline: one-query-per-call EstimateCard straight on the model.
  const QpsReps direct_reps = MeasureMode(opt, streams, [&] {
    return [&](const workload::Query& q) { (void)model->EstimateCard(q); };
  });
  const double direct_qps = direct_reps.best;
  std::printf("  direct          : %8.1f q/s\n", direct_qps);

  // (b) Micro-batching only (cache off) — isolates the coalescing effect.
  const double nocache_qps = MeasureMode(opt, streams, [&] {
    serve::ServiceConfig cfg;
    cfg.cache_enabled = false;
    auto service = std::make_shared<serve::EstimationService>(model, cfg);
    return [service](const workload::Query& q) { (void)service->EstimateCard(q); };
  }).best;
  std::printf("  service (nocache): %7.1f q/s  (%.2fx direct)\n", nocache_qps,
              nocache_qps / direct_qps);

  // (c) The full service: micro-batching + sharded generation-keyed cache.
  const QpsReps service_reps = MeasureMode(opt, streams, [&] {
    auto service = std::make_shared<serve::EstimationService>(model);
    return [service](const workload::Query& q) { (void)service->EstimateCard(q); };
  });
  const double service_qps = service_reps.best;
  std::printf("  service (cache) : %8.1f q/s  (%.2fx direct)\n", service_qps,
              service_qps / direct_qps);

  Report report({{"threads", opt.threads},
                 {"per_thread", opt.per_thread},
                 {"distinct", opt.distinct},
                 {"zipf", opt.zipf},
                 {"rows", opt.rows},
                 {"ps_samples", opt.ps_samples},
                 {"reps", opt.reps}});
  const std::string threads = std::to_string(opt.threads);
  report.Add("serve/direct_" + threads + "t", {{"ns_per_op", 1e9 / direct_qps},
                                       {"qps", direct_qps},
                                       {"qps_reps", direct_reps.reps}});
  report.Add("serve/service_nocache_" + threads + "t",
             {{"ns_per_op", 1e9 / nocache_qps}, {"qps", nocache_qps}});
  report.Add("serve/service_" + threads + "t", {{"ns_per_op", 1e9 / service_qps},
                                        {"qps", service_qps},
                                        {"speedup_vs_ref", service_qps / direct_qps},
                                        {"qps_reps", service_reps.reps}});
  return report.Write(opt.out) ? 0 : 1;
}

}  // namespace
}  // namespace uae::bench

int main(int argc, char** argv) { return uae::bench::Run(argc, argv); }
