// Sharded-estimation scale benchmark: measures what horizontal partitioning
// buys over the monolithic model on the same table.
//
//  * shard/train_parallel — wall time (`seconds`) of training N per-shard
//    models (fanned across the global pool); the config block carries the
//    monolithic time and the speedup over it, same epochs. Informational
//    (ungated): on a 1-core host the speedup sits near 1x — the FLOPs are the
//    same — and grows with cores.
//  * shard/prune_speedup — GATED: estimate throughput on a partition-targeted
//    workload with shard pruning on vs off, same trained models. Pruning is a
//    compute reduction (skip provably-disjoint shards), not parallelism, so
//    the ratio transfers across host core counts; the CI gate applies the
//    usual >25% regression rule plus the 2x acceptance floor.
//
// Also prints median q-error for monolithic / pruned / unpruned so accuracy
// is visible next to the throughput (pruning removes the spurious mass
// off-target shards would contribute, so it helps accuracy too).
//
// Emits BENCH_shard.json in the BENCH_kernels.json schema. The gated entry
// and its `shard/unpruned_Ns` reference also list every rep's qps as
// `qps_reps`, so the run-to-run spread behind the best-over-best ratio is on
// record.
//
// Usage:
//   bench_shard_scale [--out=BENCH_shard.json] [--rows=20000] [--shards=8]
//                     [--epochs=2] [--queries=192] [--reps=3] [--ps=64]
//                     [--hidden=32] [--volume=0.02] [--seed=5]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/uae.h"
#include "data/synthetic.h"
#include "shard/sharded_uae.h"
#include "util/quantiles.h"
#include "util/stopwatch.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae::bench {
namespace {

struct Options {
  std::string out = "BENCH_shard.json";
  size_t rows = 20000;
  int shards = 8;
  int epochs = 2;
  int queries = 192;   ///< Partition-targeted workload size.
  int reps = 3;        ///< Timed repetitions; best qps kept.
  int ps_samples = 64;
  int hidden = 32;
  double volume = 0.02;  ///< Bounded-range width as a domain fraction.
  uint64_t seed = 5;
};

double MedianQError(const std::vector<double>& est,
                    const std::vector<int64_t>& truth) {
  std::vector<double> errors;
  errors.reserve(est.size());
  for (size_t i = 0; i < est.size(); ++i) {
    errors.push_back(workload::QError(est[i], static_cast<double>(truth[i])));
  }
  return util::Quantile(std::move(errors), 0.5);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.out = flags.GetString("out", opt.out);
  opt.rows = static_cast<size_t>(flags.GetInt("rows", static_cast<int64_t>(opt.rows)));
  opt.shards = std::max<int>(2, static_cast<int>(flags.GetInt("shards", opt.shards)));
  opt.epochs = std::max<int>(1, static_cast<int>(flags.GetInt("epochs", opt.epochs)));
  opt.queries = std::max<int>(16, static_cast<int>(flags.GetInt("queries", opt.queries)));
  opt.reps = std::max<int>(1, static_cast<int>(flags.GetInt("reps", opt.reps)));
  opt.ps_samples = std::max<int>(8, static_cast<int>(flags.GetInt("ps", opt.ps_samples)));
  opt.hidden = std::max<int>(8, static_cast<int>(flags.GetInt("hidden", opt.hidden)));
  opt.volume = flags.GetDouble("volume", opt.volume);
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(opt.seed)));

  data::Table table = data::SyntheticDmv(opt.rows, opt.seed);
  const int pcol = table.LargestDomainColumn();
  std::printf("sharding %zu rows on column %d (domain %d) into %d shards\n",
              table.num_rows(), pcol, table.column(pcol).domain(), opt.shards);

  core::UaeConfig base;
  base.hidden = opt.hidden;
  base.ps_samples = opt.ps_samples;
  base.seed = opt.seed + 1;

  // Partition-targeted workload: every query carries a narrow range on the
  // partition column (the generator's bounded attribute), so pruning keeps
  // the fan-out at one or two shards out of N — the workload shape sharding
  // is built for (queries aimed at one partition of a large table).
  workload::GeneratorConfig gc;
  gc.bounded_col = pcol;
  gc.target_volume = opt.volume;
  gc.min_filters = 2;
  gc.max_filters = 4;
  workload::QueryGenerator gen(table, gc, opt.seed + 2);
  std::vector<workload::Query> queries;
  queries.reserve(static_cast<size_t>(opt.queries));
  for (int i = 0; i < opt.queries; ++i) queries.push_back(gen.Generate());
  std::vector<int64_t> truths = workload::ExecuteCounts(table, queries);

  // --- Training: monolithic vs per-shard-parallel ---------------------------
  util::Stopwatch mono_timer;
  core::Uae mono(table, base);
  mono.TrainDataEpochs(opt.epochs);
  const double mono_train_s = mono_timer.ElapsedSeconds();
  std::printf("  monolithic train : %6.1fs\n", mono_train_s);

  shard::ShardedUaeConfig sc;
  sc.base = base;
  sc.partition.num_shards = opt.shards;
  sc.partition.partition_col = pcol;
  util::Stopwatch shard_timer;
  shard::ShardedUae sharded(table, sc);
  sharded.TrainDataEpochs(opt.epochs);
  const double shard_train_s = shard_timer.ElapsedSeconds();
  std::printf("  sharded train    : %6.1fs  (%.2fx monolithic)\n", shard_train_s,
              mono_train_s / shard_train_s);

  // --- Estimate throughput: pruned vs full fan-out --------------------------
  sharded.set_prune(false);
  const double n = static_cast<double>(queries.size());
  std::vector<double> unpruned_cards = sharded.EstimateCards(queries);
  const QpsReps unpruned =
      MeasureQps(opt.reps, n, [&] { (void)sharded.EstimateCards(queries); });
  const double unpruned_qps = unpruned.best;
  sharded.set_prune(true);
  shard::ShardedUae::FanoutStats before = sharded.fanout_stats();
  std::vector<double> pruned_cards = sharded.EstimateCards(queries);
  const QpsReps pruned =
      MeasureQps(opt.reps, n, [&] { (void)sharded.EstimateCards(queries); });
  const double pruned_qps = pruned.best;
  std::vector<double> mono_cards = mono.EstimateCards(queries);

  shard::ShardedUae::FanoutStats fs = sharded.fanout_stats();
  double fanout =
      static_cast<double>(fs.evaluated - before.evaluated) /
      std::max<double>(1.0, static_cast<double>(fs.queries - before.queries));
  std::printf("  unpruned        : %8.1f q/s  (fan-out %d, median q-err %.2f)\n",
              unpruned_qps, opt.shards, MedianQError(unpruned_cards, truths));
  std::printf("  pruned          : %8.1f q/s  (%.2fx unpruned, median q-err %.2f)\n",
              pruned_qps, pruned_qps / unpruned_qps,
              MedianQError(pruned_cards, truths));
  std::printf("  monolithic      :                 (median q-err %.2f)\n",
              MedianQError(mono_cards, truths));
  std::printf("  avg pruned fan-out: %.2f of %d shards\n", fanout, opt.shards);

  Report report({{"rows", opt.rows},
                 {"shards", opt.shards},
                 {"epochs", opt.epochs},
                 {"queries", opt.queries},
                 {"ps_samples", opt.ps_samples},
                 {"hidden", opt.hidden},
                 {"volume", opt.volume},
                 {"reps", opt.reps},
                 {"mono_train_s", mono_train_s},
                 {"train_speedup", mono_train_s / shard_train_s}});
  const std::string shards = std::to_string(opt.shards);
  // The sharded (parallel) training wall time; the monolithic reference and
  // the ratio live in the config block.
  report.Add("shard/train_parallel_" + shards + "s", {{"seconds", shard_train_s}});
  report.Add("shard/unpruned_" + shards + "s", {{"ns_per_op", 1e9 / unpruned_qps},
                                         {"qps", unpruned_qps},
                                         {"qps_reps", unpruned.reps}});
  report.Add("shard/prune_speedup", {{"ns_per_op", 1e9 / pruned_qps},
                                     {"qps", pruned_qps},
                                     {"speedup_vs_ref", pruned_qps / unpruned_qps},
                                     {"qps_reps", pruned.reps}});
  if (!report.Write(opt.out)) return 1;

  // Smoke assertion: pruning must help on a partition-targeted workload —
  // the binary doubles as a nightly health check.
  if (pruned_qps <= unpruned_qps) {
    std::fprintf(stderr, "FAIL: pruning did not improve throughput\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace uae::bench

int main(int argc, char** argv) { return uae::bench::Run(argc, argv); }
