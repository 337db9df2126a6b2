// Wavefront sampler throughput: the per-query progressive sampler (one
// BuildTargets + ProgressiveSample call per query, the pre-wavefront serving
// path) against the batched wavefront plane (EstimateCards: all in-flight
// query x sample lanes advance one column per step through shared trunk
// forwards), plus the int8-quantized backend riding the same wavefront, an
// ungated wave-width sweep, and join sub-plans on the JOB-M-like IMDB star
// (per-query EstimateJoinCard vs batched EstimateJoinCards, informational).
//
// Emits BENCH_wavefront.json in the BENCH_kernels.json schema. The gated
// entry is `wavefront/estimate_throughput`: its `speedup_vs_ref` is wavefront
// qps divided by the per-query qps measured in the same process, so the ratio
// transfers across machines and bench/compare_bench.py applies the usual >25%
// regression rule plus the 5x acceptance floor. Because the wavefront is
// parity-pinned (tests/sampler_conformance_test.cc), the bench also hard-fails
// if the two paths ever disagree bitwise on the measured workload, single-
// table or join.
//
// All aggregation routes through util/quantiles (median over reps) — no local
// quantile code.
//
// Usage:
//   bench_wavefront [--out=BENCH_wavefront.json] [--rows=4000] [--queries=64]
//                   [--ps-samples=512] [--wave-width=8] [--reps=3]
//
// The default sample count (512) is the serving-realistic regime (the paper
// runs progressive sampling with 2000 samples on DMV); prefix deduplication
// makes wavefront cost grow sublinearly in the sample count, which is where
// the gated speedup comes from.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/quant.h"
#include "core/targets.h"
#include "core/uae.h"
#include "core/wavefront.h"
#include "data/imdb_star.h"
#include "data/synthetic.h"
#include "util/mathutil.h"
#include "util/quantiles.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/join_workload.h"

namespace uae::bench {
namespace {

struct Options {
  std::string out = "BENCH_wavefront.json";
  int rows = 4000;
  int queries = 64;
  int ps_samples = 512;
  int wave_width = 8;
  int reps = 3;  ///< Timed repetitions; the median qps is kept.
};

/// Median-of-reps qps for one estimation mode over `n` queries.
double MedianQps(int reps, int n, const std::function<void()>& run) {
  return util::Quantile(MeasureQps(reps, n, run).reps, 0.5);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.out = flags.GetString("out", opt.out);
  opt.rows = std::max<int>(500, static_cast<int>(flags.GetInt("rows", opt.rows)));
  opt.queries = std::max<int>(8, static_cast<int>(flags.GetInt("queries", opt.queries)));
  opt.ps_samples = std::max<int>(8, static_cast<int>(flags.GetInt("ps-samples", opt.ps_samples)));
  opt.wave_width = std::max<int>(1, static_cast<int>(flags.GetInt("wave-width", opt.wave_width)));
  opt.reps = std::max<int>(1, static_cast<int>(flags.GetInt("reps", opt.reps)));

  // Model under measurement: serving cost is what matters, so train briefly.
  data::Table table = data::SyntheticDmv(static_cast<size_t>(opt.rows), 11);
  core::UaeConfig config;
  config.hidden = 32;
  config.ps_samples = opt.ps_samples;
  config.wavefront_width = opt.wave_width;
  config.seed = 7;
  core::Uae uae(table, config);
  uae.TrainDataEpochs(1);

  workload::GeneratorConfig gc;
  gc.min_filters = 1;
  gc.max_filters = 3;
  workload::QueryGenerator gen(table, gc, 37);
  std::vector<workload::Query> queries;
  queries.reserve(static_cast<size_t>(opt.queries));
  for (int i = 0; i < opt.queries; ++i) queries.push_back(gen.Generate());

  std::printf("wavefront bench: %d queries x %d samples, width %d, %d reps\n",
              opt.queries, opt.ps_samples, opt.wave_width, opt.reps);

  // (a) Reference: the per-query progressive sampler, one call per query.
  std::vector<double> per_query_cards(queries.size());
  double legacy_qps = MedianQps(opt.reps, opt.queries, [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      per_query_cards[i] = uae.EstimateCard(queries[i]);
    }
  });
  std::printf("  per-query       : %8.1f q/s\n", legacy_qps);

  // (b) Wavefront: the batched plane behind EstimateCards.
  std::vector<double> wave_cards;
  double wave_qps = MedianQps(opt.reps, opt.queries, [&] {
    wave_cards = uae.EstimateCards(queries);
  });
  std::printf("  wavefront       : %8.1f q/s  (%.2fx per-query)\n", wave_qps,
              wave_qps / legacy_qps);

  // The speedup only counts if the answers are the same answers: the parity
  // contract from the conformance suite, re-checked on the measured workload.
  for (size_t i = 0; i < queries.size(); ++i) {
    if (wave_cards[i] != per_query_cards[i]) {
      std::fprintf(stderr,
                   "PARITY VIOLATION: query %zu wavefront %.17g per-query %.17g\n",
                   i, wave_cards[i], per_query_cards[i]);
      return 1;
    }
  }

  // (c) Quantized backend on the same wavefront (ungated: different numerics).
  core::QuantizedUae quant(uae);
  double quant_qps = MedianQps(opt.reps, opt.queries, [&] {
    (void)quant.EstimateCards(queries);
  });
  std::printf("  wavefront int8  : %8.1f q/s  (%.2fx per-query)\n", quant_qps,
              quant_qps / legacy_qps);

  // (d) Ungated width sweep straight on the frozen backend.
  std::vector<core::QueryTargets> targets;
  targets.reserve(queries.size());
  for (const auto& q : queries) {
    targets.push_back(core::BuildTargets(q, table, uae.schema()));
  }
  auto backend = uae.FrozenBackend();
  Report report({{"rows", opt.rows},
                 {"queries", opt.queries},
                 {"ps_samples", opt.ps_samples},
                 {"wave_width", opt.wave_width},
                 {"reps", opt.reps}});
  auto add_qps = [&report](const std::string& name, double qps) {
    report.Add(name, {{"ns_per_op", 1e9 / qps}, {"qps", qps}});
  };
  const std::string samples = std::to_string(opt.ps_samples);
  add_qps("wavefront/per_query_s" + samples, legacy_qps);
  report.Add("wavefront/estimate_throughput", {{"ns_per_op", 1e9 / wave_qps},
                                               {"qps", wave_qps},
                                               {"speedup_vs_ref", wave_qps / legacy_qps}});
  add_qps("wavefront/quantized_s" + samples, quant_qps);
  for (int width : {1, 8, 32}) {
    double width_qps = MedianQps(opt.reps, opt.queries, [&] {
      std::vector<util::Rng> rngs;
      rngs.reserve(queries.size());
      for (const auto& q : queries) {
        rngs.push_back(util::Rng(util::SplitMix64(
            config.seed ^ util::SplitMix64(q.Fingerprint()))));
      }
      core::WavefrontConfig wc;
      wc.num_samples = opt.ps_samples;
      wc.wave_width = width;
      (void)core::WavefrontSampleSelectivities(*backend, targets, rngs, wc);
    });
    std::printf("  width %-2d        : %8.1f q/s\n", width, width_qps);
    add_qps("wavefront/width_" + std::to_string(width), width_qps);
  }

  // (e) Join sub-plans, as the optimizer asks for them: every sub-plan that
  // keeps the fact table, of focused JOB-M-like queries. Per-query
  // EstimateJoinCard (the cross-check sampler) vs batched EstimateJoinCards
  // (the served path). Informational: no speedup_vs_ref, so no gate.
  constexpr size_t kJoinTitles = 2000;  // Fact-table rows of the universe.
  constexpr int kJoinQueries = 4;       // All their sub-plans are estimated.
  data::ImdbStarConfig star;
  star.num_titles = kJoinTitles;
  star.dims = data::JobMDims();
  const data::JoinUniverse uni = data::BuildImdbStar(star);
  core::Uae join_uae(uni, config);
  join_uae.TrainDataEpochs(1);
  workload::JoinQueryGenerator join_gen(uni, workload::JoinGeneratorConfig{}, 41);
  std::vector<workload::JoinQuery> subplans;
  for (int i = 0; i < kJoinQueries; ++i) {
    const workload::JoinQuery q = join_gen.Generate();
    for (uint32_t sub = 1; sub <= q.table_mask; ++sub) {
      if ((sub & q.table_mask) == sub && (sub & 1u) != 0) {
        subplans.push_back(workload::RestrictToSubset(uni, q, sub));
      }
    }
  }
  const int num_subplans = static_cast<int>(subplans.size());
  std::vector<double> join_per_query(subplans.size());
  const double join_legacy_qps = MedianQps(opt.reps, num_subplans, [&] {
    for (size_t i = 0; i < subplans.size(); ++i) {
      join_per_query[i] = join_uae.EstimateJoinCard(subplans[i]);
    }
  });
  std::vector<double> join_wave;
  const double join_wave_qps = MedianQps(opt.reps, num_subplans, [&] {
    join_wave = join_uae.EstimateJoinCards(subplans);
  });
  std::printf("  join per-query  : %8.1f q/s  (%d sub-plans)\n", join_legacy_qps,
              num_subplans);
  std::printf("  join wavefront  : %8.1f q/s  (%.2fx per-query)\n", join_wave_qps,
              join_wave_qps / join_legacy_qps);
  for (size_t i = 0; i < subplans.size(); ++i) {
    if (join_wave[i] != join_per_query[i]) {
      std::fprintf(stderr,
                   "PARITY VIOLATION: join sub-plan %zu wavefront %.17g per-query %.17g\n",
                   i, join_wave[i], join_per_query[i]);
      return 1;
    }
  }
  add_qps("wavefront/join_per_query", join_legacy_qps);
  add_qps("wavefront/join_estimate_throughput", join_wave_qps);
  return report.Write(opt.out) ? 0 : 1;
}

}  // namespace
}  // namespace uae::bench

int main(int argc, char** argv) { return uae::bench::Run(argc, argv); }
