// Sampler conformance suite: the wavefront sampler (core/wavefront) must be
// bit-identical to the per-query progressive sampler (core/progressive) for
// any wavefront width, any batch composition, and any thread count. These
// tests pin that contract:
//
//  * widths {1, 8, 64} against the per-query reference, query by query;
//  * batch-composition invariance (singletons, shuffled batches, subsets);
//  * repeated batched runs are bit-stable (thread-count independence rides on
//    per-query RNG purity plus row-deterministic kernels; CI exercises the
//    same suite on machines with different core counts);
//  * zero-mass early exit: provably-empty predicates estimate exactly zero
//    without perturbing neighbouring lanes or queries;
//  * seeded property sweeps: 300 generator queries per dataset, wavefront vs
//    per-query, exact equality;
//  * join sub-plans on a factorized IMDB-star universe (fanout-weight and
//    digit-range targets): batched EstimateJoinCards vs the single-query
//    EstimateJoinCard, across widths and batch compositions;
//  * lineage prefix dedup: lanes sharing a prefix share one forward row, and
//    no forward call ever carries two bitwise-equal rows, so a fixed batch
//    forwards exactly as many rows as byte-comparing dedup would.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/progressive.h"
#include "core/quant.h"
#include "core/uae.h"
#include "core/wavefront.h"
#include "data/imdb_star.h"
#include "data/synthetic.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/join_workload.h"

namespace uae::core {
namespace {

UaeConfig SmallConfig(uint64_t seed) {
  UaeConfig cfg;
  cfg.hidden = 32;
  cfg.ps_samples = 48;
  cfg.seed = seed;
  return cfg;
}

struct Dataset {
  data::Table table;
  Uae uae;
  std::vector<workload::Query> queries;

  Dataset(data::Table t, const UaeConfig& cfg, uint64_t gen_seed, int n_queries)
      : table(std::move(t)), uae(table, cfg) {
    uae.TrainDataEpochs(2);
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 3;
    workload::QueryGenerator gen(table, gc, gen_seed);
    for (const auto& lq : gen.GenerateLabeled(n_queries, nullptr)) {
      queries.push_back(lq.query);
    }
  }
};

Dataset& Correlated() {
  static Dataset* d =
      new Dataset(data::TinyCorrelated(1500, 7), SmallConfig(17), 41, 300);
  return *d;
}

Dataset& Dmv() {
  static Dataset* d = []() {
    UaeConfig cfg = SmallConfig(29);
    cfg.ps_samples = 32;
    return new Dataset(data::SyntheticDmv(2000, 11), cfg, 43, 300);
  }();
  return *d;
}

/// Per-query reference estimates through the legacy sampler, with the exact
/// serving RNG scheme (seed x fingerprint).
std::vector<double> ReferenceSelectivities(const Dataset& d,
                                           std::span<const workload::Query> qs) {
  std::vector<double> out;
  out.reserve(qs.size());
  for (const auto& q : qs) {
    QueryTargets targets = BuildTargets(q, d.table, d.uae.schema());
    util::Rng rng = EstimationRng(d.uae.config().seed, q.Fingerprint());
    out.push_back(
        ProgressiveSample(d.uae.model(), targets, d.uae.config().ps_samples, &rng));
  }
  return out;
}

/// Direct wavefront run at an explicit width over `backend` (the frozen
/// backend, or a forwarding one over it).
std::vector<double> WavefrontAtWidth(const InferenceBackend& backend, const Dataset& d,
                                     std::span<const workload::Query> qs,
                                     int width) {
  std::vector<QueryTargets> targets;
  std::vector<util::Rng> rngs;
  for (const auto& q : qs) {
    targets.push_back(BuildTargets(q, d.table, d.uae.schema()));
    rngs.push_back(EstimationRng(d.uae.config().seed, q.Fingerprint()));
  }
  WavefrontConfig wc;
  wc.num_samples = d.uae.config().ps_samples;
  wc.wave_width = width;
  return WavefrontSampleSelectivities(backend, targets, rngs, wc);
}

TEST(SamplerConformanceTest, BitwiseParityAcrossWavefrontWidths) {
  Dataset& d = Correlated();
  std::span<const workload::Query> qs(d.queries.data(), 40);
  std::vector<double> reference = ReferenceSelectivities(d, qs);
  for (int width : {1, 8, 64}) {
    std::vector<double> wave = WavefrontAtWidth(*d.uae.FrozenBackend(), d, qs, width);
    ASSERT_EQ(wave.size(), reference.size());
    for (size_t i = 0; i < wave.size(); ++i) {
      // Exact: not EXPECT_DOUBLE_EQ's 4-ULP tolerance.
      EXPECT_EQ(wave[i], reference[i]) << "width " << width << " query " << i;
    }
  }
}

TEST(SamplerConformanceTest, BatchCompositionInvariance) {
  Dataset& d = Correlated();
  std::span<const workload::Query> qs(d.queries.data(), 32);
  std::vector<double> batched = d.uae.EstimateSelectivities(qs);

  // Singletons: every query estimated alone must reproduce its batched value.
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(d.uae.EstimateSelectivity(qs[i]), batched[i]) << "query " << i;
  }

  // Shuffled batch: same queries, different order and hence different wave
  // and lane packing — values must follow the query, not the slot.
  std::vector<size_t> perm(qs.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::mt19937_64 shuffle_rng(99);
  std::shuffle(perm.begin(), perm.end(), shuffle_rng);
  std::vector<workload::Query> shuffled;
  for (size_t i : perm) shuffled.push_back(qs[i]);
  std::vector<double> shuffled_out = d.uae.EstimateSelectivities(shuffled);
  for (size_t j = 0; j < perm.size(); ++j) {
    EXPECT_EQ(shuffled_out[j], batched[perm[j]]) << "slot " << j;
  }

  // Subsets: odd-indexed queries batched together keep their values.
  std::vector<workload::Query> subset;
  for (size_t i = 1; i < qs.size(); i += 2) subset.push_back(qs[i]);
  std::vector<double> subset_out = d.uae.EstimateSelectivities(subset);
  for (size_t j = 0; j < subset.size(); ++j) {
    EXPECT_EQ(subset_out[j], batched[2 * j + 1]) << "subset slot " << j;
  }
}

TEST(SamplerConformanceTest, RepeatedBatchedRunsAreBitStable) {
  // Thread-count independence reduces to per-query RNG purity plus
  // row-deterministic kernels; within one process the observable contract is
  // that repeated batched runs (whatever the pool does) never drift.
  Dataset& d = Correlated();
  std::span<const workload::Query> qs(d.queries.data(), 24);
  std::vector<double> first = d.uae.EstimateSelectivities(qs);
  std::vector<double> reference = ReferenceSelectivities(d, qs);
  for (size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], reference[i]);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> again = d.uae.EstimateSelectivities(qs);
    EXPECT_EQ(again, first) << "rep " << rep;
  }
}

TEST(SamplerConformanceTest, ZeroMassEarlyExitOnEmptyRange) {
  Dataset& d = Correlated();
  // An empty code range (lo > hi) can never match: the lane dies on that
  // column's first step, the estimate is exactly zero, and no RNG draw is
  // consumed for dead lanes.
  workload::Query empty_range(d.table.num_cols());
  auto& c0 = empty_range.mutable_constraint(0);
  c0.kind = workload::Constraint::Kind::kRange;
  c0.lo = 5;
  c0.hi = 2;
  EXPECT_EQ(d.uae.EstimateSelectivity(empty_range), 0.0);

  // An empty IN set compiles to an all-zero mask target: same early exit.
  workload::Query empty_in(d.table.num_cols());
  empty_in.mutable_constraint(1).kind = workload::Constraint::Kind::kIn;
  EXPECT_EQ(d.uae.EstimateSelectivity(empty_in), 0.0);

  // Batched alongside live queries, the dead queries must not perturb their
  // neighbours (lane compaction changes every subsequent batch's row layout).
  std::vector<workload::Query> mixed;
  mixed.push_back(d.queries[0]);
  mixed.push_back(empty_range);
  mixed.push_back(d.queries[1]);
  mixed.push_back(empty_in);
  mixed.push_back(d.queries[2]);
  std::vector<double> out = d.uae.EstimateSelectivities(mixed);
  EXPECT_EQ(out[0], d.uae.EstimateSelectivity(d.queries[0]));
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], d.uae.EstimateSelectivity(d.queries[1]));
  EXPECT_EQ(out[3], 0.0);
  EXPECT_EQ(out[4], d.uae.EstimateSelectivity(d.queries[2]));
}

TEST(SamplerConformanceTest, WildcardOnlyQueryEstimatesOne) {
  Dataset& d = Correlated();
  // No constrained column: the wavefront never gathers a lane, every density
  // stays 1, and the selectivity is exactly 1 in both samplers.
  workload::Query wildcard(d.table.num_cols());
  std::vector<workload::Query> qs{wildcard};
  EXPECT_EQ(d.uae.EstimateSelectivities(qs)[0], 1.0);
  EXPECT_EQ(d.uae.EstimateSelectivity(wildcard), 1.0);
}

TEST(SamplerConformanceTest, PropertySweepCorrelated) {
  Dataset& d = Correlated();
  std::vector<double> reference = ReferenceSelectivities(d, d.queries);
  std::vector<double> wave = d.uae.EstimateSelectivities(d.queries);
  ASSERT_EQ(wave.size(), reference.size());
  for (size_t i = 0; i < wave.size(); ++i) {
    EXPECT_EQ(wave[i], reference[i]) << "query " << i;
  }
}

TEST(SamplerConformanceTest, PropertySweepDmv) {
  Dataset& d = Dmv();
  std::vector<double> reference = ReferenceSelectivities(d, d.queries);
  std::vector<double> wave = d.uae.EstimateSelectivities(d.queries);
  ASSERT_EQ(wave.size(), reference.size());
  for (size_t i = 0; i < wave.size(); ++i) {
    EXPECT_EQ(wave[i], reference[i]) << "query " << i;
  }
  // The DMV generator factorizes nothing at the default threshold, so also
  // sweep a width other than the config default through the backend directly.
  std::span<const workload::Query> head(d.queries.data(), 64);
  std::vector<double> w64 = WavefrontAtWidth(*d.uae.FrozenBackend(), d, head, 64);
  for (size_t i = 0; i < w64.size(); ++i) EXPECT_EQ(w64[i], reference[i]);
}

TEST(SamplerConformanceTest, QuantizedEstimatesArePureButNotFp32) {
  // The quantized backend rides the same wavefront: its estimates must be
  // pure per query (batch-invariant) while generally differing from fp32.
  Dataset& d = Correlated();
  QuantizedUae quant(d.uae);
  std::span<const workload::Query> qs(d.queries.data(), 16);
  std::vector<double> batched = quant.EstimateCards(qs);
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(quant.EstimateCard(qs[i]), batched[i]) << "query " << i;
  }
  std::vector<double> fp32 = d.uae.EstimateCards(qs);
  int differing = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    if (batched[i] != fp32[i]) ++differing;
  }
  EXPECT_GT(differing, 0) << "int8 estimates should not be bit-equal to fp32";
}

/// Forwards to the model's frozen backend, counts the rows forwarded per
/// head, and counts rows that are bitwise equal to an earlier row of the same
/// call: such a pair is a prefix the dedup failed to share (waves may run on
/// pool workers, hence atomics).
class CountingBackend final : public InferenceBackend {
 public:
  explicit CountingBackend(const Uae& uae)
      : InferenceBackend(uae.model(), &uae.schema()),
        inner_(uae.FrozenBackend()),
        rows_(static_cast<size_t>(uae.schema().num_virtual())) {}

  void ForwardProbs(int vc, const nn::Mat& x,
                    WavefrontWorkspace* ws) const override {
    rows_[static_cast<size_t>(vc)].fetch_add(x.rows(), std::memory_order_relaxed);
    const size_t row_bytes = static_cast<size_t>(x.cols()) * sizeof(float);
    const auto row = [&](int r) { return x.data() + static_cast<size_t>(r) * x.cols(); };
    std::vector<int> order(static_cast<size_t>(x.rows()));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return std::memcmp(row(a), row(b), row_bytes) < 0;
    });
    for (size_t i = 1; i < order.size(); ++i) {
      if (std::memcmp(row(order[i - 1]), row(order[i]), row_bytes) == 0) {
        duplicate_rows_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    inner_->ForwardProbs(vc, x, ws);
  }
  size_t SizeBytes() const override { return inner_->SizeBytes(); }

  int64_t rows(int vc) const {
    return rows_[static_cast<size_t>(vc)].load(std::memory_order_relaxed);
  }
  int64_t total_rows() const {
    int64_t total = 0;
    for (const auto& r : rows_) total += r.load(std::memory_order_relaxed);
    return total;
  }
  int64_t duplicate_rows() const {
    return duplicate_rows_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const FrozenMadeBackend> inner_;
  mutable std::vector<std::atomic<int64_t>> rows_;
  mutable std::atomic<int64_t> duplicate_rows_{0};
};

TEST(SamplerConformanceTest, SharedFirstColumnForwardsOneRowPerWave) {
  // Every lane of every query starts at the wildcard prototype, so W queries
  // whose first constrained column is the same forward exactly one row at
  // that column, whatever their ranges and their later columns.
  Dataset& d = Correlated();
  const data::VirtualSchema& vs = d.uae.schema();
  int first_vc = -1;
  for (int vc = 0; vc < vs.num_virtual() && first_vc < 0; ++vc) {
    if (vs.vcol(vc).orig_col == 0) first_vc = vc;
  }
  ASSERT_GE(first_vc, 0);
  constexpr int kWidth = 8;
  const int32_t dom0 = d.table.column(0).domain();
  const int32_t dom1 = d.table.column(1).domain();
  std::vector<workload::Query> qs;
  for (int i = 0; i < kWidth; ++i) {
    workload::Query q(d.table.num_cols());
    auto& c0 = q.mutable_constraint(0);
    c0.kind = workload::Constraint::Kind::kRange;
    c0.lo = i % dom0;
    c0.hi = std::min(dom0 - 1, c0.lo + 1 + i);
    if (i % 2 == 1) {
      auto& c1 = q.mutable_constraint(1);
      c1.kind = workload::Constraint::Kind::kRange;
      c1.lo = 0;
      c1.hi = std::max(0, dom1 / 2 - i);
    }
    qs.push_back(q);
  }
  CountingBackend counting(d.uae);
  std::vector<double> wave = WavefrontAtWidth(counting, d, qs, kWidth);
  EXPECT_EQ(counting.rows(first_vc), 1);
  std::vector<double> reference = ReferenceSelectivities(d, qs);
  for (size_t i = 0; i < qs.size(); ++i) EXPECT_EQ(wave[i], reference[i]) << i;
}

TEST(SamplerConformanceTest, DmvBatchForwardsNoDuplicateRows) {
  // Lineage dedup must share exactly the prefixes byte-comparing dedup
  // shares, on any binary. Two bitwise-equal rows in one forward call are
  // lost sharing (a speed regression); lanes with different rows merged into
  // one forward row would change an estimate, which the parity check catches.
  Dataset& d = Dmv();
  std::span<const workload::Query> qs(d.queries.data(), 64);
  CountingBackend counting(d.uae);
  std::vector<double> wave = WavefrontAtWidth(counting, d, qs, 8);
  EXPECT_EQ(counting.duplicate_rows(), 0);
  EXPECT_GT(counting.total_rows(), 0);
  RecordProperty("forward_rows", std::to_string(counting.total_rows()));
  std::vector<double> reference = ReferenceSelectivities(d, qs);
  for (size_t i = 0; i < qs.size(); ++i) EXPECT_EQ(wave[i], reference[i]) << i;
}

/// Join estimators over the JOB-M-like IMDB star with a low factorization
/// threshold, so year, company, keyword and person ids are digit-factorized
/// and sub-plans carry both digit-range and fanout-weight targets. One model
/// per wavefront width, sharing parameters.
struct JoinDataset {
  data::JoinUniverse uni;
  std::vector<std::unique_ptr<Uae>> by_width;  ///< Widths 1, 8, 64.
  std::vector<workload::JoinQuery> subplans;

  JoinDataset() {
    data::ImdbStarConfig c;
    c.num_titles = 400;
    c.seed = 5;
    c.dims = data::JobMDims();
    uni = data::BuildImdbStar(c);
    UaeConfig cfg = SmallConfig(23);
    cfg.ps_samples = 40;
    cfg.factor_threshold = 64;
    cfg.factor_bits = 4;
    for (int width : {1, 8, 64}) {
      cfg.wavefront_width = width;
      by_width.push_back(std::make_unique<Uae>(uni, cfg));
    }
    by_width[0]->TrainDataEpochs(1);
    for (size_t i = 1; i < by_width.size(); ++i) {
      UAE_CHECK(by_width[i]->CopyParamsFrom(*by_width[0]).ok());
    }
    // Focused queries join all six tables under a year range; unfocused ones
    // join random subsets with content filters only.
    workload::JoinGeneratorConfig focused;
    workload::JoinGeneratorConfig unfocused;
    unfocused.focused = false;
    workload::JoinQueryGenerator gen_focused(uni, focused, 61);
    workload::JoinQueryGenerator gen_unfocused(uni, unfocused, 67);
    for (int i = 0; i < 8; ++i) {
      const workload::JoinQuery q =
          i < 3 ? gen_focused.Generate() : gen_unfocused.Generate();
      for (uint32_t s = 1; s <= q.table_mask; ++s) {
        if ((s & q.table_mask) == s && (s & 1u) != 0) {
          subplans.push_back(workload::RestrictToSubset(uni, q, s));
        }
      }
    }
  }
};

JoinDataset& Joins() {
  static JoinDataset* d = new JoinDataset();
  return *d;
}

TEST(SamplerConformanceTest, JoinBatchMatchesSingleQueryAcrossWidths) {
  JoinDataset& d = Joins();
  // The sub-plans must exercise both join-only target kinds.
  bool factorized_range = false;
  bool weights = false;
  for (const workload::JoinQuery& q : d.subplans) {
    QueryTargets t = BuildJoinTargets(q, d.uni, d.by_width[0]->schema());
    for (size_t c = 0; c < t.cols.size(); ++c) {
      const ColumnTarget& ct = t.cols[c];
      if (ct.kind == ColumnTarget::Kind::kWeights) weights = true;
      if (ct.kind == ColumnTarget::Kind::kRange &&
          d.by_width[0]->schema().VirtualsOf(static_cast<int>(c)).size() > 1) {
        factorized_range = true;
      }
    }
  }
  ASSERT_TRUE(weights) << "no sub-plan downscales by a fanout column";
  ASSERT_TRUE(factorized_range) << "no sub-plan ranges over a factorized column";

  // The single-query path runs the legacy autograd sampler: the permanent
  // cross-check for the batched wavefront.
  std::vector<double> reference;
  for (const workload::JoinQuery& q : d.subplans) {
    reference.push_back(d.by_width[0]->EstimateJoinCard(q));
  }
  for (const auto& uae : d.by_width) {
    EXPECT_EQ(uae->EstimateJoinCard(d.subplans[0]), reference[0]);
    std::vector<double> batched = uae->EstimateJoinCards(d.subplans);
    ASSERT_EQ(batched.size(), reference.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i], reference[i])
          << "width " << uae->config().wavefront_width << " sub-plan " << i;
    }
  }
}

TEST(SamplerConformanceTest, JoinBatchCompositionInvariance) {
  JoinDataset& d = Joins();
  const Uae& uae = *d.by_width[1];
  std::vector<double> batched = uae.EstimateJoinCards(d.subplans);

  std::vector<size_t> perm(d.subplans.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::mt19937_64 shuffle_rng(7);
  std::shuffle(perm.begin(), perm.end(), shuffle_rng);
  std::vector<workload::JoinQuery> shuffled;
  for (size_t i : perm) shuffled.push_back(d.subplans[i]);
  std::vector<double> shuffled_out = uae.EstimateJoinCards(shuffled);
  for (size_t j = 0; j < perm.size(); ++j) {
    EXPECT_EQ(shuffled_out[j], batched[perm[j]]) << "slot " << j;
  }

  std::vector<workload::JoinQuery> subset;
  for (size_t i = 0; i < d.subplans.size(); i += 3) subset.push_back(d.subplans[i]);
  std::vector<double> subset_out = uae.EstimateJoinCards(subset);
  for (size_t j = 0; j < subset.size(); ++j) {
    EXPECT_EQ(subset_out[j], batched[3 * j]) << "subset slot " << j;
  }
  EXPECT_TRUE(uae.EstimateJoinCards({}).empty());
}

}  // namespace
}  // namespace uae::core
