// Batched estimation path: EstimateCards must return exactly the same values
// as the sequential per-query EstimateCard loop for every estimator in the
// zoo, regardless of batch composition, call order, or thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/servable.h"
#include "core/uae.h"
#include "data/synthetic.h"
#include "estimators/bayesnet.h"
#include "estimators/feedback_kde.h"
#include "estimators/histogram.h"
#include "estimators/kde.h"
#include "estimators/lr.h"
#include "estimators/mscn.h"
#include "estimators/oracle.h"
#include "estimators/sampling.h"
#include "estimators/spn.h"
#include "workload/generator.h"

namespace uae::estimators {
namespace {

/// One zoo member with its display name (for failure messages).
struct NamedEstimator {
  std::string name;
  std::shared_ptr<const core::CardinalityEstimator> model;
};

struct Zoo {
  data::Table table;
  workload::Workload train;
  std::vector<workload::Query> queries;
  std::shared_ptr<core::Uae> uae;
  std::vector<NamedEstimator> estimators;

  Zoo() : table(data::TinyCorrelated(1500, 3)) {
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 2;
    workload::QueryGenerator gen(table, gc, 7);
    train = gen.GenerateLabeled(60, nullptr);
    for (const auto& lq : gen.GenerateLabeled(24, nullptr)) {
      queries.push_back(lq.query);
    }

    core::UaeConfig uc;
    uc.hidden = 32;
    uc.ps_samples = 64;
    uc.seed = 11;
    uae = std::make_shared<core::Uae>(table, uc);
    uae->TrainDataEpochs(2);

    auto lr = std::make_shared<LrEstimator>(table);
    lr->Train(train);
    estimators.push_back({"LR", lr});

    MscnConfig mc;
    mc.seed = 3;
    auto mscn = std::make_shared<MscnEstimator>(table, mc);
    mscn->Train(train);
    estimators.push_back({"MSCN-base", mscn});

    auto ms = std::make_shared<MscnSamplingEstimator>(table, 200, mc);
    ms->Train(train);
    estimators.push_back({"MSCN+sampling", ms});

    estimators.push_back(
        {"Sampling", std::make_shared<SamplingEstimator>(table, 0.05, 5)});
    estimators.push_back(
        {"BayesNet", std::make_shared<BayesNetEstimator>(table, 2000, 0.1, 5)});
    estimators.push_back({"KDE", std::make_shared<KdeEstimator>(table, 200, 5)});

    auto fkde = std::make_shared<FeedbackKdeEstimator>(table, 200, 5);
    fkde->TuneBandwidths(train, /*epochs=*/2);
    estimators.push_back({"Feedback-KDE", fkde});

    SpnConfig sc;
    sc.seed = 5;
    estimators.push_back(
        {"DeepDB-SPN", std::make_shared<SpnEstimator>(table, sc)});
    estimators.push_back(
        {"Histogram-AVI", std::make_shared<HistogramAviEstimator>(
                              table, /*buckets_per_column=*/16)});
    estimators.push_back({"TrueCard", std::make_shared<OracleEstimator>(table)});
    estimators.push_back({"UAE", uae});
  }
};

Zoo& SharedZoo() {
  static Zoo* zoo = new Zoo();
  return *zoo;
}

TEST(BatchedEstimationTest, BatchedMatchesSequentialForEveryEstimator) {
  Zoo& zoo = SharedZoo();
  ASSERT_EQ(zoo.estimators.size(), 11u);
  for (const auto& [name, est] : zoo.estimators) {
    std::vector<double> batched = est->EstimateCards(zoo.queries);
    ASSERT_EQ(batched.size(), zoo.queries.size()) << name;
    for (size_t i = 0; i < zoo.queries.size(); ++i) {
      EXPECT_DOUBLE_EQ(batched[i], est->EstimateCard(zoo.queries[i]))
          << name << " query " << i;
    }
  }
}

TEST(BatchedEstimationTest, BatchCompositionDoesNotChangeResults) {
  Zoo& zoo = SharedZoo();
  for (const auto& [name, est] : zoo.estimators) {
    std::vector<double> whole = est->EstimateCards(zoo.queries);
    // Re-estimate in two halves; results must be unchanged.
    size_t mid = zoo.queries.size() / 2;
    std::span<const workload::Query> all(zoo.queries);
    std::vector<double> first = est->EstimateCards(all.subspan(0, mid));
    std::vector<double> second = est->EstimateCards(all.subspan(mid));
    ASSERT_EQ(first.size() + second.size(), whole.size());
    for (size_t i = 0; i < mid; ++i) {
      EXPECT_DOUBLE_EQ(first[i], whole[i]) << name;
    }
    for (size_t i = mid; i < whole.size(); ++i) {
      EXPECT_DOUBLE_EQ(second[i - mid], whole[i]) << name;
    }
  }
}

TEST(BatchedEstimationTest, EmptyAndSingletonBatches) {
  Zoo& zoo = SharedZoo();
  for (const auto& [name, est] : zoo.estimators) {
    EXPECT_TRUE(est->EstimateCards({}).empty()) << name;
    std::span<const workload::Query> all(zoo.queries);
    std::vector<double> one = est->EstimateCards(all.subspan(0, 1));
    ASSERT_EQ(one.size(), 1u);
    EXPECT_DOUBLE_EQ(one[0], est->EstimateCard(zoo.queries[0])) << name;
  }
}

TEST(BatchedEstimationTest, UaeEstimatesAreCallOrderIndependent) {
  Zoo& zoo = SharedZoo();
  // Estimating the same query twice in a row gives bit-identical results:
  // the progressive-sampling RNG is derived per query, not shared state.
  for (const auto& q : zoo.queries) {
    EXPECT_DOUBLE_EQ(zoo.uae->EstimateCard(q), zoo.uae->EstimateCard(q));
  }
  // And reversing the evaluation order changes nothing.
  std::vector<double> forward;
  for (const auto& q : zoo.queries) forward.push_back(zoo.uae->EstimateCard(q));
  for (size_t i = zoo.queries.size(); i-- > 0;) {
    EXPECT_DOUBLE_EQ(zoo.uae->EstimateCard(zoo.queries[i]), forward[i]);
  }
}

}  // namespace
}  // namespace uae::estimators
