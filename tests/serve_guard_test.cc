// serve/guard: GuardedPublish refuses a candidate that answers any holdout
// query with NaN or inf, even when one such answer leaves its median q-error
// tied with the incumbent's.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <utility>

#include "data/synthetic.h"
#include "estimators/oracle.h"
#include "fake_servable.h"
#include "serve/guard.h"
#include "serve/service.h"
#include "workload/generator.h"

namespace uae::serve {
namespace {

/// Exact (an oracle) except on the query with fingerprint `poisoned`, where
/// it answers `poison`.
class PoisonedOracle final : public core::CardinalityEstimator {
 public:
  PoisonedOracle(const data::Table& table, uint64_t poisoned, double poison)
      : oracle_(table), poisoned_(poisoned), poison_(poison) {}

  double EstimateCard(const workload::Query& query) const override {
    return query.Fingerprint() == poisoned_ ? poison_
                                            : oracle_.EstimateCard(query);
  }
  size_t SizeBytes() const override { return 0; }

 private:
  estimators::OracleEstimator oracle_;
  uint64_t poisoned_;
  double poison_;
};

struct GuardFixture {
  data::Table table = data::TinyCorrelated(1000, 3);
  workload::Workload holdout;
  std::shared_ptr<const core::ServableModel> exact;

  GuardFixture() {
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 3;
    holdout =
        workload::QueryGenerator(table, gc, 11).GenerateLabeled(16, nullptr);
    exact = Servable(std::make_shared<estimators::OracleEstimator>(table));
  }

  std::shared_ptr<const core::ServableModel> Servable(
      std::shared_ptr<const core::CardinalityEstimator> estimator) const {
    return std::make_shared<fakes::ReadOnlyServable>(std::move(estimator),
                                                     table.num_rows());
  }

  /// Publishes a candidate that is exact except for `poison` on one query.
  GuardVerdict PublishPoisoned(EstimationService* service, double poison) {
    auto candidate = Servable(std::make_shared<PoisonedOracle>(
        table, holdout[5].query.Fingerprint(), poison));
    return GuardedPublish(service, *exact, candidate, holdout, 1.0);
  }
};

TEST(GuardedPublishTest, RefusesCandidateWithOneNonFiniteEstimate) {
  GuardFixture f;
  // The exact model passes, so a refusal below is the poisoned answer's.
  ASSERT_TRUE(EvaluateCandidate(*f.exact, *f.exact, f.holdout, 1.0).accept);
  for (double poison : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
    EstimationService service(f.exact);
    GuardVerdict verdict = f.PublishPoisoned(&service, poison);
    // One bad answer among 16 leaves the median exact: the median rule alone
    // would publish the candidate.
    EXPECT_DOUBLE_EQ(verdict.candidate_median, 1.0) << poison;
    EXPECT_FALSE(verdict.accept) << poison;
    EXPECT_EQ(verdict.generation, 0u) << poison;
    EXPECT_EQ(service.CurrentGeneration(), 1u) << poison;
  }
}

}  // namespace
}  // namespace uae::serve
