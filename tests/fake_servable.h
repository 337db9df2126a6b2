// ReadOnlyServable — a test fake that deploys any core::CardinalityEstimator
// (an oracle, a histogram) as a core::ServableModel, so the router and SPN
// suites can stand up an exact or a deliberately wrong primary model. The
// estimator is immutable and shared, so the fake is pure by construction,
// FineTune trains nothing and returns 0, and a clone is a fresh view of the
// same estimator.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/servable.h"

namespace uae::fakes {

class ReadOnlyServable final : public core::ServableModel {
 public:
  ReadOnlyServable(std::shared_ptr<const core::CardinalityEstimator> estimator,
                   size_t num_rows, uint64_t seed = 0)
      : estimator_(std::move(estimator)), num_rows_(num_rows), seed_(seed) {}

  double EstimateCard(const workload::Query& query) const override {
    return estimator_->EstimateCard(query);
  }
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override {
    return estimator_->EstimateCards(queries);
  }
  size_t SizeBytes() const override { return estimator_->SizeBytes(); }
  size_t num_rows() const override { return num_rows_; }
  uint64_t seed() const override { return seed_; }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<ReadOnlyServable>(*this);
  }
  size_t FineTune(const workload::Workload& /*workload*/,
                  const core::FineTuneSpec& /*spec*/) override {
    return 0;
  }

 private:
  std::shared_ptr<const core::CardinalityEstimator> estimator_;
  size_t num_rows_;
  uint64_t seed_;
};

}  // namespace uae::fakes
