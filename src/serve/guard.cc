#include "serve/guard.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "util/quantiles.h"
#include "workload/metrics.h"

namespace uae::serve {

namespace {

std::vector<double> HoldoutQErrors(const core::ServableModel& model,
                                   const workload::Workload& holdout) {
  return workload::EvaluateQErrorsBatched(
      holdout, [&](std::span<const workload::Query> qs) {
        return model.EstimateCards(qs);
      });
}

}  // namespace

GuardVerdict EvaluateCandidate(const core::ServableModel& incumbent,
                               const core::ServableModel& candidate,
                               const workload::Workload& holdout,
                               double max_ratio) {
  GuardVerdict verdict;
  if (holdout.empty()) return verdict;  // Nothing proven => no swap.
  verdict.incumbent_median =
      util::Quantile(HoldoutQErrors(incumbent, holdout), 0.5);
  std::vector<double> candidate_errors = HoldoutQErrors(candidate, holdout);
  // QError is +inf exactly when the estimate is NaN or inf (labels are finite
  // counts). A median hides a minority of those, and the candidate would then
  // serve them.
  const bool finite =
      std::all_of(candidate_errors.begin(), candidate_errors.end(),
                  [](double e) { return std::isfinite(e); });
  verdict.candidate_median = util::Quantile(std::move(candidate_errors), 0.5);
  verdict.accept =
      finite && verdict.candidate_median <= verdict.incumbent_median * max_ratio;
  return verdict;
}

GuardVerdict GuardedPublish(EstimationService* service,
                            const core::ServableModel& incumbent,
                            std::shared_ptr<const core::ServableModel> candidate,
                            const workload::Workload& holdout, double max_ratio) {
  UAE_CHECK(service != nullptr);
  UAE_CHECK(candidate != nullptr);
  GuardVerdict verdict =
      EvaluateCandidate(incumbent, *candidate, holdout, max_ratio);
  if (verdict.accept) {
    verdict.generation = service->PublishSnapshot(std::move(candidate));
  }
  return verdict;
}

}  // namespace uae::serve
