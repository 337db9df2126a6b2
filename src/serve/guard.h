// The holdout guard and the one guarded publish path. Every publisher that
// swaps in a model it built itself goes through GuardedPublish: the online
// adaptation controller (fine-tuned clones), the ingest refresh controller
// (refreshed shards, when a holdout is configured) and the int8 path
// (core::QuantizedUae planes). A refused candidate consumes no generation and
// the incumbent keeps serving untouched.
#pragma once

#include <cstdint>
#include <memory>

#include "core/servable.h"
#include "serve/service.h"
#include "workload/query.h"

namespace uae::serve {

/// One guard decision. `generation` is the published generation, or 0 when
/// the candidate was refused (EvaluateCandidate alone never publishes).
struct GuardVerdict {
  bool accept = false;
  uint64_t generation = 0;
  double incumbent_median = 0.0;  ///< Holdout median q-error.
  double candidate_median = 0.0;
};

/// Batched-evaluates both models on `holdout` and accepts the candidate iff
/// it answers every holdout query with a finite estimate and
///   candidate_median <= incumbent_median * max_ratio.
/// An empty holdout rejects (nothing proven means no swap).
GuardVerdict EvaluateCandidate(const core::ServableModel& incumbent,
                               const core::ServableModel& candidate,
                               const workload::Workload& holdout,
                               double max_ratio);

/// EvaluateCandidate against `incumbent`, then PublishSnapshot(candidate) only
/// if the guard accepts. The caller names the incumbent, so a publisher that
/// built its candidate from an older snapshot guards against that snapshot.
GuardVerdict GuardedPublish(EstimationService* service,
                            const core::ServableModel& incumbent,
                            std::shared_ptr<const core::ServableModel> candidate,
                            const workload::Workload& holdout, double max_ratio);

}  // namespace uae::serve
