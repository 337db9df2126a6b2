// HybridRouter — a core::ServableModel that fronts the estimator zoo with
// per-query-class routing and graceful degradation (ROADMAP item 3).
//
// Three backends always, one more optional, one ladder:
//   * primary — the served deep model (UAE, sharded, quantized — any
//     ServableModel). Default for every class: accurate, milliseconds.
//   * kNN     — an online per-class k-nearest-neighbour regression over
//     recent (literal features, log true cardinality) feedback pairs
//     (router/knn.h, the AQO OkNNr design). Microseconds; classes are
//     promoted onto it only once their rolling kNN q-error proves out.
//   * floor   — a bounded-latency classical estimator (histogram/sampling;
//     any core::CardinalityEstimator). Engages per request when the
//     load probe reports an SLO breach: under overload the router degrades
//     to cheap-but-bounded answers instead of stalling the queue.
//   * alt     — an optional second full ServableModel (the query-driven SPN
//     backend: sampling-free single-pass inference). Shadow-evaluated on
//     every feedback entry; a class is promoted onto it when its rolling alt
//     q-error beats the primary's by a margin (and demoted when the edge
//     disappears). kNN outranks alt — a class cheap enough for the
//     microsecond path never pays a model inference at all.
//
// Routing tables are learned ONLINE from the serving feedback stream
// (online::FeedbackCollector): ObserveFeedback() folds drained entries into
// per-class rolling q-error per backend plus the class's kNN point ring, and
// republishes the routing table generation-atomically (same atomic
// shared_ptr hot-swap discipline as serve::SnapshotSlot — readers never
// block, in-flight requests finish on the table they started with).
// Promotion/demotion uses dual thresholds plus consecutive-update streaks so
// classes do not flap.
//
// Determinism caveat: within one routing-table generation and with the load
// probe healthy (or unset), estimates are pure functions of (router state,
// query) like every other servable. The degradation path is intentionally
// load-dependent — bounded latency under overload is the point — so bitwise
// reproducibility is scoped to the non-degraded paths (see
// docs/DETERMINISM.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/servable.h"
#include "online/feedback.h"
#include "router/knn.h"
#include "router/query_class.h"
#include "serve/latency.h"
#include "util/quantiles.h"

namespace uae::router {

/// Which backend answered (indices into per-backend stat arrays).
enum class Backend : uint8_t { kPrimary = 0, kKnn = 1, kFloor = 2, kAlt = 3 };
inline constexpr size_t kNumBackends = 4;
const char* BackendName(Backend b);

/// Instantaneous load signal the degradation trigger reads — wired to the
/// serving layer's queue hooks (serve::EstimationService::QueueDepth /
/// OldestQueuedWaitMicros) in a served deployment, or to any custom gauge.
struct RouterLoad {
  size_t queue_depth = 0;       ///< Requests currently queued behind this one.
  uint64_t oldest_wait_us = 0;  ///< How long the oldest queued request waited.
};
using LoadProbe = std::function<RouterLoad()>;

struct RouterConfig {
  KnnConfig knn;

  // ---- Routing-table learning ----------------------------------------------
  /// Hard cap on tracked classes; feedback for classes beyond it is dropped
  /// (bounded memory under adversarial template churn).
  size_t max_classes = 4096;
  /// EMA weight of a new observation in the per-backend rolling log-q-error.
  double qerr_smoothing = 0.25;
  /// A class is promoted onto the kNN fast path when its rolling kNN q-error
  /// is at or below this absolute bar...
  double knn_promote_qerr = 4.0;
  /// ...and within this factor of the primary's rolling q-error (the bounded
  /// accuracy give-up). Classes with no primary feedback use the bar alone.
  double knn_promote_margin = 2.0;
  /// Demotion bar (strictly above the promote bar: the hysteresis gap).
  double knn_demote_qerr = 8.0;
  /// Consecutive routing updates a class must stay eligible / ineligible
  /// before it is promoted / demoted — no flapping on one noisy batch.
  int promote_after = 2;
  int demote_after = 2;

  // ---- Alt backend (only read when SetAltBackend was called) ---------------
  /// A class is promoted onto the alt model when its rolling alt q-error is
  /// at or below this absolute bar...
  double alt_promote_qerr = 4.0;
  /// ...and beats the primary's rolling q-error by this factor
  /// (alt_q * margin <= primary_q): the alt must earn its inference cost
  /// with a real accuracy edge, not a tie.
  double alt_promote_margin = 1.2;
  /// Demotion: the class leaves the alt when its rolling alt q-error climbs
  /// above this absolute bar or above the primary's (edge gone). Promotion /
  /// demotion streaks reuse promote_after / demote_after.
  double alt_demote_qerr = 8.0;

  // ---- Degradation ladder --------------------------------------------------
  /// Queue-depth ceiling; 0 disables the depth trigger.
  size_t queue_depth_limit = 0;
  /// Per-request latency SLO in microseconds, compared against the oldest
  /// queued request's wait; 0 disables the latency trigger.
  uint64_t latency_slo_us = 0;
  /// Consecutive healthy probes required to leave the degraded state
  /// (recovery hysteresis; entry is immediate — a stall must never wait).
  int recover_after = 16;

  // ---- Observability -------------------------------------------------------
  /// Per-backend q-error sample window feeding RouterStats() summaries.
  size_t qerr_window = 1024;
};

/// Per-backend slice of a RouterStats() snapshot.
struct BackendStats {
  uint64_t requests = 0;
  serve::LatencySnapshot latency;   ///< p50/p95/p99/max over served requests.
  util::ErrorSummary qerror;        ///< Over the feedback q-error window.
};

struct RouterStatsSnapshot {
  BackendStats backends[kNumBackends];  ///< Indexed by Backend.
  uint64_t requests = 0;                ///< Sum over backends.
  bool degraded = false;                ///< Currently in the degraded state.
  uint64_t degraded_requests = 0;       ///< Requests the floor absorbed.
  uint64_t degrade_transitions = 0;     ///< Enter/leave state changes.
  uint64_t routing_generation = 0;      ///< Published routing-table version.
  uint64_t feedback_observed = 0;       ///< Feedback entries folded in.
  /// Non-finite q-errors (a NaN or infinite estimate or truth) left out of
  /// the EMAs and windows.
  uint64_t skipped_qerrors = 0;
  size_t classes = 0;                   ///< Classes in the published table.
  size_t knn_classes = 0;               ///< ...of which route to kNN.
  size_t alt_classes = 0;               ///< ...of which route to the alt model.
};

class HybridRouter : public core::ServableModel {
 public:
  /// `primary` answers by default and backs FineTune/CloneServable; `floor`
  /// is the bounded-latency degradation backend; `domains[c]` is column c's
  /// dictionary size (feature normalization — see router/query_class.h).
  HybridRouter(std::shared_ptr<core::ServableModel> primary,
               std::shared_ptr<const core::CardinalityEstimator> floor,
               std::vector<int32_t> domains, const RouterConfig& config = {});

  // ---- core::ServableModel --------------------------------------------------
  double EstimateCard(const workload::Query& query) const override;
  /// Batched routing: the primary's share goes through its batched fan-out
  /// path; kNN/floor shares are answered directly (they are microsecond
  /// paths). The degradation probe is evaluated once per batch.
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override;
  size_t SizeBytes() const override;
  size_t num_rows() const override { return primary_->num_rows(); }
  uint64_t seed() const override { return primary_->seed(); }
  /// Clones the primary (deep) and shares the immutable floor and alt; the
  /// clone starts from THIS router's current routing table and fresh stats.
  std::shared_ptr<core::ServableModel> CloneServable() const override;
  /// Delegates to the primary backend (the only trainable one).
  size_t FineTune(const workload::Workload& workload,
                  const core::FineTuneSpec& spec) override;

  // ---- Online routing-table learning ---------------------------------------
  /// Folds labeled feedback into the per-class backend statistics and kNN
  /// rings, re-derives per-class routing with hysteresis, and publishes the
  /// new table generation-atomically. Join-tagged entries (join_mask != 0)
  /// are skipped — the router serves single-table traffic. Returns the
  /// number of entries folded in.
  size_t ObserveFeedback(std::span<const online::FeedbackEntry> entries);
  /// Convenience fan-in: Drain()s the collector through ObserveFeedback.
  size_t UpdateFromCollector(online::FeedbackCollector* collector);

  /// Installs the optional alt backend (a second full ServableModel, e.g.
  /// estimators::SpnEstimator). Like SetLoadProbe, must be wired before
  /// concurrent serving starts; classes are only ever promoted onto the alt
  /// after it is set. Pass nullptr to clear.
  void SetAltBackend(std::shared_ptr<const core::ServableModel> alt);
  /// The installed alt backend, or nullptr.
  std::shared_ptr<const core::ServableModel> alt_backend() const {
    return alt_;
  }

  // ---- Degradation + observability -----------------------------------------
  /// Installs the load signal the degradation trigger reads. Must be wired
  /// before concurrent serving starts (the probe pointer itself is not
  /// hot-swappable; its readings of course are).
  void SetLoadProbe(LoadProbe probe);

  RouterStatsSnapshot RouterStats() const;
  uint64_t RoutingGeneration() const;
  /// The backend the published table currently assigns to `query`'s class
  /// (ignoring degradation) — what a non-breached request would hit.
  Backend RouteFor(const workload::Query& query) const;

 private:
  /// One class's slice of the immutable published table.
  struct ClassRoute {
    Backend backend = Backend::kPrimary;
    ClassKnn knn;  ///< Populated only for kNN-routed classes.
  };
  struct RoutingTable {
    uint64_t generation = 0;
    std::unordered_map<uint64_t, ClassRoute> routes;
    size_t knn_classes = 0;
    size_t alt_classes = 0;
  };

  /// Learner-side mutable per-class state (guarded by learn_mu_).
  struct ClassState {
    KnnRing ring;
    // Rolling log-q-error EMA + sample count, one per backend.
    double qerr_log[kNumBackends] = {};
    uint64_t qerr_n[kNumBackends] = {};
    bool on_knn = false;
    int promote_streak = 0;
    int demote_streak = 0;
    // Alt-backend state machine (independent of the kNN one; kNN outranks).
    bool on_alt = false;
    int alt_promote_streak = 0;
    int alt_demote_streak = 0;
    explicit ClassState(size_t capacity) : ring(capacity) {}
  };

  std::shared_ptr<const RoutingTable> Table() const;
  void PublishTable(std::shared_ptr<const RoutingTable> table);
  /// Rebuilds the immutable table from learner state; caller holds learn_mu_.
  void RepublishLocked();
  /// Evaluates the degradation state machine against one probe reading.
  bool CheckDegraded() const;
  double EstimateVia(Backend backend, const workload::Query& query,
                     const QueryClass& qc, const ClassRoute* route) const;
  void RecordServed(Backend backend, uint64_t micros) const;

  const std::shared_ptr<core::ServableModel> primary_;
  const std::shared_ptr<const core::CardinalityEstimator> floor_;
  /// Optional second model backend; immutable once serving starts (wired via
  /// SetAltBackend like the probe).
  std::shared_ptr<const core::ServableModel> alt_;
  const std::vector<int32_t> domains_;
  const RouterConfig config_;

  // Published routing table (atomic shared_ptr; TSan builds fall back to a
  // mutex-guarded slot like serve::SnapshotSlot — same semantics).
#if defined(__SANITIZE_THREAD__)
#define UAE_ROUTER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define UAE_ROUTER_TSAN 1
#endif
#endif
#ifdef UAE_ROUTER_TSAN
  mutable std::mutex table_mu_;
  std::shared_ptr<const RoutingTable> table_;
#else
  std::atomic<std::shared_ptr<const RoutingTable>> table_;
#endif

  LoadProbe probe_;  ///< Unset => degradation disabled.

  // Learner state.
  mutable std::mutex learn_mu_;
  std::unordered_map<uint64_t, ClassState> classes_;
  uint64_t next_generation_ = 2;  ///< Generation 1 is the empty initial table.
  uint64_t feedback_observed_ = 0;
  uint64_t skipped_qerrors_ = 0;

  // Degradation state machine (request-path side; atomics only).
  mutable std::atomic<bool> degraded_{false};
  mutable std::atomic<int> healthy_streak_{0};
  mutable std::atomic<uint64_t> degrade_transitions_{0};
  mutable std::atomic<uint64_t> degraded_requests_{0};

  // Per-backend serving stats.
  mutable std::atomic<uint64_t> served_[kNumBackends] = {};
  mutable serve::LatencyHistogram latency_[kNumBackends];

  // Per-backend q-error sample windows (feedback side; guarded by learn_mu_).
  struct QerrWindow {
    std::vector<double> samples;
    size_t next = 0;
    void Add(double q, size_t cap);
  };
  QerrWindow qerr_windows_[kNumBackends];
};

}  // namespace uae::router
