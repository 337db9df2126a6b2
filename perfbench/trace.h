// Spans for the traced pass, recorded from the benchmark's own code around
// calls into each layer's public functions (nothing under src/ is
// instrumented). Client calls are not spans: every one is timed into the
// pass's CallLog instead (a hot-cache window makes millions of them).
//
//   core.estimate_cards ServableModel::EstimateCards, via TimedServable
//                       published into the service as its model
//   core.estimate_join_cards  ServableModel::EstimateJoinCards, likewise
//   core.wavefront      replay of a served batch through
//                       core::WavefrontSampleSelectivities
//   nn.forward_probs    InferenceBackend::ForwardProbs inside that replay,
//                       via TimedBackend; parent = the core.wavefront span
//   optimizer.prewarm / optimizer.dp_card   via TimedCardProvider
//   ingest.stream / ingest.refresh   one ingest round's appends (through
//                       Flush) and its RefreshIfStale call
//
// Spans live in memory and are written out as JSON lines when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/servable.h"
#include "core/uae.h"
#include "core/wavefront.h"
#include "optimizer/card_provider.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = no recorded cause.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t items = 0;  ///< Queries / rows the call covered.
  int64_t detail = 0;  ///< Call-specific: the head (virtual column) for nn spans.

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);
  /// Spans named `name`.
  std::vector<Span> Named(const char* name) const;
  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records a span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t items) : tracer_(tracer) {
    span_.name = name;
    span_.items = items;
    span_.id = tracer->NextId();
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    span_.end_ns = NowNs();
    tracer_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Sum of span durations in microseconds, and of their items.
struct SpanTotals {
  double micros = 0.0;
  int64_t items = 0;
};
SpanTotals Totals(std::span<const Span> spans);

/// Microseconds of `parent` not covered by the union of `children`'
/// intervals (the children may overlap: they run on pool workers).
double SelfMicros(const Span& parent, std::vector<Span> children);

/// Forwarding ServableModel that times EstimateCards/EstimateJoinCards and
/// keeps the single-table batches it answered for the wavefront replay.
class TimedServable final : public uae::core::ServableModel {
 public:
  TimedServable(std::shared_ptr<const uae::core::ServableModel> inner,
                Tracer* tracer, size_t max_recorded_queries);

  double EstimateCard(const uae::workload::Query& query) const override;
  std::vector<double> EstimateCards(
      std::span<const uae::workload::Query> queries) const override;
  bool SupportsJoinQueries() const override {
    return inner_->SupportsJoinQueries();
  }
  double EstimateJoinCard(const uae::workload::JoinQuery& query) const override;
  std::vector<double> EstimateJoinCards(
      std::span<const uae::workload::JoinQuery> queries) const override;
  size_t SizeBytes() const override { return inner_->SizeBytes(); }
  size_t num_rows() const override { return inner_->num_rows(); }
  uint64_t seed() const override { return inner_->seed(); }
  std::shared_ptr<uae::core::ServableModel> CloneServable() const override {
    return inner_->CloneServable();
  }
  /// Read-only decorator: trains nothing, so the model is unchanged.
  size_t FineTune(const uae::workload::Workload&,
                  const uae::core::FineTuneSpec&) override {
    return 0;
  }

  struct Batch {
    std::vector<uae::workload::Query> queries;
    std::vector<double> cards;
  };
  /// Moves out the recorded single-table batches, in dispatch order.
  std::vector<Batch> TakeBatches();

 private:
  std::shared_ptr<const uae::core::ServableModel> inner_;
  Tracer* tracer_;
  size_t max_recorded_;
  mutable std::mutex mu_;
  mutable std::vector<Batch> batches_;  ///< Appended by the const estimate path.
  mutable size_t recorded_ = 0;
};

/// Forwarding JoinCardProvider that splits planning time into Prewarm and
/// the DP's Card() calls.
class TimedCardProvider final : public uae::optimizer::JoinCardProvider {
 public:
  TimedCardProvider(uae::optimizer::JoinCardProvider* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  std::string name() const override { return inner_->name(); }
  double Card(const uae::workload::JoinQuery& query, uint32_t submask) override;
  void Prewarm(const uae::workload::JoinQuery& query,
               std::span<const uint32_t> submasks) override;
  /// Duration of the latest Prewarm call (one provider per planner thread).
  double last_prewarm_us() const { return last_prewarm_us_; }

 private:
  uae::optimizer::JoinCardProvider* inner_;
  Tracer* tracer_;
  double last_prewarm_us_ = 0.0;
};

/// What the wavefront replay of the served batches measured.
struct ReplayProfile {
  size_t queries = 0;
  size_t mismatches = 0;          ///< Replayed estimates not bitwise equal.
  std::string first_mismatch;
  double wavefront_us = 0.0;      ///< Sum of core.wavefront spans.
  double sampler_self_us = 0.0;   ///< Wavefront time not inside ForwardProbs.
  double forward_us = 0.0;        ///< Sum of nn.forward_probs spans.
  int64_t forward_rows = 0;       ///< Rows forwarded (after prefix dedup).
  double gemm_us = 0.0;           ///< Shape replay through nn::GemmAccum.
  double softmax_us = 0.0;        ///< Shape replay through nn::SoftmaxRowsInplace.
  double forward_mflop = 0.0;     ///< From shapes.
  double forward_mbytes = 0.0;    ///< From shapes.
};

/// Replays `batches` through core::WavefrontSampleSelectivities over a
/// timing backend that forwards to uae.FrozenBackend(), with the per-query
/// RNG streams derived as core::Uae derives them, checks the result against
/// the served estimates bitwise, then replays the recorded head shapes
/// through the public GEMM and softmax kernels.
ReplayProfile ReplayWavefront(const uae::core::Uae& uae,
                              std::span<const TimedServable::Batch> batches,
                              Tracer* tracer);

}  // namespace perfbench
