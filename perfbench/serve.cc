// serve-cold and serve-hot: single-table serving of a hybrid-trained UAE
// (the paper's unified model) over the DMV-like table, nproc closed-loop
// clients.
//
//   serve-cold  every request is a distinct in-workload query (§5.1.2), far
//               more than the result cache holds: the sampler does the work.
//   serve-hot   a Zipf(1.0) stream over a pool that fits in the cache:
//               admission, cache probe and counters dominate; the sampler
//               runs only on first sight of a query.
//
// Accuracy is scored after the window on a fixed set of distinct in-workload
// queries served through the same service, so the q-error quantiles rest on
// the same queries whatever the seed and however fast the window ran.
#include <algorithm>
#include <cmath>
#include <future>
#include <unordered_set>

#include "core/uae.h"
#include "data/synthetic.h"
#include "util/rng.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 10000;
constexpr size_t kTrainQueries = 200;
constexpr int kEpochs = 1;
constexpr size_t kColdPool = 50000;  ///< Distinct queries; > any window's demand.
constexpr size_t kHotPool = 2048;    ///< Fits the 4096-entry result cache.
constexpr size_t kHotStream = 1 << 20;
constexpr size_t kParityPositions = 256;  ///< Leading window calls re-estimated directly.
constexpr size_t kScored = 10000;         ///< Scored queries served after the window.
constexpr size_t kScoredParityStride = 40;
constexpr size_t kMaxReplayQueries = 6000;

/// §5.1.2 in-workload queries with 2-4 filters besides the bounded range:
/// the paper's nf >= 5 targets tables of millions of rows; on this scaled
/// table it leaves almost every true cardinality at 0.
uae::workload::GeneratorConfig QueryConfig() {
  uae::workload::GeneratorConfig c;
  c.min_filters = 2;
  c.max_filters = 4;
  return c;
}

uae::core::UaeConfig ModelConfig() {
  uae::core::UaeConfig c;
  c.hidden = 64;
  c.ps_samples = 128;
  c.dps_samples = 16;
  c.data_batch = 1024;
  c.seed = kDataSeed;
  return c;
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(uint64_t seed, bool hot) : hot_(hot) {
    // Inputs: the table is rebuilt identically by every set-up; this copy
    // only generates and labels queries.
    const uae::data::Table table = uae::data::SyntheticDmv(kRows, kDataSeed);
    num_rows_ = static_cast<double>(table.num_rows());
    std::unordered_set<uint64_t> seen;
    uae::workload::QueryGenerator train_gen(table, QueryConfig(), kDataSeed + 1);
    train_ = train_gen.GenerateLabeled(kTrainQueries, &seen);

    uae::workload::QueryGenerator scored_gen(table, QueryConfig(), kDataSeed + 2);
    while (scored_.size() < kScored) {
      uae::workload::Query q = scored_gen.Generate();
      if (seen.insert(q.Fingerprint()).second) scored_.push_back(std::move(q));
    }
    uae::workload::QueryGenerator gen(table, QueryConfig(), seed);
    const size_t pool_size = hot ? kHotPool : kColdPool;
    while (pool_.size() < pool_size) {
      uae::workload::Query q = gen.Generate();
      if (seen.insert(q.Fingerprint()).second) pool_.push_back(std::move(q));
    }
    if (hot) {
      uae::util::Rng rng(seed ^ 0x5eedULL);
      stream_.resize(kHotStream);
      for (uint32_t& i : stream_) {
        i = static_cast<uint32_t>(rng.Zipf(static_cast<int64_t>(kHotPool), 1.0));
      }
    }
    const std::vector<int64_t> counts = uae::workload::ExecuteCounts(table, scored_);
    truths_.assign(counts.begin(), counts.end());
  }

  double Setup(Tracer* tracer) override {
    service_.reset();
    timed_.reset();
    uae_.reset();
    table_.reset();
    epoch_s_.clear();
    const Clock::time_point t0 = Clock::now();
    table_ = std::make_unique<uae::data::Table>(uae::data::SyntheticDmv(kRows, kDataSeed));
    uae_ = std::make_shared<uae::core::Uae>(*table_, ModelConfig());
    uae_->TrainHybridEpochs(train_, kEpochs, [this](const uae::core::TrainStats& s) {
      epoch_s_.push_back(s.seconds);
    });
    std::shared_ptr<const uae::core::ServableModel> model = uae_;
    if (tracer != nullptr) {
      timed_ = std::make_shared<TimedServable>(uae_, tracer, kMaxReplayQueries);
      model = timed_;
    }
    service_ = std::make_unique<uae::serve::EstimationService>(model);
    return MicrosSince(t0) / 1e6;
  }

  PassResult Pass(double seconds, Tracer* tracer) override {
    PassResult r;
    const int clients = NumClients();
    CallLog log(clients, seconds);
    std::vector<Tally> tallies(static_cast<size_t>(clients));
    std::vector<double> parity_served(kParityPositions, std::nan(""));
    const uint64_t limit = hot_ ? UINT64_MAX : pool_.size();
    r.window_s = RunClosedLoop(clients, seconds, limit, &log, [&](int c, uint64_t pos) {
      const uae::workload::Query& q = QueryAt(pos);
      const Clock::time_point t0 = Clock::now();
      try {
        const double card = service_->Estimate(q).card;
        log.Add(c, t0, Clock::now());
        tallies[static_cast<size_t>(c)].Estimate(card, num_rows_, "served estimate");
        if (pos < kParityPositions) parity_served[pos] = card;
      } catch (const std::exception& e) {
        tallies[static_cast<size_t>(c)].Fail(std::string("exception: ") + e.what());
      }
    });
    for (const Tally& t : tallies) r.tally.Merge(t);
    r.call = log.Summarize();
    r.qps = r.call.per_s;
    r.model_bytes = static_cast<double>(uae_->SizeBytes());
    const uae::serve::ResultCacheStats cache = service_->CacheStats();
    const double distinct = hot_ ? static_cast<double>(kHotPool) : static_cast<double>(log.calls());
    if (tracer != nullptr) AddLayers(tracer, log, &r);

    // The window's leading calls equal the direct model call bitwise.
    std::vector<uae::workload::Query> leading;
    for (size_t p = 0; p < kParityPositions; ++p) leading.push_back(QueryAt(p));
    const std::vector<double> leading_direct = uae_->EstimateCards(leading);
    for (size_t p = 0; p < kParityPositions; ++p) {
      r.tally.Parity(parity_served[p], leading_direct[p], "served vs direct");
    }

    // Scored set, served through the same service after the window.
    std::vector<std::future<uae::serve::ServeResult>> futures;
    for (const uae::workload::Query& q : scored_) futures.push_back(service_->EstimateAsync(q));
    std::vector<double> served;
    for (auto& f : futures) {
      served.push_back(f.get().card);
      r.tally.Estimate(served.back(), num_rows_, "scored estimate");
    }
    std::vector<uae::workload::Query> sample;
    for (size_t i = 0; i < scored_.size(); i += kScoredParityStride) sample.push_back(scored_[i]);
    const std::vector<double> direct = uae_->EstimateCards(sample);
    for (size_t i = 0; i < sample.size(); ++i) {
      r.tally.Parity(served[i * kScoredParityStride], direct[i], "scored served vs direct");
    }
    r.qerrors = QErrors(served, truths_, &r.tally);

    r.facts["table_rows"] = num_rows_;
    r.facts["distinct_queries"] = distinct;
    r.facts["cache_capacity"] = static_cast<double>(service_->config().cache.capacity);
    r.facts["cache_capacity_over_distinct"] =
        static_cast<double>(service_->config().cache.capacity) / std::max(1.0, distinct);
    r.facts["cache_evictions"] = static_cast<double>(cache.evictions);
    return r;
  }

 private:
  const uae::workload::Query& QueryAt(uint64_t pos) const {
    return hot_ ? pool_[stream_[pos % stream_.size()]] : pool_[pos];
  }

  void AddLayers(Tracer* tracer, const CallLog& log, PassResult* r) {
    const std::vector<Span> model_spans = tracer->Named("core.estimate_cards");
    double model_request_us = 0.0;
    for (const Span& s : model_spans) model_request_us += s.micros() * static_cast<double>(s.items);
    AddServeLayer(*service_, &log, model_request_us, r);
    const SpanTotals est = Totals(model_spans);
    auto& layer = r->layer;
    if (est.items > 0) {
      layer["core.estimate_us_per_query"] = est.micros / static_cast<double>(est.items);
    }
    layer["core.train_epoch_s"] = Median(epoch_s_);

    const std::vector<TimedServable::Batch> batches = timed_->TakeBatches();
    const ReplayProfile p = ReplayWavefront(*uae_, batches, tracer);
    if (p.mismatches > 0) {
      r->tally.Fail("wavefront replay differs from served estimates on " +
                    std::to_string(p.mismatches) + " queries: " + p.first_mismatch);
    }
    r->tally.Ok(p.queries - p.mismatches);
    if (p.queries == 0) return;
    const double nq = static_cast<double>(p.queries);
    layer["core.sampler_self_us_per_query"] = p.sampler_self_us / nq;
    layer["core.forward_rows_per_query"] = static_cast<double>(p.forward_rows) / nq;
    layer["nn.forward_probs_us_per_query"] = p.forward_us / nq;
    layer["nn.softmax_us_per_query"] = p.softmax_us / nq;
    layer["nn.gemm_us_per_query"] = p.gemm_us / nq;
    layer["nn.forward_mflop_per_query"] = p.forward_mflop / nq;
    layer["nn.forward_mbytes_per_query"] = p.forward_mbytes / nq;
    r->facts["replayed_queries"] = nq;
  }

  const bool hot_;
  double num_rows_ = 0.0;
  uae::workload::Workload train_;
  std::vector<uae::workload::Query> pool_;
  std::vector<uint32_t> stream_;  ///< serve-hot: pool index per position.
  std::vector<uae::workload::Query> scored_;
  std::vector<double> truths_;    ///< True cards of scored_.

  std::unique_ptr<uae::data::Table> table_;
  std::shared_ptr<uae::core::Uae> uae_;
  std::shared_ptr<TimedServable> timed_;
  std::unique_ptr<uae::serve::EstimationService> service_;
  std::vector<double> epoch_s_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(uint64_t seed, bool hot) {
  return std::make_unique<ServeWorkload>(seed, hot);
}

}  // namespace perfbench
