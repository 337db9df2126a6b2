// plan-joins: join ordering on the JOB-M-like IMDB star with a hybrid-trained
// join UAE behind the serving stack. Planner threads share one
// optimizer::ServedCardProvider; each plans distinct test join queries with
// optimizer::OptimizeJoinOrder, which Prewarms the query's connected
// sub-plans (a burst of async requests that fills micro-batches) and then
// runs the DP over them. Join estimates run the per-query progressive
// sampler (Uae::EstimateJoinCards), not the wavefront.
#include <algorithm>
#include <cmath>
#include <future>
#include <unordered_set>

#include "core/uae.h"
#include "data/imdb_star.h"
#include "optimizer/dp_optimizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kTitles = 2000;
constexpr size_t kTrainQueries = 150;
constexpr int kEpochs = 1;
constexpr size_t kPool = 8000;   ///< Distinct test queries; > any window's demand.
constexpr size_t kScored = 120;  ///< Fixed scored join queries (x their sub-plans).
constexpr size_t kParityPlans = 4;

uae::data::ImdbStarConfig StarConfig() {
  uae::data::ImdbStarConfig c;
  c.num_titles = kTitles;
  c.seed = kDataSeed;
  c.dims = uae::data::JobMDims();
  return c;
}

uae::core::UaeConfig ModelConfig() {
  // As the Figure 6 bench: factorize wide universe columns, lambda 1.
  uae::core::UaeConfig c;
  c.hidden = 64;
  c.ps_samples = 32;
  c.dps_samples = 16;
  c.data_batch = 1024;
  c.factor_threshold = 64;
  c.factor_bits = 5;
  c.lambda = 1.0f;
  c.seed = kDataSeed;
  return c;
}

/// The >= 2-table connected sub-plans of `full` (the set the DP prewarms).
std::vector<uint32_t> ConnectedSubplans(uint32_t full) {
  std::vector<uint32_t> submasks;
  for (uint32_t s = 1; s <= full; ++s) {
    if ((s & full) != s || __builtin_popcount(s) < 2 || !(s & 1u)) continue;
    submasks.push_back(s);
  }
  return submasks;
}

class PlanWorkload final : public Workload {
 public:
  explicit PlanWorkload(uint64_t seed) {
    universe_ = std::make_unique<uae::data::JoinUniverse>(uae::data::BuildImdbStar(StarConfig()));
    std::unordered_set<uint64_t> seen;
    uae::workload::JoinGeneratorConfig train_cfg;
    train_cfg.focused = false;
    uae::workload::JoinQueryGenerator train_gen(*universe_, train_cfg, kDataSeed + 1);
    train_ = train_gen.GenerateLabeled(kTrainQueries, &seen);
    // The Figure 6 test shape: all tables, wider year ranges, 2-4 filters.
    uae::workload::JoinGeneratorConfig test_cfg;
    test_cfg.focused = true;
    test_cfg.target_volume = 0.3;
    test_cfg.min_filters = 2;
    test_cfg.max_filters = 4;
    uae::workload::JoinQueryGenerator scored_gen(*universe_, test_cfg, kDataSeed + 2);
    while (scored_.size() < kScored) {
      uae::workload::JoinQuery q = scored_gen.Generate();
      if (seen.insert(uae::workload::JoinFingerprint(q)).second) scored_.push_back(std::move(q));
    }
    uae::workload::JoinQueryGenerator gen(*universe_, test_cfg, seed);
    while (pool_.size() < kPool) {
      uae::workload::JoinQuery q = gen.Generate();
      if (seen.insert(uae::workload::JoinFingerprint(q)).second) pool_.push_back(std::move(q));
    }
  }

  double Setup(Tracer* tracer) override {
    provider_.reset();
    service_.reset();
    uae_.reset();
    served_universe_.reset();
    epoch_s_.clear();
    const Clock::time_point t0 = Clock::now();
    served_universe_ =
        std::make_unique<uae::data::JoinUniverse>(uae::data::BuildImdbStar(StarConfig()));
    uae_ = std::make_shared<uae::core::Uae>(*served_universe_, ModelConfig());
    uae_->TrainHybridEpochs(train_, kEpochs, [this](const uae::core::TrainStats& s) {
      epoch_s_.push_back(s.seconds);
    });
    std::shared_ptr<const uae::core::ServableModel> model = uae_;
    if (tracer != nullptr) model = std::make_shared<TimedServable>(uae_, tracer, 0);
    service_ = std::make_unique<uae::serve::EstimationService>(model);
    provider_ = std::make_unique<uae::optimizer::ServedCardProvider>(*served_universe_,
                                                                     service_.get());
    return MicrosSince(t0) / 1e6;
  }

  PassResult Pass(double seconds, Tracer* tracer) override {
    PassResult r;
    const int clients = NumClients();
    CallLog log(clients, seconds);
    std::vector<std::vector<double>> prewarm_ms(static_cast<size_t>(clients));
    std::vector<std::vector<double>> dp_ms(static_cast<size_t>(clients));
    std::vector<Tally> tallies(static_cast<size_t>(clients));
    std::vector<std::unique_ptr<TimedCardProvider>> timed;
    for (int c = 0; c < clients && tracer != nullptr; ++c) {
      timed.push_back(std::make_unique<TimedCardProvider>(provider_.get(), tracer));
    }
    const uae::data::JoinUniverse& uni = *served_universe_;
    const double full_rows = static_cast<double>(uni.full_join_rows);
    const uint64_t requests_before = service_->Stats().requests;
    r.window_s = RunClosedLoop(clients, seconds, pool_.size(), &log, [&](int c, uint64_t pos) {
      const size_t ci = static_cast<size_t>(c);
      uae::optimizer::JoinCardProvider* cards =
          tracer != nullptr ? static_cast<uae::optimizer::JoinCardProvider*>(timed[ci].get())
                            : provider_.get();
      const Clock::time_point t0 = Clock::now();
      try {
        uae::optimizer::PlanResult plan = uae::optimizer::OptimizeJoinOrder(uni, pool_[pos], cards);
        const Clock::time_point t1 = Clock::now();
        log.Add(c, t0, t1);
        const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
        if (tracer != nullptr) {
          prewarm_ms[ci].push_back(timed[ci]->last_prewarm_us() / 1e3);
          dp_ms[ci].push_back((us - timed[ci]->last_prewarm_us()) / 1e3);
        }
        if (!std::isfinite(plan.estimated_cost) || plan.join_order.empty()) {
          tallies[ci].Fail("plan with non-finite cost or no join order");
        } else {
          tallies[ci].Ok();
        }
      } catch (const std::exception& e) {
        tallies[ci].Fail(std::string("exception: ") + e.what());
      }
    });
    for (const Tally& t : tallies) r.tally.Merge(t);
    r.call = log.Summarize();
    r.qps = static_cast<double>(service_->Stats().requests - requests_before) / r.window_s;
    r.model_bytes = static_cast<double>(uae_->SizeBytes());
    const double plans = static_cast<double>(log.calls());
    if (tracer != nullptr) {
      AddServeLayer(*service_, nullptr, 0.0, &r);
      const SpanTotals est = Totals(tracer->Named("core.estimate_join_cards"));
      if (est.items > 0) {
        r.layer["core.join_estimate_us_per_query"] = est.micros / static_cast<double>(est.items);
      }
      r.layer["core.train_epoch_s"] = Median(epoch_s_);
      std::vector<double> pw, dp;
      for (size_t c = 0; c < prewarm_ms.size(); ++c) {
        pw.insert(pw.end(), prewarm_ms[c].begin(), prewarm_ms[c].end());
        dp.insert(dp.end(), dp_ms[c].begin(), dp_ms[c].end());
      }
      r.layer["optimizer.prewarm_ms_p50"] = Median(pw);
      r.layer["optimizer.dp_ms_p50"] = Median(dp);
      r.layer["optimizer.service_requests_per_query"] =
          static_cast<double>(provider_->stats().service_requests) / std::max(1.0, plans);
    }

    // Scoring, after the window: the fixed scored queries are planned by the
    // same planners through the same provider; their sub-plan estimates are
    // scored against true cards, and their plans' C_out against the
    // true-card plan's, both priced under true cards (the Figure 6
    // plan_cost_ratio).
    std::vector<std::vector<int>> orders(kScored);
    RunClosedLoop(clients, 1e9, kScored, nullptr, [&](int, uint64_t pos) {
      try {
        orders[pos] = uae::optimizer::OptimizeJoinOrder(uni, scored_[pos], provider_.get()).join_order;
      } catch (const std::exception&) {
        // Left empty: counted as a failure below.
      }
    });
    uae::optimizer::TrueCardProvider truth(uni);
    std::vector<double> served, truths;
    double log_ratio = 0.0;
    for (size_t p = 0; p < kScored; ++p) {
      if (orders[p].empty()) {
        r.tally.Fail("scored query " + std::to_string(p) + " was not planned");
        return r;
      }
      const uae::workload::JoinQuery& q = scored_[p];
      const std::vector<uint32_t> subs = ConnectedSubplans(q.table_mask);
      std::vector<uae::workload::JoinQuery> sub_queries;
      std::vector<std::future<uae::serve::ServeResult>> futures;
      for (uint32_t s : subs) {
        sub_queries.push_back(uae::workload::RestrictToSubset(uni, q, s));
        futures.push_back(service_->EstimateJoinAsync(sub_queries.back()));
        truths.push_back(truth.Card(q, s));
      }
      for (auto& f : futures) {
        served.push_back(f.get().card);
        r.tally.Estimate(served.back(), full_rows, "served join estimate");
      }
      if (p < kParityPlans) {
        const std::vector<double> direct = uae_->EstimateJoinCards(sub_queries);
        for (size_t i = 0; i < direct.size(); ++i) {
          r.tally.Parity(served[served.size() - direct.size() + i], direct[i],
                         "served vs direct join estimate");
        }
      }
      const double true_cost =
          std::max(uae::optimizer::OptimizeJoinOrder(uni, q, &truth).estimated_cost, 1.0);
      const double chosen_cost =
          std::max(uae::optimizer::PlanCOutCost(uni, q, orders[p], &truth), 1.0);
      log_ratio += std::log(chosen_cost / true_cost);
    }
    r.qerrors = QErrors(served, truths, &r.tally);
    r.layer["optimizer.plan_cost_ratio"] = std::exp(log_ratio / static_cast<double>(kScored));

    r.facts["universe_rows"] = full_rows;
    r.facts["tables"] = uni.NumTables();
    r.facts["distinct_queries"] = plans;
    double distinct_subplans = 0.0;
    for (size_t p = 0; p < log.calls(); ++p) {
      distinct_subplans += static_cast<double>(ConnectedSubplans(pool_[p].table_mask).size());
    }
    r.facts["distinct_subplans"] = distinct_subplans;
    r.facts["cache_capacity"] = static_cast<double>(service_->config().cache.capacity);
    r.facts["cache_capacity_over_distinct"] =
        static_cast<double>(service_->config().cache.capacity) / std::max(1.0, distinct_subplans);
    return r;
  }

 private:
  /// Input copy of the universe: generates and labels the queries.
  std::unique_ptr<uae::data::JoinUniverse> universe_;
  uae::workload::JoinWorkload train_;
  std::vector<uae::workload::JoinQuery> pool_;
  std::vector<uae::workload::JoinQuery> scored_;

  std::unique_ptr<uae::data::JoinUniverse> served_universe_;
  std::shared_ptr<uae::core::Uae> uae_;
  std::unique_ptr<uae::serve::EstimationService> service_;
  std::unique_ptr<uae::optimizer::ServedCardProvider> provider_;
  std::vector<double> epoch_s_;
};

}  // namespace

std::unique_ptr<Workload> MakePlanWorkload(uint64_t seed) {
  return std::make_unique<PlanWorkload>(seed);
}

}  // namespace perfbench
