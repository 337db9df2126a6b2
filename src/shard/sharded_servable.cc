#include "shard/sharded_servable.h"

#include <algorithm>
#include <numeric>

#include "util/common.h"
#include "util/threadpool.h"

namespace uae::shard {

ShardedServable::ShardedServable(const data::Table& table,
                                 const ShardedServableConfig& config,
                                 const ServableFactory& factory)
    : base_seed_(config.base_seed) {
  UAE_CHECK(factory != nullptr);
  auto partitioner = std::make_shared<HorizontalPartitioner>(table, config.partition);
  shard_tables_ = std::make_shared<std::vector<data::Table>>(
      partitioner->Materialize(table, table.name()));
  partitioner_ = std::move(partitioner);

  const int n = partitioner_->num_shards();
  models_.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    models_.push_back(factory((*shard_tables_)[static_cast<size_t>(s)], s,
                              MixShardSeed(base_seed_, s)));
    UAE_CHECK(models_.back() != nullptr);
  }
}

ShardedServable::ShardedServable(const ShardedServable& other)
    : core::ServableModel(other),
      partitioner_(other.partitioner_),
      shard_tables_(other.shard_tables_),
      base_seed_(other.base_seed_),
      prune_(other.prune_) {
  models_.reserve(other.models_.size());
  for (const auto& m : other.models_) models_.push_back(m->CloneServable());
}

std::shared_ptr<core::ServableModel> ShardedServable::CloneServable() const {
  return std::shared_ptr<core::ServableModel>(new ShardedServable(*this));
}

double ShardedServable::EstimateCard(const workload::Query& query) const {
  const size_t n = models_.size();
  stat_queries_.fetch_add(1, std::memory_order_relaxed);
  double total = 0.0;
  if (prune_) {
    std::vector<int> cands = partitioner_->CandidateShards(query);
    stat_evaluated_.fetch_add(cands.size(), std::memory_order_relaxed);
    stat_pruned_.fetch_add(n - cands.size(), std::memory_order_relaxed);
    for (int s : cands) total += models_[static_cast<size_t>(s)]->EstimateCard(query);
  } else {
    stat_evaluated_.fetch_add(n, std::memory_order_relaxed);
    for (const auto& m : models_) total += m->EstimateCard(query);
  }
  return total;
}

std::vector<double> ShardedServable::EstimateCards(
    std::span<const workload::Query> queries) const {
  // Group queries per shard so each shard model answers one batched
  // EstimateCards call instead of one call per (query, shard). Shards are
  // accumulated in ascending order — the same per-query summation order as
  // EstimateCard's pruned fan-out — and every per-shard estimate is a pure
  // function of (shard model, query), so element i stays bit-identical to
  // EstimateCard(queries[i]) for any batch size or thread count.
  const size_t n_q = queries.size();
  const size_t n_s = models_.size();
  std::vector<double> cards(n_q, 0.0);
  if (n_q == 0) return cards;
  stat_queries_.fetch_add(n_q, std::memory_order_relaxed);
  std::vector<std::vector<size_t>> per_shard(n_s);
  if (prune_) {
    uint64_t evaluated = 0;
    for (size_t i = 0; i < n_q; ++i) {
      std::vector<int> cands = partitioner_->CandidateShards(queries[i]);
      evaluated += cands.size();
      for (int s : cands) per_shard[static_cast<size_t>(s)].push_back(i);
    }
    stat_evaluated_.fetch_add(evaluated, std::memory_order_relaxed);
    stat_pruned_.fetch_add(n_s * n_q - evaluated, std::memory_order_relaxed);
  } else {
    stat_evaluated_.fetch_add(n_s * n_q, std::memory_order_relaxed);
    for (size_t s = 0; s < n_s; ++s) {
      per_shard[s].resize(n_q);
      std::iota(per_shard[s].begin(), per_shard[s].end(), size_t{0});
    }
  }
  std::vector<workload::Query> batch;
  for (size_t s = 0; s < n_s; ++s) {
    const std::vector<size_t>& idx = per_shard[s];
    if (idx.empty()) continue;
    batch.clear();
    batch.reserve(idx.size());
    for (size_t i : idx) batch.push_back(queries[i]);
    std::vector<double> ests = models_[s]->EstimateCards(batch);
    for (size_t j = 0; j < idx.size(); ++j) cards[idx[j]] += ests[j];
  }
  return cards;
}

size_t ShardedServable::SizeBytes() const {
  size_t total = 0;
  for (const auto& m : models_) total += m->SizeBytes();
  return total;
}

size_t ShardedServable::num_rows() const {
  size_t total = 0;
  for (const auto& m : models_) total += m->num_rows();
  return total;
}

size_t ShardedServable::RouteWorkload(
    const workload::Workload& workload,
    std::vector<workload::Workload>* per_shard) const {
  per_shard->assign(models_.size(), {});
  size_t dropped = 0;
  for (const workload::LabeledQuery& lq : workload) {
    std::vector<int> cands = partitioner_->CandidateShards(lq.query);
    if (cands.size() != 1) {
      // Spanning (or provably empty) query: the global true cardinality
      // cannot be attributed to one shard's rows.
      ++dropped;
      continue;
    }
    const size_t s = static_cast<size_t>(cands[0]);
    workload::LabeledQuery routed = lq;
    routed.selectivity =
        lq.card /
        static_cast<double>(std::max<size_t>(1, models_[s]->num_rows()));
    (*per_shard)[s].push_back(std::move(routed));
  }
  return dropped;
}

size_t ShardedServable::FineTune(const workload::Workload& workload,
                                 const core::FineTuneSpec& spec) {
  std::vector<workload::Workload> per_shard;
  RouteWorkload(workload, &per_shard);
  std::atomic<size_t> used{0};
  // Shards are disjoint models fine-tuning disjoint slices; each model's own
  // FineTune is deterministic, so cross-shard parallelism cannot change bits.
  util::ParallelFor(
      0, models_.size(),
      [&](size_t lo, size_t hi) {
        for (size_t s = lo; s < hi; ++s) {
          if (!per_shard[s].empty()) {
            used.fetch_add(models_[s]->FineTune(per_shard[s], spec),
                           std::memory_order_relaxed);
          }
        }
      },
      /*min_parallel_size=*/1);
  return used.load(std::memory_order_relaxed);
}

ShardedServable::FanoutStats ShardedServable::fanout_stats() const {
  FanoutStats s;
  s.queries = stat_queries_.load(std::memory_order_relaxed);
  s.evaluated = stat_evaluated_.load(std::memory_order_relaxed);
  s.pruned = stat_pruned_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace uae::shard
