// ShardedServable — the one sharded deployment shape for any servable
// backend: one factory-built core::ServableModel per horizontal partition,
// presented as a single core::ServableModel. shard::ShardedUae is this class
// with a UAE factory; `ShardedServable(table, cfg, SpnFactory)` deploys
// per-shard SPNs with exactly the same semantics.
//
//  * EstimateCards answers a query as the SUM of per-shard cardinality
//    estimates — exact decomposition, since shards partition the rows.
//  * Pruned fan-out: when the query constrains the partition column, shards
//    whose code set is provably disjoint are skipped entirely (they
//    contribute zero true rows), so partition-targeted queries touch O(1)
//    models instead of N — and lose the spurious mass N-1 off-target models
//    would have contributed.
//  * Per-shard fine-tuning (FineTune): feedback queries that prune to exactly
//    one shard are routed to that shard's model — drift localized to one
//    partition refits one model, leaving the other shards' parameters
//    bit-identical. Queries spanning shards are skipped (their global label
//    cannot be attributed to a single shard).
//
// Determinism: shard k's model seed is MixShardSeed(base seed, k); shard 0
// keeps the base seed, so a one-shard deployment is bit-identical to the
// monolithic model it replaces.
//
// The shard tables are materialized once and shared (shared_ptr) by every
// clone, so backends that keep a table pointer (UAE, SPN) stay valid across
// the clone → fine-tune → publish cycle.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/servable.h"
#include "data/table.h"
#include "shard/partitioner.h"
#include "workload/query.h"

namespace uae::shard {

/// Builds the model for one shard. `shard_table` outlives the returned model
/// and all of its clones (owned by the ShardedServable's shared table
/// vector); `shard_seed` is MixShardSeed(base, shard_id), so shard 0 keeps
/// the base seed.
using ServableFactory = std::function<std::shared_ptr<core::ServableModel>(
    const data::Table& shard_table, int shard_id, uint64_t shard_seed)>;

struct ShardedServableConfig {
  PartitionConfig partition;
  uint64_t base_seed = 31;  ///< Mixed per shard; reported by seed().
};

class ShardedServable : public core::ServableModel {
 public:
  /// Partitions `table` and builds one model per shard with `factory`. The
  /// table is only read during construction: shard tables copy the codes and
  /// share the dictionaries, so the source may be destroyed afterwards.
  ShardedServable(const data::Table& table, const ShardedServableConfig& config,
                  const ServableFactory& factory);

  /// Pruned fan-out sum: skipped shards provably contribute zero true rows.
  double EstimateCard(const workload::Query& query) const override;
  /// Grouped per-shard batching; element i bit-identical to
  /// EstimateCard(queries[i]) (ascending-shard summation order).
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override;
  size_t SizeBytes() const override;
  /// Sum of the shard models' rows, so per-shard ingest needs no bookkeeping.
  size_t num_rows() const override;
  uint64_t seed() const override { return base_seed_; }
  /// Deep copy: every shard model is CloneServable()'d; partitioner and
  /// shard tables are shared (immutable).
  std::shared_ptr<core::ServableModel> CloneServable() const override;
  /// Routes each labeled query to the single shard it prunes to (selectivity
  /// re-derived from that shard's rows), drops spanning queries, and
  /// fine-tunes the targeted shard models in parallel — untouched shards
  /// stay bitwise identical. Returns the summed per-shard used counts: 0
  /// when every query spanned shards, in which case this model is still
  /// bit-identical and publishing it would be a pointless cache flush.
  size_t FineTune(const workload::Workload& workload,
                  const core::FineTuneSpec& spec) override;

  int num_shards() const { return static_cast<int>(models_.size()); }
  const core::ServableModel& shard_model(int s) const {
    return *models_[static_cast<size_t>(s)];
  }
  const HorizontalPartitioner& partitioner() const { return *partitioner_; }

  /// The routing rule FineTune uses, exposed for tests: fills per_shard with
  /// one workload per shard (selectivities re-derived from that shard's
  /// rows) and returns how many queries were dropped as
  /// spanning/unattributable.
  size_t RouteWorkload(const workload::Workload& workload,
                       std::vector<workload::Workload>* per_shard) const;

  /// Runtime pruning toggle (same models, different fan-out); off evaluates
  /// every shard for every query. The shard_scale bench uses it to measure
  /// what pruning buys.
  void set_prune(bool prune) { prune_ = prune; }

  /// Cumulative fan-out accounting across EstimateCard(s) calls.
  struct FanoutStats {
    uint64_t queries = 0;    ///< Queries estimated.
    uint64_t evaluated = 0;  ///< Shard-model evaluations performed.
    uint64_t pruned = 0;     ///< Shard-model evaluations skipped by pruning.
  };
  FanoutStats fanout_stats() const;

 protected:
  /// Clone plumbing: shares partitioner and shard tables, clones every shard
  /// model; the fan-out counters start at zero.
  ShardedServable(const ShardedServable& other);

  core::ServableModel& mutable_shard_model(int s) {
    return *models_[static_cast<size_t>(s)];
  }

 private:
  std::shared_ptr<const HorizontalPartitioner> partitioner_;
  std::shared_ptr<const std::vector<data::Table>> shard_tables_;
  std::vector<std::shared_ptr<core::ServableModel>> models_;
  uint64_t base_seed_ = 0;
  bool prune_ = true;

  mutable std::atomic<uint64_t> stat_queries_{0};
  mutable std::atomic<uint64_t> stat_evaluated_{0};
  mutable std::atomic<uint64_t> stat_pruned_{0};
};

}  // namespace uae::shard
