// ShardedUae — a ShardedServable whose factory builds one core::Uae per
// horizontal partition (the paper's one-table/one-model setting, per shard).
// Partitioning, pruned fan-out, routed per-shard fine-tuning, cloning and the
// fan-out counters all live in ShardedServable; this class adds only what
// needs the concrete model type:
//
//  * TrainDataEpochs parallelizes unsupervised training across shards over
//    the global pool (each shard's GEMMs still parallelize internally when
//    the pool has idle workers).
//  * IngestShardRows applies §4.5's incremental data training to one shard.
//  * Typed shard_model/Clone, and a CloneServable that stays a ShardedUae.
//
// Determinism: shard k's model seed is MixShardSeed(base seed, k); shard 0
// keeps the base seed, so ShardedUae with num_shards=1 is bit-identical to
// the monolithic Uae it replaces (same table rows, same dictionaries, same
// masks, same training RNG stream, same estimates).
#pragma once

#include <memory>

#include "core/uae.h"
#include "data/table.h"
#include "shard/partitioner.h"
#include "shard/sharded_servable.h"

namespace uae::shard {

struct ShardedUaeConfig {
  PartitionConfig partition;
  /// Shared per-shard model config; each shard's seed is derived from
  /// (base.seed, shard_id) via MixShardSeed.
  core::UaeConfig base;
};

class ShardedUae : public ShardedServable {
 public:
  /// Partitions `table` and builds one untrained Uae per shard.
  ShardedUae(const data::Table& table, const ShardedUaeConfig& config);

  /// Unsupervised epochs on every shard, shards fanned across the global
  /// pool. Equivalent to calling TrainDataEpochs on each shard model.
  void TrainDataEpochs(int epochs);
  /// Incremental data refresh for ONE shard (§4.5 applied per partition):
  /// appends `delta`'s rows to the shard model's training-code store and runs
  /// unsupervised epochs on the new rows only (core::Uae::IngestDataRows).
  /// Every code in `delta` must lie inside the frozen dictionaries — overflow
  /// codes never enter a model (the ingest layer accounts for them with an
  /// exact tail, see ingest/delta_model.h). Other shards are untouched
  /// (bit-identical parameters).
  void IngestShardRows(int s, const data::Table& delta, int epochs);

  const core::Uae& shard_model(int s) const {
    return static_cast<const core::Uae&>(ShardedServable::shard_model(s));
  }
  /// Typed clone (same semantics as CloneServable).
  std::unique_ptr<ShardedUae> Clone() const;
  std::shared_ptr<core::ServableModel> CloneServable() const override;

 private:
  ShardedUae(const ShardedUae& other) = default;  ///< Clone plumbing.

  core::Uae& mutable_shard_model(int s) {
    return static_cast<core::Uae&>(ShardedServable::mutable_shard_model(s));
  }
};

}  // namespace uae::shard
