// ingest-refresh: writes beside reads on a sharded UAE. One producer streams
// rows through ingest::IngestService::Append, concentrated in the last
// shard's partition band and carrying some never-seen values; after each
// round of the stream one synchronous RefreshController::RefreshIfStale()
// retrains the stale shard and publishes. Meanwhile two reader clients send
// distinct queries through the service. Rounds repeat until the window ends.
//
// An untimed, seed-independent warm-up round runs first; the snapshot it
// publishes answers the fixed scored test set, labeled over the table as it
// stood after that round, so the q-errors depend neither on the seed nor on
// how many rounds fit in the window.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <thread>
#include <unordered_set>

#include "data/synthetic.h"
#include "ingest/refresh.h"
#include "shard/sharded_uae.h"
#include "util/rng.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 8000;
constexpr int kEpochs = 1;
constexpr size_t kRoundRows = 2048;   ///< Rows streamed per round ...
constexpr size_t kUnseenRows = 64;    ///< ... of which carry a new value.
constexpr size_t kCompactMinDelta = 512;  ///< Several compactions per round.
constexpr double kRoundPeriodS = 0.5;     ///< A round starts every this often.
constexpr int kReaders = 2;
constexpr size_t kReadPool = 40000;
constexpr size_t kParityReads = 200;
constexpr size_t kTestQueries = 2000;
constexpr size_t kShardCheckQueries = 32;

uae::shard::ShardedUaeConfig ModelConfig(int shards) {
  uae::shard::ShardedUaeConfig c;
  c.partition.num_shards = shards;
  c.base.hidden = 32;
  c.base.ps_samples = 64;
  c.base.seed = kDataSeed;
  return c;
}

class IngestWorkload final : public Workload {
 public:
  explicit IngestWorkload(uint64_t seed) : seed_(seed), shards_(NumClients()) {
    const uae::data::Table table = uae::data::SyntheticDmv(kRows, kDataSeed);
    const uae::shard::HorizontalPartitioner part(table, ModelConfig(shards_).partition);
    const int pcol = part.partition_col();
    const uae::shard::ShardDescriptor& band = part.shard(part.num_shards() - 1);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const int32_t c = table.column(pcol).code_at(r);
      if (c >= band.code_lo && c <= band.code_hi) band_rows_.push_back(table.RowCodes(r));
    }
    unseen_col_ = pcol == 0 ? 1 : 0;
    unseen_base_ = static_cast<int64_t>(table.column(unseen_col_).domain()) + 7;

    std::unordered_set<uint64_t> seen;
    // The scored test set targets the band the stream drifts.
    uae::workload::GeneratorConfig band_cfg;
    const double domain = table.column(pcol).domain();
    band_cfg.center_min = band.code_lo / domain;
    band_cfg.center_max = (band.code_hi + 1) / domain;
    band_cfg.min_filters = 1;
    band_cfg.max_filters = 2;
    band_cfg.target_volume = 0.1;
    uae::workload::QueryGenerator test_gen(table, band_cfg, kDataSeed + 2);
    while (tests_.size() < kTestQueries) {
      uae::workload::Query q = test_gen.Generate();
      if (seen.insert(q.Fingerprint()).second) tests_.push_back(std::move(q));
    }
    uae::workload::QueryGenerator read_gen(table, {}, seed);
    while (reads_.size() < kReadPool) {
      uae::workload::Query q = read_gen.Generate();
      if (seen.insert(q.Fingerprint()).second) reads_.push_back(std::move(q));
    }
  }

  double Setup(Tracer* tracer) override {
    controller_.reset();
    ingest_.reset();
    service_.reset();
    model_.reset();
    table_.reset();
    const Clock::time_point t0 = Clock::now();
    table_ = std::make_unique<uae::data::Table>(uae::data::SyntheticDmv(kRows, kDataSeed));
    model_ = std::make_shared<uae::shard::ShardedUae>(*table_, ModelConfig(shards_));
    const Clock::time_point train0 = Clock::now();
    model_->TrainDataEpochs(kEpochs);
    train_epoch_s_ = MicrosSince(train0) / 1e6 / kEpochs;
    service_ = std::make_unique<uae::serve::EstimationService>(model_);
    uae::ingest::IngestConfig ic;
    ic.compact_min_delta = kCompactMinDelta;
    ingest_ = std::make_unique<uae::ingest::IngestService>(table_.get(), &model_->partitioner(), ic);
    controller_ = std::make_unique<uae::ingest::RefreshController>(ingest_.get(), service_.get(),
                                                                    model_);
    return MicrosSince(t0) / 1e6;
  }

  PassResult Pass(double seconds, Tracer* tracer) override {
    PassResult r;
    // ---- Warm-up round (untimed): its snapshot answers the scored set. ----
    std::vector<double> blocked_us;
    uae::ingest::RefreshResult warm =
        StreamAndRefresh(0, &r.tally, &blocked_us, nullptr, nullptr);
    blocked_us.clear();
    if (warm.outcome != uae::ingest::RefreshOutcome::kPublished) {
      r.tally.Fail("warm-up refresh did not publish");
      return r;
    }
    const size_t warm_rows = table_->num_rows();
    const std::shared_ptr<const uae::serve::ModelSnapshot> scored_snapshot =
        service_->CurrentSnapshot();
    std::map<uint64_t, double> rows_of_generation = {
        {scored_snapshot->generation, static_cast<double>(scored_snapshot->model->num_rows())}};
    // Every generation served in the window, and the shards each refresh
    // retrained; checked after the window so the checks do not load it.
    std::vector<std::shared_ptr<const uae::shard::ShardedUae>> lineage = {
        controller_->current_base()};
    std::vector<std::vector<int>> refreshed;
    const uae::ingest::IngestStats ingest_before = ingest_->stats();
    const uae::ingest::RefreshStats refresh_before = controller_->Stats();

    // ---- Timed window: readers throughout, paced rounds of stream + refresh.
    std::vector<std::vector<Read>> reads(kReaders);
    CallLog log(kReaders, seconds);
    std::vector<Tally> reader_tally(kReaders);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> next{0};
    std::vector<std::thread> readers;
    const Clock::time_point start = Clock::now();
    log.Start(start);
    for (int c = 0; c < kReaders; ++c) {
      readers.emplace_back([&, c] {
        while (!stop.load(std::memory_order_acquire)) {
          const uint64_t pos = next.fetch_add(1, std::memory_order_relaxed);
          const Clock::time_point t0 = Clock::now();
          try {
            const uae::serve::ServeResult res = service_->Estimate(reads_[pos % reads_.size()]);
            log.Add(c, t0, Clock::now());
            reads[c].push_back({pos, res.card, res.generation});
          } catch (const std::exception& e) {
            reader_tally[c].Fail(std::string("exception: ") + e.what());
          }
        }
      });
    }
    std::vector<double> rows_per_s, refresh_s;
    const int rounds = std::max(1, static_cast<int>(seconds / kRoundPeriodS));
    try {
      for (int round = 1; round <= rounds; ++round) {
        // Rounds start on a fixed schedule, so the rows ingested per window
        // (and the table's growth) do not depend on how fast a round runs.
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>((round - 1) * kRoundPeriodS)));
        uae::ingest::RefreshResult res =
            StreamAndRefresh(round, &r.tally, &blocked_us, &rows_per_s, tracer);
        refresh_s.push_back(res.seconds);
        if (res.outcome != uae::ingest::RefreshOutcome::kPublished) {
          r.tally.Fail(std::string("refresh did not publish: ") +
                       uae::ingest::RefreshOutcomeName(res.outcome));
          continue;
        }
        r.tally.Ok();
        rows_of_generation[res.generation] =
            static_cast<double>(service_->CurrentSnapshot()->model->num_rows());
        lineage.push_back(controller_->current_base());
        refreshed.push_back(res.refreshed_shards);
      }
    } catch (const std::exception& e) {
      // The readers are stopped and joined below either way.
      r.tally.Fail(std::string("ingest round threw: ") + e.what());
    }
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds)));
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    r.window_s = MicrosSince(start) / 1e6;
    for (const Tally& t : reader_tally) r.tally.Merge(t);
    r.call = log.Summarize();
    r.qps = r.call.per_s;
    r.model_bytes = static_cast<double>(scored_snapshot->model->SizeBytes());
    const std::shared_ptr<const uae::serve::ModelSnapshot> final_snapshot =
        service_->CurrentSnapshot();

    if (tracer != nullptr) {
      AddServeLayer(*service_, nullptr, 0.0, &r);  // No model span to subtract here.
      uae::shard::ShardedUae::FanoutStats fan;
      double shards_refreshed = 0.0;
      for (size_t i = 0; i < lineage.size(); ++i) {
        const uae::shard::ShardedUae::FanoutStats f = lineage[i]->fanout_stats();
        fan.queries += f.queries;
        fan.evaluated += f.evaluated;
        fan.pruned += f.pruned;
        if (i < refreshed.size()) shards_refreshed += static_cast<double>(refreshed[i].size());
      }
      const double q = std::max<double>(1.0, static_cast<double>(fan.queries));
      r.layer["shard.evaluated_per_query"] = static_cast<double>(fan.evaluated) / q;
      r.layer["shard.pruned_per_query"] = static_cast<double>(fan.pruned) / q;
      const uae::ingest::IngestStats is = ingest_->stats();
      const uae::ingest::RefreshStats rs = controller_->Stats();
      const double batches = static_cast<double>(is.batches - ingest_before.batches);
      const double published = static_cast<double>(rs.published - refresh_before.published);
      r.layer["ingest.rows_per_s"] = Median(rows_per_s);
      r.layer["ingest.refresh_s"] = Median(refresh_s);
      r.layer["ingest.rows_per_batch"] =
          static_cast<double>(is.rows_appended - ingest_before.rows_appended) / std::max(1.0, batches);
      r.layer["ingest.compactions"] = static_cast<double>(is.compactions - ingest_before.compactions);
      r.layer["ingest.folded_rows"] = static_cast<double>(is.folded_rows - ingest_before.folded_rows);
      r.layer["ingest.append_blocked_us_p99"] = Summarize(blocked_us).p99;
      r.layer["ingest.refresh_rows"] =
          static_cast<double>(rs.rows_ingested - refresh_before.rows_ingested) / std::max(1.0, published);
      r.layer["ingest.refreshed_shards"] = shards_refreshed / std::max(1.0, published);
      r.layer["core.train_epoch_s"] = train_epoch_s_;
    }

    CheckReads(reads, rows_of_generation, {scored_snapshot, final_snapshot}, &r.tally);
    for (size_t i = 0; i < refreshed.size(); ++i) {
      CheckUntouchedShards(*lineage[i], *lineage[i + 1], refreshed[i], &r.tally);
    }

    // Scored set: served by the warm-up snapshot through the serving stack,
    // labeled over the table prefix that snapshot was refreshed on.
    uae::serve::EstimationService scorer(scored_snapshot->model);
    std::vector<std::future<uae::serve::ServeResult>> futures;
    for (const uae::workload::Query& q : tests_) futures.push_back(scorer.EstimateAsync(q));
    std::vector<double> served;
    const double scored_rows = static_cast<double>(scored_snapshot->model->num_rows());
    for (auto& f : futures) {
      served.push_back(f.get().card);
      r.tally.Estimate(served.back(), scored_rows, "scored estimate");
    }
    const std::vector<double> direct = scored_snapshot->model->EstimateCards(tests_);
    for (size_t i = 0; i < direct.size(); ++i) {
      r.tally.Parity(served[i], direct[i], "scored served vs direct");
    }
    ingest_->Flush();
    ingest_->CompactNow();
    const uae::data::Table prefix = table_->Slice(0, warm_rows, "scored_prefix");
    const std::vector<int64_t> counts = uae::workload::ExecuteCounts(prefix, tests_);
    r.qerrors = QErrors(served, std::vector<double>(counts.begin(), counts.end()), &r.tally);

    r.facts["table_rows_base"] = static_cast<double>(kRows);
    r.facts["table_rows_scored"] = static_cast<double>(warm_rows);
    r.facts["table_rows_final"] = static_cast<double>(table_->num_rows());
    r.facts["shards"] = shards_;
    r.facts["rounds"] = static_cast<double>(refresh_s.size());
    r.facts["round_period_s"] = kRoundPeriodS;
    r.facts["distinct_queries"] = static_cast<double>(std::min<uint64_t>(reads_.size(), log.calls()));
    r.facts["cache_capacity"] = static_cast<double>(service_->config().cache.capacity);
    r.facts["cache_capacity_over_distinct"] =
        static_cast<double>(service_->config().cache.capacity) /
        std::max<double>(1.0, r.facts["distinct_queries"]);
    return r;
  }

 private:
  struct Read {
    uint64_t pos = 0;
    double card = 0.0;
    uint64_t generation = 0;
  };

  /// Streams round `round` of the ingest stream, waits until it is applied,
  /// and runs one refresh. Appends are timed one by one; the round's rows/s
  /// goes to `rows_per_s` when given, and its spans to `tracer` when given.
  uae::ingest::RefreshResult StreamAndRefresh(int round, Tally* tally, std::vector<double>* blocked_us,
                                              std::vector<double>* rows_per_s, Tracer* tracer) {
    // The warm-up round is fixed, like the scored set it is judged on.
    uae::util::Rng rng(round == 0 ? kDataSeed : seed_ * 1000003ULL + static_cast<uint64_t>(round));
    const uae::data::Table& table = *table_;
    std::vector<std::vector<uae::data::Value>> rows(kRoundRows);
    for (size_t i = 0; i < kRoundRows; ++i) {
      const std::vector<int32_t>& src =
          band_rows_[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(band_rows_.size()) - 1))];
      for (size_t c = 0; c < src.size(); ++c) {
        const bool unseen = i < kUnseenRows && static_cast<int>(c) == unseen_col_;
        rows[i].push_back(unseen ? uae::data::Value(unseen_base_ + round)
                                 : table.column(static_cast<int>(c)).ValueForCode(src[c]));
      }
    }
    const Clock::time_point t0 = Clock::now();
    std::optional<ScopedSpan> stream;
    if (tracer != nullptr) stream.emplace(tracer, "ingest.stream", static_cast<int64_t>(kRoundRows));
    for (auto& row : rows) {
      const Clock::time_point a = Clock::now();
      const bool ok = ingest_->Append(std::move(row));
      blocked_us->push_back(MicrosSince(a));
      if (ok) {
        tally->Ok();
      } else {
        tally->Fail("append refused");
      }
    }
    ingest_->Flush();
    stream.reset();
    if (rows_per_s != nullptr) {
      rows_per_s->push_back(static_cast<double>(kRoundRows) / (MicrosSince(t0) / 1e6));
    }
    std::optional<ScopedSpan> refresh;
    if (tracer != nullptr) refresh.emplace(tracer, "ingest.refresh", 1);
    return controller_->RefreshIfStale();
  }

  /// Every read is finite and within [0, num_rows] of the generation that
  /// answered it; reads answered by a kept snapshot (up to kParityReads per
  /// snapshot) equal its direct estimate bitwise.
  void CheckReads(const std::vector<std::vector<Read>>& reads,
                  const std::map<uint64_t, double>& rows_of_generation,
                  const std::vector<std::shared_ptr<const uae::serve::ModelSnapshot>>& kept,
                  Tally* tally) {
    std::map<uint64_t, std::vector<const Read*>> sample;
    for (const auto& snap : kept) sample[snap->generation];
    for (const auto& per_reader : reads) {
      for (const Read& rd : per_reader) {
        auto rows = rows_of_generation.find(rd.generation);
        if (rows == rows_of_generation.end()) {
          tally->Fail("read answered by unknown generation " + std::to_string(rd.generation));
          continue;
        }
        tally->Estimate(rd.card, rows->second, "served read");
        auto it = sample.find(rd.generation);
        if (it != sample.end() && it->second.size() < kParityReads) it->second.push_back(&rd);
      }
    }
    for (const auto& snap : kept) {
      const std::vector<const Read*>& items = sample[snap->generation];
      std::vector<uae::workload::Query> qs;
      for (const Read* rd : items) qs.push_back(reads_[rd->pos % reads_.size()]);
      const std::vector<double> direct = snap->model->EstimateCards(qs);
      for (size_t i = 0; i < items.size(); ++i) {
        tally->Parity(items[i]->card, direct[i], "served read vs direct");
      }
    }
  }

  /// The refresh from `before` to `after` retrained a strict subset of the
  /// shards, and every shard it did not retrain answers bitwise as before.
  void CheckUntouchedShards(const uae::shard::ShardedUae& before,
                            const uae::shard::ShardedUae& after,
                            const std::vector<int>& refreshed, Tally* tally) {
    const std::unordered_set<int> touched(refreshed.begin(), refreshed.end());
    if (touched.empty() || touched.size() >= static_cast<size_t>(shards_)) {
      tally->Fail("a refresh retrained " + std::to_string(touched.size()) + " of " +
                  std::to_string(shards_) + " shards");
      return;
    }
    const std::span<const uae::workload::Query> probe(reads_.data(), kShardCheckQueries);
    for (int s = 0; s < shards_; ++s) {
      if (touched.count(s) != 0) continue;
      const std::vector<double> was = before.shard_model(s).EstimateCards(probe);
      const std::vector<double> now = after.shard_model(s).EstimateCards(probe);
      for (size_t k = 0; k < was.size(); ++k) {
        tally->Parity(now[k], was[k], "untouched shard after refresh vs before");
      }
    }
  }

  const uint64_t seed_;
  const int shards_;
  std::vector<std::vector<int32_t>> band_rows_;
  int unseen_col_ = 0;
  int64_t unseen_base_ = 0;
  std::vector<uae::workload::Query> reads_;
  std::vector<uae::workload::Query> tests_;

  std::unique_ptr<uae::data::Table> table_;
  std::shared_ptr<uae::shard::ShardedUae> model_;
  std::unique_ptr<uae::serve::EstimationService> service_;
  std::unique_ptr<uae::ingest::IngestService> ingest_;
  std::unique_ptr<uae::ingest::RefreshController> controller_;
  double train_epoch_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestWorkload(uint64_t seed) {
  return std::make_unique<IngestWorkload>(seed);
}

}  // namespace perfbench
