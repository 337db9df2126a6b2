// bench/: the shared harness — flag parsing, dataset dispatch, the
// hoisted-workload evaluation path (prepare once, evaluate many estimator
// rows), the BENCH_*.json report and the rep timer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "data/synthetic.h"
#include "estimators/oracle.h"
#include "util/quantiles.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae::bench {
namespace {

TEST(FlagsTest, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "--rows=5000", "--lambda=0.01", "--name=dmv",
                        "--verbose"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("rows", 0), 5000);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lambda", 0.0), 0.01);
  EXPECT_EQ(flags.GetString("name", ""), "dmv");
  // Defaults for absent keys.
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_EQ(flags.GetString("missing", "x"), "x");
}

TEST(FlagsTest, IgnoresNonFlagArguments) {
  const char* argv[] = {"prog", "positional", "-single-dash", "--ok=1"};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("ok", 0), 1);
  EXPECT_EQ(flags.GetInt("positional", 3), 3);
}

TEST(FlagsTest, MalformedNumberExitsNamingTheFlag) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const char* argv[] = {"prog", "--rows=abc", "--lambda=4e3", "--threads=4e3",
                        "--min-time=0.5x"};
  Flags flags(5, const_cast<char**>(argv));
  // Not a number at all: once an uncaught std::invalid_argument.
  EXPECT_EXIT(flags.GetInt("rows", 0), ::testing::ExitedWithCode(2),
              "bad value for --rows: 'abc'");
  // A valid double is not a valid integer: once silently read as 4.
  EXPECT_EXIT(flags.GetInt("threads", 0), ::testing::ExitedWithCode(2),
              "bad value for --threads: '4e3'");
  EXPECT_EXIT(flags.GetDouble("min-time", 0.0), ::testing::ExitedWithCode(2),
              "bad value for --min-time: '0.5x'");
  EXPECT_DOUBLE_EQ(flags.GetDouble("lambda", 0.0), 4000.0);
}

TEST(BenchConfigTest, FromFlagsOverrides) {
  const char* argv[] = {"prog", "--rows=123", "--epochs=9", "--hidden=32"};
  Flags flags(4, const_cast<char**>(argv));
  BenchConfig config = BenchConfig::FromFlags(flags);
  EXPECT_EQ(config.rows, 123u);
  EXPECT_EQ(config.uae_epochs, 9);
  EXPECT_EQ(config.hidden, 32);
  core::UaeConfig uc = config.ToUaeConfig();
  EXPECT_EQ(uc.hidden, 32);
}

TEST(BenchDatasetTest, DispatchesByName) {
  data::Table dmv = BuildDataset("dmv", 500, 1);
  EXPECT_EQ(dmv.num_cols(), 11);
  data::Table census = BuildDataset("census", 500, 1);
  EXPECT_EQ(census.num_cols(), 14);
  data::Table kdd = BuildDataset("kdd", 500, 1);
  EXPECT_EQ(kdd.num_cols(), 100);
}

/// Counts the per-workload evaluation work an estimator row triggers — the
/// regression the PreparedWorkload hoist fixes: setup must happen once per
/// workload, not once per (estimator row x workload).
class CountingEstimator : public core::CardinalityEstimator {
 public:
  explicit CountingEstimator(double card) : card_(card) {}
  double EstimateCard(const workload::Query&) const override {
    single_calls.fetch_add(1);
    return card_;
  }
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override {
    batch_calls.fetch_add(1);
    batched_queries.fetch_add(queries.size());
    return std::vector<double>(queries.size(), card_);
  }
  size_t SizeBytes() const override { return 0; }

  mutable std::atomic<int> single_calls{0};
  mutable std::atomic<int> batch_calls{0};
  mutable std::atomic<size_t> batched_queries{0};

 private:
  double card_;
};

struct HarnessFixture {
  data::Table table = data::TinyCorrelated(400, 3);
  workload::Workload in_workload, random_workload;

  HarnessFixture() {
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 2;
    workload::QueryGenerator gen(table, gc, 9);
    for (int i = 0; i < 12; ++i) {
      workload::LabeledQuery lq;
      lq.query = gen.Generate();
      lq.card = static_cast<double>(workload::ExecuteCount(table, lq.query));
      (i % 2 == 0 ? in_workload : random_workload).push_back(lq);
    }
  }
};

TEST(EvaluateEstimatorTest, PreparedPathMatchesLegacyPathExactly) {
  HarnessFixture f;
  estimators::OracleEstimator oracle(f.table);
  ResultRow legacy =
      EvaluateEstimator("oracle", oracle, f.in_workload, f.random_workload);
  PreparedWorkload prep_in = PrepareWorkload(f.in_workload);
  PreparedWorkload prep_random = PrepareWorkload(f.random_workload);
  ResultRow prepared = EvaluateEstimator("oracle", oracle, prep_in, prep_random);
  EXPECT_DOUBLE_EQ(legacy.in_workload.mean, prepared.in_workload.mean);
  EXPECT_DOUBLE_EQ(legacy.in_workload.median, prepared.in_workload.median);
  EXPECT_DOUBLE_EQ(legacy.in_workload.max, prepared.in_workload.max);
  EXPECT_DOUBLE_EQ(legacy.random.mean, prepared.random.mean);
  EXPECT_DOUBLE_EQ(legacy.random.max, prepared.random.max);
  EXPECT_EQ(legacy.size_bytes, prepared.size_bytes);
}

TEST(QuantileAggregationTest, HarnessQuantilesAreSharedUtilQuantiles) {
  // Regression pin: every bench aggregation routes through util/quantiles —
  // no bench keeps a private nearest-rank copy. On a fixed vector the shared
  // linear-interpolation quantile is pinned exactly, and where a nearest-rank
  // reimplementation would diverge (even-count medians) we assert the
  // divergence, so reintroducing one cannot silently pass.
  const std::vector<double> odd = {5.0, 1.0, 9.0, 3.0, 7.0};
  // Odd count: interpolation and nearest-rank agree on the median.
  EXPECT_DOUBLE_EQ(util::Quantile(odd, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(util::Quantile(odd, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::Quantile(odd, 1.0), 9.0);

  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  // Even count: interpolation averages the middle pair...
  EXPECT_DOUBLE_EQ(util::Quantile(even, 0.5), 2.5);
  // ...where nearest-rank (ceil(q*n) with either rounding) picks an element.
  auto nearest_rank = [](std::vector<double> xs, double q) {
    std::sort(xs.begin(), xs.end());
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(xs.size())));
    return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
  };
  EXPECT_EQ(nearest_rank(even, 0.5), 2.0);
  EXPECT_NE(util::Quantile(even, 0.5), nearest_rank(even, 0.5));
  // Pin the interpolated p95 of a fixed 10-sample vector (pos = 8.55).
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(util::Quantile(ten, 0.95), 9.55);

  // And Summarize is Quantile applied at the canonical points.
  util::ErrorSummary s = util::Summarize(ten);
  EXPECT_DOUBLE_EQ(s.median, util::Quantile(ten, 0.5));
  EXPECT_DOUBLE_EQ(s.p95, util::Quantile(ten, 0.95));
  EXPECT_DOUBLE_EQ(s.p99, util::Quantile(ten, 0.99));
  EXPECT_DOUBLE_EQ(s.max, 10.0);
}

TEST(QuantileAggregationTest, HarnessSummariesEqualUtilSummarizeOfQErrors) {
  // The harness's per-workload ErrorSummary must be exactly
  // util::Summarize(per-query q-errors) — same shared aggregation, no local
  // re-derivation anywhere between EstimateCards and the report row.
  HarnessFixture f;
  estimators::OracleEstimator oracle(f.table);
  PreparedWorkload prep_in = PrepareWorkload(f.in_workload);
  PreparedWorkload prep_random = PrepareWorkload(f.random_workload);
  ResultRow row = EvaluateEstimator("oracle", oracle, prep_in, prep_random);

  std::vector<double> cards = oracle.EstimateCards(prep_in.queries);
  std::vector<double> errors;
  for (size_t i = 0; i < cards.size(); ++i) {
    errors.push_back(workload::QError(cards[i], prep_in.true_cards[i]));
  }
  util::ErrorSummary expect = util::Summarize(errors);
  EXPECT_DOUBLE_EQ(row.in_workload.mean, expect.mean);
  EXPECT_DOUBLE_EQ(row.in_workload.median, expect.median);
  EXPECT_DOUBLE_EQ(row.in_workload.p95, expect.p95);
  EXPECT_DOUBLE_EQ(row.in_workload.p99, expect.p99);
  EXPECT_DOUBLE_EQ(row.in_workload.max, expect.max);
  EXPECT_EQ(row.in_workload.count, expect.count);
}

TEST(EvaluateEstimatorTest, PreparedWorkloadIsReusedAcrossEstimatorRows) {
  HarnessFixture f;
  PreparedWorkload prep_in = PrepareWorkload(f.in_workload);
  PreparedWorkload prep_random = PrepareWorkload(f.random_workload);
  ASSERT_EQ(prep_in.queries.size(), f.in_workload.size());
  ASSERT_EQ(prep_in.true_cards.size(), f.in_workload.size());
  const workload::Query* queries_before = prep_in.queries.data();

  CountingEstimator a(10.0), b(20.0);
  (void)EvaluateEstimator("a", a, prep_in, prep_random);
  (void)EvaluateEstimator("b", b, prep_in, prep_random);

  // Exactly ONE batched call per (row, workload) — never a per-query loop,
  // never a second setup pass — and each call sees the whole workload.
  EXPECT_EQ(a.batch_calls.load(), 2);
  EXPECT_EQ(b.batch_calls.load(), 2);
  EXPECT_EQ(a.single_calls.load(), 0);
  EXPECT_EQ(a.batched_queries.load(),
            f.in_workload.size() + f.random_workload.size());
  // Evaluation does not rebuild or mutate the prepared workload.
  EXPECT_EQ(prep_in.queries.data(), queries_before);
  EXPECT_EQ(prep_in.queries.size(), f.in_workload.size());
}

std::string ConfigTail() {
  std::string tail = std::string(R"(,"isa":")") + IsaTier() + R"(","nproc":)" +
                     std::to_string(std::thread::hardware_concurrency());
#ifdef NDEBUG
  return tail + R"(,"optimized_build":true})";
#else
  return tail + R"(,"optimized_build":false})";
#endif
}

Report GoldenReport() {
  Report report({{"rows", 100}, {"zipf", 1.5}, {"dataset", "dmv"}});
  report.Add("golden/gated", {{"ns_per_op", 2.5},
                              {"qps", std::numeric_limits<double>::quiet_NaN()},
                              {"speedup_vs_ref", 3.0}});
  report.Add("golden/info", {{"count", int64_t{7}},
                             {"budget_matched", false},
                             {"qps_reps", std::vector<double>{1.0, 2.5}}});
  return report;
}

TEST(ReportTest, GoldenSchemaVersionOneDocument) {
  const std::string expect =
      R"({"schema_version":1,"config":{"rows":100,"zipf":1.5,"dataset":"dmv")" +
      ConfigTail() +
      R"(,"benchmarks":[)"
      R"({"name":"golden/gated","ns_per_op":2.5,"qps":null,"speedup_vs_ref":3},)"
      R"({"name":"golden/info","count":7,"budget_matched":false,"qps_reps":[1,2.5]}]})"
      "\n";
  EXPECT_EQ(GoldenReport().ToJson(), expect);
}

TEST(ReportTest, WriteStoresTheDocumentAndReportsIt) {
  const std::string path = ::testing::TempDir() + "bench_report_test.json";
  const Report report = GoldenReport();
  ::testing::internal::CaptureStdout();
  const bool ok = report.Write(path);
  const std::string out = ::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(ok);
  EXPECT_EQ(out, "wrote " + path + " (2 benchmarks)\n");
  std::ifstream in(path);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, report.ToJson());
  std::filesystem::remove(path);
}

TEST(ReportTest, UnwritablePathFailsWithoutWroteLine) {
  const std::string path =
      ::testing::TempDir() + "no-such-dir-for-bench-report/BENCH_x.json";
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const bool ok = GoldenReport().Write(path);
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(ok);
  EXPECT_EQ(out.find("wrote"), std::string::npos) << out;
  EXPECT_NE(err.find("cannot write " + path), std::string::npos) << err;
}

TEST(ReportTest, FailedFlushOnCloseFailsWithoutWroteLine) {
  // /dev/full accepts the open and the buffered fwrite, then fails the
  // flush inside fclose with ENOSPC: a write error only the close reports.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const bool ok = GoldenReport().Write("/dev/full");
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(ok);
  EXPECT_EQ(out.find("wrote"), std::string::npos) << out;
  EXPECT_NE(err.find("cannot write /dev/full"), std::string::npos) << err;
}

TEST(MeasureQpsTest, ReturnsEveryRepAndTheBestIsTheirMaximum) {
  using std::chrono::milliseconds;
  int setups = 0;
  int runs = 0;
  const QpsReps qps = MeasureQps(
      4, 1000.0,
      [&] {
        ++runs;
        std::this_thread::sleep_for(milliseconds(runs));
      },
      [&] {
        ++setups;
        std::this_thread::sleep_for(milliseconds(100));
      });
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(setups, 4);
  ASSERT_EQ(qps.reps.size(), 4u);
  EXPECT_EQ(qps.best, *std::max_element(qps.reps.begin(), qps.reps.end()));
  for (double q : qps.reps) {
    // 1000 ops over a body of at most 4 ms sleep; a timed 100 ms setup would
    // cap every rep below 1e4 q/s.
    EXPECT_GT(q, 2e4);
  }

  // At least one rep, whatever the count asked for.
  EXPECT_EQ(MeasureQps(0, 1.0, [] {}).reps.size(), 1u);
}

}  // namespace
}  // namespace uae::bench
