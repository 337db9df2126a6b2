// Tests of the benchmark's correctness checks: a NaN, a negative and a
// mismatched estimate must each be counted as a failure, and quantiles must
// ignore non-finite values instead of depending on where they sort.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "checks.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void EstimateChecks() {
  using perfbench::Tally;
  const double nan = std::numeric_limits<double>::quiet_NaN();

  Tally ok;
  ok.Estimate(0.0, 100.0, "zero");
  ok.Estimate(100.0, 100.0, "num_rows");
  ok.Parity(12.5, 12.5, "equal");
  Expect(ok.attempted() == 3 && ok.failed() == 0, "valid estimates pass");

  Tally t;
  t.Estimate(nan, 100.0, "nan");
  Expect(t.failed() == 1, "NaN estimate is rejected");
  t.Estimate(-1.0, 100.0, "negative");
  Expect(t.failed() == 2, "negative estimate is rejected");
  t.Estimate(std::numeric_limits<double>::infinity(), 100.0, "inf");
  Expect(t.failed() == 3, "infinite estimate is rejected");
  t.Estimate(100.5, 100.0, "above");
  Expect(t.failed() == 4, "estimate above num_rows is rejected");
  t.Parity(12.5, std::nextafter(12.5, 13.0), "mismatch");
  Expect(t.failed() == 5, "estimate one ulp off the direct call is rejected");
  t.Parity(0.0, -0.0, "signed zero");
  Expect(t.failed() == 6, "parity is bitwise: -0.0 differs from 0.0");
  Expect(t.attempted() == 6, "every check counts as attempted");
  Expect(!t.notes().empty(), "failures carry a note");
}

void QuantileChecks() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> clean = {1.0, 2.0, 3.0, 4.0, 5.0};
  // The same finite sample with NaNs in different positions must summarize
  // identically: NaNs are dropped and counted, never sorted.
  std::vector<double> front = {nan, 1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> back = {5.0, 4.0, 3.0, 2.0, 1.0, nan, nan};
  const perfbench::Dist a = perfbench::Summarize(clean);
  const perfbench::Dist b = perfbench::Summarize(front);
  const perfbench::Dist c = perfbench::Summarize(back);
  Expect(a.p50 == 3.0 && b.p50 == 3.0 && c.p50 == 3.0, "median ignores NaN");
  Expect(a.p99 == b.p99 && b.p99 == c.p99, "p99 ignores NaN");
  Expect(b.nonfinite == 1 && c.nonfinite == 2 && c.count == 5, "NaNs are counted");

  perfbench::Tally t;
  const std::vector<double> est = {10.0, nan, 5.0};
  const std::vector<double> truth = {10.0, 10.0, 10.0};
  const std::vector<double> q = perfbench::QErrors(est, truth, &t);
  Expect(q[0] == 1.0 && q[2] == 2.0, "q-error values");
  Expect(t.failed() == 1 && t.attempted() == 3, "non-finite q-error is a failure");
}

}  // namespace

int main() {
  EstimateChecks();
  QuantileChecks();
  if (failures == 0) std::printf("checks_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
