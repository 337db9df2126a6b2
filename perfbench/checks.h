// Correctness checks and summary statistics shared by every workload.
//
// A served estimate is acceptable when it is finite, lies in [0, num_rows],
// and (on the sampled parity set) is bitwise equal to the direct model call
// -- the pure-function contract of docs/DETERMINISM.md. Every failed check is
// counted against the operations attempted; quantiles are taken over finite
// values only, so a NaN shows up as a failure and never as a metric whose
// value depends on where the NaN happened to sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Why `card` is not an acceptable estimate over a table of `num_rows` rows,
/// or nullptr when it is.
const char* EstimateFault(double card, double num_rows);

/// Bitwise equality of two doubles (NaN payloads included).
bool SameBits(double a, double b);

/// Attempted/failed operation counts plus the first few failure notes.
class Tally {
 public:
  void Ok(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& note);
  /// Counts one estimate: ok, or failed with EstimateFault's reason.
  void Estimate(double card, double num_rows, const char* what);
  /// Counts one parity comparison of a served estimate against the direct
  /// call on the same model.
  void Parity(double served, double direct, const char* what);
  void Merge(const Tally& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> notes_;
};

/// Quantiles of the finite values of a sample.
struct Dist {
  size_t count = 0;      ///< Finite values summarized.
  size_t nonfinite = 0;  ///< Values dropped because they were NaN or inf.
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

Dist Summarize(std::vector<double> values);

/// The q-errors of `estimates` against `truths` (floor 1 on both sides, as
/// workload::QError). Each non-finite estimate or q-error is a failure in
/// `tally`; the q-error itself is still returned (non-finite) so Summarize
/// drops it.
std::vector<double> QErrors(std::span<const double> estimates,
                            std::span<const double> truths, Tally* tally);

}  // namespace perfbench
