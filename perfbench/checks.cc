#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/quantiles.h"
#include "workload/metrics.h"

namespace perfbench {
namespace {

constexpr size_t kMaxNotes = 8;

}  // namespace

const char* EstimateFault(double card, double num_rows) {
  if (std::isnan(card)) return "NaN estimate";
  if (std::isinf(card)) return "infinite estimate";
  if (card < 0.0) return "negative estimate";
  if (card > num_rows) return "estimate above num_rows";
  return nullptr;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void Tally::Fail(const std::string& note) {
  ++attempted_;
  ++failed_;
  if (notes_.size() < kMaxNotes) notes_.push_back(note);
}

void Tally::Estimate(double card, double num_rows, const char* what) {
  if (const char* fault = EstimateFault(card, num_rows)) {
    Fail(std::string(what) + ": " + fault + " (" + std::to_string(card) + ")");
  } else {
    Ok();
  }
}

void Tally::Parity(double served, double direct, const char* what) {
  if (SameBits(served, direct)) {
    Ok();
  } else {
    Fail(std::string(what) + ": served " + std::to_string(served) +
         " != direct " + std::to_string(direct));
  }
}

void Tally::Merge(const Tally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& n : other.notes_) {
    if (notes_.size() < kMaxNotes) notes_.push_back(n);
  }
}

Dist Summarize(std::vector<double> values) {
  Dist d;
  auto nonfinite = std::partition(values.begin(), values.end(),
                                  [](double v) { return std::isfinite(v); });
  d.nonfinite = static_cast<size_t>(values.end() - nonfinite);
  values.erase(nonfinite, values.end());
  d.count = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  d.p50 = uae::util::QuantileSorted(values, 0.5);
  d.p90 = uae::util::QuantileSorted(values, 0.9);
  d.p99 = uae::util::QuantileSorted(values, 0.99);
  return d;
}

std::vector<double> QErrors(std::span<const double> estimates,
                            std::span<const double> truths, Tally* tally) {
  std::vector<double> errors(estimates.size());
  for (size_t i = 0; i < estimates.size(); ++i) {
    errors[i] = uae::workload::QError(estimates[i], truths[i]);
    if (!std::isfinite(errors[i])) {
      tally->Fail("non-finite q-error for estimate " +
                  std::to_string(estimates[i]));
    } else {
      tally->Ok();
    }
  }
  return errors;
}

}  // namespace perfbench
