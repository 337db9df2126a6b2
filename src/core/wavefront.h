// Wavefront progressive sampling: every in-flight (query x sample) lane
// advances one virtual column per step through a single batched trunk forward,
// instead of one model forward per query per column. Lanes that hit a
// zero-mass column exit early (they are dropped from subsequent forwards), and
// each query keeps its own deterministic RNG stream, so estimates are
// bit-identical to the per-query sampler in core/progressive.cc for any
// wavefront width and thread count:
//
//   - the per-lane sampling arithmetic is the shared core::SampleLane;
//   - the trunk/head kernels are row-deterministic (output row i depends only
//     on input row i, never on batch composition or thread count);
//   - RNG draws per query happen in the legacy order: constrained virtual
//     columns ascending, live lanes ascending, dead lanes consuming nothing.
//
// Lanes that share a sampled prefix share one forward row (prefix dedup), and
// sharing is tracked by lineage rather than by comparing rows. Every lane
// carries the id of its current input row; all lanes start at the wildcard
// prototype's id. At a column step, lanes with the same id forward one row.
// After the draw, a surviving lane's new id is keyed on (forwarded row, picked
// code): its new row is the forwarded row with that column's slice set to the
// pick's encoder row, so equal keys mean bitwise-equal rows, and by induction
// over the steps equal ids always do. Two lanes get different ids only if
// their rows differ in some column slice, unless two codes of a column had
// bitwise-equal encoder rows; then lineage forwards one row more than a row
// comparison would, and no estimate changes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/made.h"
#include "core/progressive.h"
#include "core/targets.h"
#include "nn/kernels.h"
#include "nn/mat.h"
#include "util/rng.h"

namespace uae::core {

/// Reusable scratch for frozen forward passes. One per wave worker, so
/// steady-state steps allocate nothing once shapes have stabilized.
struct WavefrontWorkspace {
  nn::Mat x;      ///< Gathered live-lane inputs [m, input_width].
  nn::Mat h;      ///< Trunk activation [m, hidden].
  nn::Mat t0;     ///< relu(h) scratch.
  nn::Mat t1;     ///< fc1 output scratch.
  nn::Mat t2;     ///< fc2 output scratch.
  nn::Mat probs;  ///< Head probabilities [m, vdomain(vc)].
};

/// Reshapes `m` if needed; contents are unspecified afterwards.
inline void EnsureShape(nn::Mat* m, int rows, int cols) {
  if (m->rows() != rows || m->cols() != cols) *m = nn::Mat(rows, cols);
}

/// Reshapes `m` if needed and zeroes it (GEMM accumulation target).
inline void EnsureZeroed(nn::Mat* m, int rows, int cols) {
  if (m->rows() == rows && m->cols() == cols) {
    m->Zero();
  } else {
    *m = nn::Mat(rows, cols);
  }
}

/// A frozen, immutable inference plane over a ResMADE model: snapshots the
/// encoders, biases and layout once so forwards run as raw kernel calls with
/// no autograd graph and no per-op allocation. Implementations must be
/// row-deterministic: probs row i depends only on x row i, for any batch
/// composition and thread count — that property is what lets the wavefront
/// batch lanes of unrelated queries together without perturbing estimates.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  const data::VirtualSchema& schema() const { return *schema_; }
  int num_vcols() const { return schema_->num_virtual(); }
  /// Total encoded input width (sum of per-vcol encoder widths).
  int input_width() const { return input_width_; }
  /// Column offset of vcol `vc` inside an encoded input row.
  int col_offset(int vc) const { return offsets_[static_cast<size_t>(vc)]; }
  /// Encoded width of vcol `vc`.
  int col_width(int vc) const { return widths_[static_cast<size_t>(vc)]; }
  /// Encoder row for `code` (code == vdomain(vc) is the wildcard token);
  /// length col_width(vc). Bitwise-equal to the model's EncodeHard rows.
  const float* EncoderRow(int vc, int32_t code) const {
    return encoders_[static_cast<size_t>(vc)].row(code);
  }

  /// Writes softmaxed head-`vc` probabilities for the gathered lane rows of
  /// `x` into ws->probs ([x.rows(), vdomain(vc)]), using ws for
  /// intermediates. Must not retain pointers into ws across calls.
  virtual void ForwardProbs(int vc, const nn::Mat& x,
                            WavefrontWorkspace* ws) const = 0;

  virtual size_t SizeBytes() const = 0;

 protected:
  /// Copies encoders, biases and layout from `model`. `schema` overrides the
  /// schema pointer (pass the owner's long-lived copy); nullptr means
  /// &model.schema(), which must then outlive this backend.
  InferenceBackend(const MadeModel& model, const data::VirtualSchema* schema);

  const data::VirtualSchema* schema_;
  std::vector<nn::Mat> encoders_;  ///< Per vcol, (domain+1) x width copies.
  std::vector<int> offsets_;
  std::vector<int> widths_;
  int input_width_ = 0;
  int hidden_ = 0;
  nn::Mat b_in_;                  ///< Input-layer bias [1, hidden].
  std::vector<nn::Mat> b1_, b2_;  ///< Residual-block biases, per block.
  std::vector<nn::Mat> head_b_;   ///< Head biases, per vcol.
};

/// Fp32 backend: pre-masked weight copies (W ⊙ M computed once, bitwise the
/// same product MaskedMatMul forms per call) plus the exact kernel sequence of
/// MadeModel::Trunk/HeadProbs, so a wavefront estimate is bit-identical to
/// the per-query sampler's.
class FrozenMadeBackend : public InferenceBackend {
 public:
  explicit FrozenMadeBackend(const MadeModel& model,
                             const data::VirtualSchema* schema = nullptr);

  void ForwardProbs(int vc, const nn::Mat& x,
                    WavefrontWorkspace* ws) const override;
  size_t SizeBytes() const override;

 private:
  nn::Mat w_in_;                  ///< Pre-masked input weights [in, hidden].
  std::vector<nn::Mat> w1_, w2_;  ///< Pre-masked block weights, per block.
  std::vector<nn::Mat> head_w_;   ///< Pre-masked head weights, per vcol.
};

struct WavefrontConfig {
  int num_samples = 200;  ///< Progressive-sampling lanes per query.
  int wave_width = 8;     ///< Queries advanced together per wave.
};

/// Runs progressive sampling for all queries, `wave_width` queries at a time,
/// every step batched through one backend forward. `rngs[i]` must be the
/// stream the per-query sampler would use for `targets[i]`; element i of the
/// result is then bit-identical to
/// ProgressiveSample(model, targets[i], num_samples, &rngs[i]) when `backend`
/// is a FrozenMadeBackend over the same model. Waves are independent and may
/// run on pool workers; results do not depend on the thread count.
std::vector<double> WavefrontSampleSelectivities(const InferenceBackend& backend,
                                                 std::span<const QueryTargets> targets,
                                                 std::span<util::Rng> rngs,
                                                 const WavefrontConfig& config);

}  // namespace uae::core
