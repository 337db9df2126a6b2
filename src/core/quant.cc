#include "core/quant.h"

#include <algorithm>
#include <cstring>

namespace uae::core {

namespace {

/// Quantizes the layer's pre-masked weights (W ⊙ M, the exact product the
/// fp32 plane uses) column-major-as-rows, then applies the corruption knob.
nn::QuantizedMat QuantizeLayer(const nn::MaskedLinear& layer,
                               const QuantizeOptions& options) {
  const nn::Mat& w = layer.weight()->value();
  nn::Mat wm(w.rows(), w.cols());
  nn::MulElem(w, layer.mask(), &wm);
  nn::QuantizedMat qm = nn::QuantizeColsAsRows(wm);
  if (options.scale_multiplier != 1.f) {
    for (float& s : qm.scales) s *= options.scale_multiplier;
  }
  return qm;
}

}  // namespace

QuantizedMadeBackend::QuantizedMadeBackend(const MadeModel& model,
                                           const data::VirtualSchema* schema,
                                           const QuantizeOptions& options)
    : InferenceBackend(model, schema) {
  w_in_ = QuantizeLayer(model.input_layer(), options);
  w1_.reserve(model.blocks().size());
  w2_.reserve(model.blocks().size());
  for (const auto& block : model.blocks()) {
    w1_.push_back(QuantizeLayer(block.fc1(), options));
    w2_.push_back(QuantizeLayer(block.fc2(), options));
  }
  head_w_.reserve(static_cast<size_t>(model.num_vcols()));
  for (int vc = 0; vc < model.num_vcols(); ++vc) {
    head_w_.push_back(QuantizeLayer(model.head(vc), options));
  }
}

void QuantizedMadeBackend::ForwardProbs(int vc, const nn::Mat& x,
                                        WavefrontWorkspace* ws) const {
  // Same op sequence as FrozenMadeBackend with the GEMMs swapped for the
  // int8 kernel (fp32 accumulate, per-channel dequant epilogue).
  const int m = x.rows();
  EnsureZeroed(&ws->h, m, hidden_);
  nn::GemmNtQuantAccum(x, w_in_, &ws->h);
  nn::AddBiasRows(ws->h, b_in_, &ws->h);
  for (size_t blk = 0; blk < w1_.size(); ++blk) {
    EnsureShape(&ws->t0, m, hidden_);
    std::memcpy(ws->t0.data(), ws->h.data(), ws->h.size() * sizeof(float));
    nn::ReluInplace(&ws->t0);
    EnsureZeroed(&ws->t1, m, hidden_);
    nn::GemmNtQuantAccum(ws->t0, w1_[blk], &ws->t1);
    nn::AddBiasReluRows(ws->t1, b1_[blk], &ws->t1);
    EnsureZeroed(&ws->t2, m, hidden_);
    nn::GemmNtQuantAccum(ws->t1, w2_[blk], &ws->t2);
    nn::AddBiasRows(ws->t2, b2_[blk], &ws->t2);
    float* h = ws->h.data();
    const float* t = ws->t2.data();
    for (size_t i = 0; i < ws->h.size(); ++i) h[i] += t[i];
  }
  nn::ReluInplace(&ws->h);
  const nn::QuantizedMat& hw = head_w_[static_cast<size_t>(vc)];
  EnsureZeroed(&ws->probs, m, hw.rows);
  nn::GemmNtQuantAccum(ws->h, hw, &ws->probs);
  nn::AddBiasRows(ws->probs, head_b_[static_cast<size_t>(vc)], &ws->probs);
  nn::SoftmaxRowsInplace(&ws->probs);
}

size_t QuantizedMadeBackend::SizeBytes() const {
  size_t total = w_in_.SizeBytes();
  for (const auto& m : encoders_) total += m.size() * sizeof(float);
  for (const auto& m : w1_) total += m.SizeBytes();
  for (const auto& m : w2_) total += m.SizeBytes();
  for (const auto& m : head_w_) total += m.SizeBytes();
  total += b_in_.size() * sizeof(float);
  for (const auto& m : b1_) total += m.size() * sizeof(float);
  for (const auto& m : b2_) total += m.size() * sizeof(float);
  for (const auto& m : head_b_) total += m.size() * sizeof(float);
  return total;
}

QuantizedUae::QuantizedUae(const Uae& source, const QuantizeOptions& options)
    : table_(source.table()),
      universe_(source.universe()),
      config_(source.config()),
      num_rows_(source.num_rows()) {
  UAE_CHECK(table_ != nullptr);
  schema_ = std::make_shared<data::VirtualSchema>(source.schema());
  backend_ =
      std::make_shared<QuantizedMadeBackend>(source.model(), schema_.get(), options);
}

std::vector<double> QuantizedUae::EstimateSelectivities(
    std::span<const workload::Query> queries) const {
  // Same per-query streams as the fp32 source (WavefrontSelectivities seeds
  // them as Uae does), over the quantized plane.
  return WavefrontSelectivities(*backend_, config_, *table_, queries);
}

double QuantizedUae::EstimateSelectivity(const workload::Query& query) const {
  return EstimateSelectivities(std::span<const workload::Query>(&query, 1))[0];
}

double QuantizedUae::EstimateCard(const workload::Query& query) const {
  return EstimateSelectivity(query) * static_cast<double>(num_rows_);
}

std::vector<double> QuantizedUae::EstimateCards(
    std::span<const workload::Query> queries) const {
  std::vector<double> cards = EstimateSelectivities(queries);
  for (double& c : cards) c *= static_cast<double>(num_rows_);
  return cards;
}

std::vector<double> QuantizedUae::EstimateJoinCards(
    std::span<const workload::JoinQuery> queries) const {
  UAE_CHECK(universe_ != nullptr)
      << "join query on a quantized single-table snapshot";
  std::vector<double> cards =
      WavefrontSelectivities(*backend_, config_, *universe_, queries);
  for (double& c : cards) c *= static_cast<double>(universe_->full_join_rows);
  return cards;
}

double QuantizedUae::EstimateJoinCard(const workload::JoinQuery& query) const {
  return EstimateJoinCards(std::span<const workload::JoinQuery>(&query, 1))[0];
}

std::shared_ptr<ServableModel> QuantizedUae::CloneServable() const {
  return std::shared_ptr<ServableModel>(new QuantizedUae(*this));
}

size_t QuantizedUae::FineTune(const workload::Workload& /*workload*/,
                              const FineTuneSpec& /*spec*/) {
  return 0;  // Frozen: callers treat 0 as "clone still bit-identical".
}

}  // namespace uae::core
